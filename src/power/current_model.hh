/**
 * @file
 * Activity-to-current translation (Tiwari-style instruction-level
 * power, paper Sec II-A cites [23]).
 *
 * Per-core current has three components:
 *   - leakage: always drawn, independent of clocking
 *   - idle clock: clock-tree and always-on logic while the core is
 *     powered (reduced by clock gating when activity collapses)
 *   - dynamic: proportional to the activity level from the core model
 *
 * An optional slew limit bounds per-cycle di/dt (current cannot change
 * instantaneously through the on-die distribution); disabling it is an
 * ablation knob (bench/ablation_clock_gating).
 */

#ifndef VSMOOTH_POWER_CURRENT_MODEL_HH
#define VSMOOTH_POWER_CURRENT_MODEL_HH

#include <cstddef>

#include "common/units.hh"
#include "dsp/primitives.hh"

namespace vsmooth::power {

/** Electrical parameters of one core's current draw. */
struct CurrentModelParams
{
    /** Leakage current, always present. */
    Amps leakage{3.0};
    /**
     * Clock-distribution current with gating fully open; scales down
     * with activity as units gate off.
     */
    Amps idleClock{1.5};
    /**
     * Additional dynamic current at activity = 1.0. This is the
     * *noise-effective* di/dt swing of one core's stallable units —
     * smaller than the TDP current because caches, uncore, and the
     * unstalled units keep drawing through an event.
     */
    Amps dynamicMax{4.2};
    /**
     * Maximum current change per cycle (A/cycle). Zero or negative
     * disables slew limiting.
     */
    double maxSlewPerCycle = 0.0;
    /**
     * First-order smoothing time constant in cycles (0 disables).
     * Models the finite drain/refill time of the pipeline's current:
     * activity edges take ~tau cycles to reach the power grid, which
     * attenuates excitation of higher-frequency PDN resonances — the
     * reason workload noise grows more slowly than the raw sqrt(L/C)
     * impedance scaling when decap is removed (Fig 9 vs Fig 6).
     */
    double smoothingTauCycles = 2.0;
};

/** Converts a core's per-cycle activity into supply current. */
class CurrentModel
{
  public:
    explicit CurrentModel(const CurrentModelParams &params = {});

    /**
     * Current for one cycle at the given activity level; applies slew
     * limiting against the previous cycle's output.
     */
    double currentFor(double activity);

    /**
     * Hoisted per-sample kernel for batched execution: the model
     * parameters and the smoothing/slew state as plain values, so a
     * caller can keep the loop-carried `prev` chain in a register
     * across a whole block (and overlap it with other stages'
     * chains). steadyBlock() followed by smooth() performs exactly
     * currentFor()'s arithmetic; commit() writes the state back.
     * alpha is 1/(1+tau), the same expression currentFor evaluates,
     * so the value is identical.
     */
    struct BlockCursor
    {
        double prev;
        double tau;
        double alpha;
        double slew;
        double leak;
        double idleClk;
        double dynMax;

        /**
         * The smoothing/slew stage, for callers that have already run
         * the elementwise steady-current conversion over a whole lane
         * (steadyBlock): only this part carries state from sample to
         * sample. Delegates to the dsp fused
         * chain kernel — the ONE implementation of this recurrence
         * (dsp/primitives.hh).
         */
        double smooth(double target)
        {
            return dsp::smoothSlewSample(prev, target, tau, alpha, slew);
        }
    };

    BlockCursor cursor() const
    {
        return BlockCursor{previous_,
                           params_.smoothingTauCycles,
                           1.0 / (1.0 + params_.smoothingTauCycles),
                           params_.maxSlewPerCycle,
                           params_.leakage.value(),
                           params_.idleClock.value(),
                           params_.dynamicMax.value()};
    }

    void commit(const BlockCursor &c) { previous_ = c.prev; }

    /**
     * Elementwise steadyCurrent() over a lane, through the active SIMD
     * level's steady kernel (identical per-sample arithmetic). In-place
     * operation (steady == activity) is allowed.
     */
    void steadyBlock(const double *activity, double *steady,
                     std::size_t n) const;

    /** Steady-state current at an activity level (no slew state). */
    double steadyCurrent(double activity) const;

    /** Current of a fully idle (but powered and clocked) core. */
    double idleCurrent() const { return steadyCurrent(0.12); }

    /** Maximum steady current (power-virus level). */
    double maxCurrent() const { return steadyCurrent(1.0); }

  private:
    CurrentModelParams params_;
    double previous_;
};

} // namespace vsmooth::power

#endif // VSMOOTH_POWER_CURRENT_MODEL_HH
