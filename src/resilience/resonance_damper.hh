/**
 * @file
 * Resonance-aware throttling — the hardware mitigation baseline of
 * Powell & Vijaykumar ("exploiting resonant behavior to reduce
 * inductive noise", ISCA 2004 [18], and pipeline muffling [17]),
 * which the paper positions its software scheduler against.
 *
 * Mechanism: the dangerous supply oscillations build up over several
 * periods of the PDN resonance. The damper watches the die-voltage
 * deviation, estimates the amplitude of oscillation at the resonance
 * frequency, and when successive swings grow beyond a trigger level,
 * throttles execution for a few cycles to break the resonant pumping.
 */

#ifndef VSMOOTH_RESILIENCE_RESONANCE_DAMPER_HH
#define VSMOOTH_RESILIENCE_RESONANCE_DAMPER_HH

#include <cstdint>

#include "common/units.hh"
#include "dsp/primitives.hh"

namespace vsmooth::resilience {

/** Configuration of the resonance damper. */
struct ResonanceDamperParams
{
    /** Resonance period in cycles (platform-specific). */
    std::uint32_t resonancePeriodCycles = 24;
    /** Oscillation amplitude (fraction of nominal) that triggers. */
    double triggerAmplitude = 0.02;
    /**
     * Cycles of throttling per trigger. Must exceed the resonance
     * period: shorter windows turn the throttle itself into a
     * resonant square-wave stimulus.
     */
    std::uint32_t throttleCycles = 48;
};

/** Amplitude-tracking damper. */
class ResonanceDamper
{
  public:
    explicit ResonanceDamper(const ResonanceDamperParams &params = {});

    const ResonanceDamperParams &params() const { return params_; }

    /**
     * Feed the per-cycle voltage deviation; returns true if execution
     * should be throttled this cycle.
     */
    bool feed(double deviation);

    /** Number of throttle windows triggered. */
    std::uint64_t triggers() const { return triggers_; }
    /** Total throttled cycles. */
    std::uint64_t throttledCycles() const { return throttledCycles_; }

  private:
    ResonanceDamperParams params_;
    /** Slow baseline tracker; alpha = 1/256 keeps its corner well
     *  below any plausible resonance frequency. */
    dsp::OnePoleSmoother meanTracker_{1.0 / 256.0, 0.0};
    double amplitude_ = 0.0;
    double halfPeriodMin_ = 0.0;
    double halfPeriodMax_ = 0.0;
    std::uint32_t phase_ = 0;
    std::uint32_t throttleLeft_ = 0;
    std::uint64_t triggers_ = 0;
    std::uint64_t throttledCycles_ = 0;
};

} // namespace vsmooth::resilience

#endif // VSMOOTH_RESILIENCE_RESONANCE_DAMPER_HH
