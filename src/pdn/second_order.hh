/**
 * @file
 * Fast second-order PDN model for per-CPU-cycle coupling.
 *
 * The dominant voltage-noise dynamics are the mid-frequency resonance
 * of the package loop inductance against the die-side capacitance
 * (100-200 MHz in the paper's Fig 4). This class integrates that RLC
 * tank with a trapezoidal rule at the CPU clock period, so the core
 * activity model can inject a load current every cycle and read back
 * the die voltage — tens of nanoseconds of circuit response per cycle
 * at a few ns of CPU cost.
 *
 * State-space form, states x = [iL, vC], with the damping resistance
 * (capacitor-bank ESR) in the capacitor branch so it damps the ring
 * without adding DC IR drop:
 *   diL/dt = (Vdd(t) - vC - (rSeries + rDamp) iL + rDamp iLoad) / L
 *   dvC/dt = (iL - iLoad) / C
 *   vDie   = vC + rDamp (iL - iLoad)
 *
 * An optional sawtooth VRM ripple modulates Vdd(t), reproducing the
 * background waveform visible in the paper's Fig 11.
 */

#ifndef VSMOOTH_PDN_SECOND_ORDER_HH
#define VSMOOTH_PDN_SECOND_ORDER_HH

#include <cstddef>
#include <cstdint>

#include "common/units.hh"
#include "dsp/primitives.hh"
#include "pdn/package_config.hh"

namespace vsmooth::pdn {

/** Trapezoidal integrator for the reduced RLC supply model. */
class SecondOrderPdn
{
  public:
    /**
     * @param params reduced electrical model
     * @param dt integration step (one CPU clock period)
     * @param rippleFraction one-sided VRM ripple amplitude / Vdd
     * @param rippleFrequency VRM switching frequency (ignored if the
     *        fraction is zero)
     */
    SecondOrderPdn(const SecondOrderParams &params, Seconds dt,
                   double rippleFraction = 0.0,
                   Hertz rippleFrequency = Hertz(1e6));

    /** Convenience: build from a full package config. */
    SecondOrderPdn(const PackageConfig &cfg, Seconds dt);

    /**
     * Advance one timestep with the given load current and return the
     * die voltage at the end of the step.
     */
    double step(double loadAmps);

    /**
     * Hoisted per-sample kernel for batched execution: the update
     * matrix and the integrator state as plain values, so a caller
     * can keep the loop-carried iL/vC chain in registers across a
     * whole block and overlap it with the current models' smoothing
     * chains. stepWithVddEff() performs exactly step()'s arithmetic
     * followed by voltageDeviation(); commit() writes the state
     * back.
     */
    struct BlockStepper
    {
        double m00, m01, m10, m11;
        double n00, n01, n10, n11;
        double vdd;
        double invVdd;
        double rc;
        double dt;
        double rippleAmp;
        double iL;
        double vC;
        double vDie;
        double t;

        /**
         * One step with the effective supply already evaluated, so
         * block loops can cache the ripple across samples (this
         * cycle's ripple(t) is last cycle's ripple(t + dt), bitwise,
         * since the ripple is a pure function of the t bits). The
         * recurrence is the dsp biquad kernel; its input terms are
         * grouped apart from the state terms, which keeps them off
         * the iL/vC carried dependency chain. Returns the deviation
         * (vDie/vdd - 1).
         */
        double stepWithVddEff(double vddEff, double loadAmps)
        {
            const double dev = dsp::biquadSample(
                iL, vC, vDie, m00, m01, m10, m11,
                dsp::biquadInput(n00, vddEff, n01, loadAmps),
                dsp::biquadInput(n10, vddEff, n11, loadAmps), loadAmps,
                rc, invVdd);
            t += dt;
            return dev;
        }
    };

    BlockStepper cursor() const
    {
        return BlockStepper{m00_, m01_, m10_, m11_,
                            n00_, n01_, n10_, n11_,
                            vdd_, invVdd_, rc_, dt_, rippleAmp_,
                            iL_, vC_, vDie_, time_};
    }

    void commit(const BlockStepper &s)
    {
        iL_ = s.iL;
        vC_ = s.vC;
        vDie_ = s.vDie;
        time_ = s.t;
    }

    /**
     * Advance n timesteps, reading load[j] amps for step j and
     * writing the resulting die-voltage deviation (signed fraction of
     * nominal, as voltageDeviation()) to deviation[j]. The loop body
     * performs the *same floating-point operations in the same order*
     * as n successive step() calls — state is merely held in locals —
     * so the results are bit-identical to stepping one cycle at a
     * time.
     */
    void stepBlock(const double *load, double *deviation,
                   std::size_t n);

    /** Die voltage after the last step. */
    double voltage() const { return vDie_; }

    /** Inductor (supply loop) current after the last step. */
    double inductorCurrent() const { return iL_; }

    /** Nominal supply voltage. */
    double vddNominal() const { return vdd_; }

    /** Die voltage as a signed fraction of nominal (0 = nominal).
     *  Uses the precomputed 1/vdd: this is read every simulated
     *  cycle, and the divide otherwise dominates the sample. */
    double voltageDeviation() const { return vDie_ * invVdd_ - 1.0; }

    /** Elapsed simulated time. */
    Seconds time() const { return Seconds(time_); }

    /** VRM ripple period in seconds (always finite and positive —
     *  set from the frequency even when the amplitude is zero). */
    double ripplePeriod() const { return ripplePeriod_; }

    /**
     * Reset state to the DC operating point for a given steady load.
     */
    void reset(double steadyLoadAmps = 0.0);

    /** Resonance frequency of the modeled tank. */
    Hertz resonanceFrequency() const;

    /** The VRM ripple source as a dsp primitive (pure function of
     *  time — safe to evaluate anywhere). A triangle wave: the buck
     *  output droops between switching events and recharges through
     *  the output filter, so there is no edge to ring the die tank. */
    dsp::RippleOscillator ripple() const
    {
        return {rippleAmp_, ripplePeriod_};
    }

  private:
    double vdd_;
    /** Precomputed 1/vdd_ for the per-sample deviation scaling. */
    double invVdd_;
    double rs_;
    double rc_;
    double l_;
    double c_;
    double dt_;
    double rippleAmp_;
    double ripplePeriod_;

    // Precomputed trapezoidal update:
    //   x_{n+1} = M * x_n + N * u
    // with u = [vddEff, iLoad] averaged over the step.
    double m00_, m01_, m10_, m11_;
    double n00_, n01_, n10_, n11_;

    double iL_ = 0.0;
    double vC_ = 0.0;
    double vDie_ = 0.0;
    double time_ = 0.0;
};

} // namespace vsmooth::pdn

#endif // VSMOOTH_PDN_SECOND_ORDER_HH
