/**
 * @file
 * Layer-1 DSP primitives: the loop-carried per-cycle recurrences the
 * whole characterization pipeline bottoms out in — current smoothing
 * (one-pole + slew), the second-order PDN step (biquad recurrence),
 * VRM ripple, and the mitigation ramp — as constexpr-capable,
 * zero-allocation, sample-accurate kernels (DESIGN.md §12).
 *
 * Contract, shared by every primitive here:
 *
 *   - explicit state: all carried state lives in public members of
 *     the primitive struct; copying the struct snapshots the stream
 *     (save/restore round-trips are exact);
 *   - one sample kernel: the free sample functions below ARE the
 *     per-cycle arithmetic — the structs' sample() members and the
 *     hot paths that keep state in their own layouts (BlockCursor,
 *     BlockStepper) delegate to them, and the block form
 *     processSumColumns is a plain loop over them, so there is
 *     exactly one implementation of each recurrence (the stateless
 *     steady-current map's block form is the one SIMD template
 *     simd::KernelSet::steady);
 *   - bit-identity: every function performs a fixed sequence of IEEE
 *     operations; no FMA contraction is assumed and none of the
 *     groupings may be re-associated (the comments on each kernel
 *     state the grouping it must preserve);
 *   - zero allocation: nothing here touches the heap, ever.
 *
 * Keep this header out of the -mavx2/-mavx512f translation units
 * (common/simd_avx2.cc, common/simd_avx512.cc): its inline functions
 * would be emitted there as AVX-encoded comdats that could leak into
 * baseline objects. The cross-lane (V-templated) forms of these
 * kernels live in dsp/lane_kernels.hh, which is safe to include there.
 */

#ifndef VSMOOTH_DSP_PRIMITIVES_HH
#define VSMOOTH_DSP_PRIMITIVES_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace vsmooth::dsp {

// ---------------------------------------------------------------------
// Free sample kernels: the single implementation of each per-cycle
// recurrence. State is passed by reference so callers with their own
// state layouts (power::CurrentModel::BlockCursor,
// pdn::SecondOrderPdn::BlockStepper) delegate without copying.
// ---------------------------------------------------------------------

/** One-pole low-pass step: prev += alpha * (target - prev). With
 *  alpha an exact power of two (e.g. 1/256) this is bit-identical to
 *  the divide form `prev += (target - prev) / N`. */
constexpr double
onePoleSample(double &prev, double target, double alpha)
{
    prev = prev + alpha * (target - prev);
    return prev;
}

/**
 * The fused smoothing chain of power::CurrentModel: a one-pole stage
 * (tau > 0 enables) and a slew stage (slew > 0 enables) sharing ONE
 * carried `prev` — both stages measure their delta against the value
 * committed last cycle, and the result commits once at the end.
 * Exactly BlockCursor::smooth()'s operations in its order.
 */
constexpr double
smoothSlewSample(double &prev, double target, double tau, double alpha,
                 double slew)
{
    if (tau > 0.0)
        target = prev + alpha * (target - prev);
    if (slew > 0.0) {
        const double delta = std::clamp(target - prev, -slew, slew);
        target = prev + delta;
    }
    prev = target;
    return target;
}

/**
 * Activity-to-steady-current map (the elementwise, stateless front of
 * the current model): clamp to [0, 2.5] headroom, clock-gating floor,
 * linear dynamic term. min/max composition compiles branchless, which
 * is what lets the block form below vectorize.
 */
constexpr double
activityToCurrentSample(double activity, double leak, double idleClk,
                        double dynMax)
{
    const double a = std::min(std::max(activity, 0.0), 2.5);
    const double clock = idleClk * (0.25 + 0.75 * std::min(a, 1.0));
    return leak + clock + dynMax * a;
}

/** One input term of the biquad step: n0 * drive + n1 * load. */
constexpr double
biquadInput(double n0, double drive, double n1, double load)
{
    return n0 * drive + n1 * load;
}

/**
 * The PDN trapezoidal recurrence (pdn::SecondOrderPdn's step): a
 * 2-state biquad with precomputed input terms u0/u1. The state terms
 * are grouped apart from the input terms — (m·x) + (u) — which keeps
 * the per-sample input work off the iL/vC carried dependency chain;
 * that grouping is load-bearing for bit-identity and must not be
 * re-associated. Returns the die-voltage deviation.
 */
constexpr double
biquadSample(double &iL, double &vC, double &vDie, double m00, double m01,
             double m10, double m11, double u0, double u1, double load,
             double rc, double invVdd)
{
    const double i0 = iL;
    const double v0 = vC;
    iL = (m00 * i0 + m01 * v0) + u0;
    vC = (m10 * i0 + m11 * v0) + u1;
    vDie = vC + rc * (iL - load);
    return vDie * invVdd - 1.0;
}

/**
 * Triangle VRM ripple at time t (>= 0): phase = t/T - floor(t/T),
 * tri = 1 - 4*phase below 0.5, 4*phase - 3 above. One division per
 * evaluation (the quotient is reused for the floor — same operand
 * bits, so identical to dividing twice). Not constexpr: std::floor
 * is runtime-only in C++20.
 */
inline double
triangleRippleSample(double t, double period, double amp)
{
    if (amp == 0.0)
        return 0.0;
    const double q = t / period;
    const double phase = q - std::floor(q);
    const double tri = phase < 0.5 ? (1.0 - 4.0 * phase)
                                   : (4.0 * phase - 3.0);
    return amp * tri;
}

/**
 * Linear ramp sample: `remaining` of total+1 equal steps left from
 * `from` toward `to` (remaining == total on the first ramp cycle, so
 * the first output already sits below `from`; remaining == 1 on the
 * last). Exactly StallEngine's RampDown arithmetic.
 */
constexpr double
linearRampAt(std::uint32_t remaining, std::uint32_t total, double from,
             double to)
{
    const double frac = static_cast<double>(remaining) /
        static_cast<double>(total + 1);
    return to + (from - to) * frac;
}

// ---------------------------------------------------------------------
// Explicit state structs over the sample kernels, and the block forms
// the pipeline runs. In-place operation (out == in) is allowed.
// ---------------------------------------------------------------------

/** First-order low-pass smoother. */
struct OnePoleSmoother
{
    double alpha; ///< blend factor per sample, 1/(1+tau)
    double prev;  ///< carried output

    constexpr double sample(double target)
    {
        return onePoleSample(prev, target, alpha);
    }
};

/**
 * The current model's fused one-pole + slew chain (shared prev;
 * tau <= 0 / slew <= 0 disable their stage). This is the stateful
 * form of smoothSlewSample(); power::CurrentModel::BlockCursor
 * delegates to the same free function.
 */
struct SmoothSlew
{
    double tau;   ///< one-pole time constant (> 0 enables)
    double alpha; ///< 1/(1+tau), precomputed by the owner
    double slew;  ///< max |step| (> 0 enables)
    double prev;  ///< the ONE carried value both stages reference

    constexpr double sample(double target)
    {
        return smoothSlewSample(prev, target, tau, alpha, slew);
    }
};

/**
 * K SmoothSlew chains advanced in lockstep, their outputs summed in
 * chain order onto a 0.0 seed — the per-cycle chip-current total of
 * System::tickBlock for K cores. K is a compile-time constant so the
 * inner loop unrolls and the K carried chains overlap in the
 * out-of-order window (running the chains one whole block after the
 * other would serialize their latency chains — do not "simplify" to
 * K separate sample loops).
 */
template <std::size_t K>
constexpr void
processSumColumns(SmoothSlew (&chains)[K], const double *const (&in)[K],
                  double *out, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        double total = 0.0;
        for (std::size_t k = 0; k < K; ++k)
            total += chains[k].sample(in[k][j]);
        out[j] = total;
    }
}

/** Triangle VRM ripple source (pure function of t — no carried
 *  state, so callers may cache evaluations across samples). */
struct RippleOscillator
{
    double amp;    ///< one-sided amplitude in volts (0 disables)
    double period; ///< switching period in seconds (> 0)

    double at(double t) const
    {
        return triangleRippleSample(t, period, amp);
    }

    /** Trapezoidal average of the step endpoints onto vdd. The
     *  amp == 0 short-circuit is exact: vdd + 0.5*(±0 + ±0) == vdd
     *  bitwise. */
    double vddEff(double vdd, double t, double dt) const
    {
        return amp == 0.0 ? vdd : vdd + 0.5 * (at(t) + at(t + dt));
    }
};

} // namespace vsmooth::dsp

#endif // VSMOOTH_DSP_PRIMITIVES_HH
