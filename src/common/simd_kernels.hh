/**
 * @file
 * The lane-step kernel, templated over a vector type V so the scalar,
 * AVX2, and AVX-512 translation units instantiate identical source.
 * V supplies elementwise IEEE double operations only (no FMA, no
 * reductions), so each lane of the vector performs exactly the
 * scalar pipeline's operations in the same order — the whole
 * bit-identity argument rests on that (DESIGN.md "Scenario-lane
 * execution"). Comparisons produce V::Mask (the vector type itself up
 * to AVX2, a mask register wrapper on AVX-512) consumed only by
 * V::blend.
 *
 * The per-cycle arithmetic itself lives in dsp/lane_kernels.hh — the
 * cross-lane forms of the same primitives the scalar hot paths
 * delegate to (dsp/primitives.hh) — so this file is composition and
 * data movement only: slot packing, the chip-total accumulation, the
 * ripple cache, and the gatherT/scatterT block transposes.
 *
 * Private to the simd_*.cc translation units; include simd.hh for the
 * public dispatch interface.
 */

#ifndef VSMOOTH_COMMON_SIMD_KERNELS_HH
#define VSMOOTH_COMMON_SIMD_KERNELS_HH

#include <cstddef>

#include "dsp/lane_kernels.hh"
#include "simd.hh"

namespace vsmooth::simd {

// Per-level kernel registries, defined one per translation unit (the
// extern declarations give the const objects external linkage).
extern const KernelSet kScalarKernels;
extern const KernelSet kAvx2Kernels;
extern const KernelSet kAvx512Kernels;

/**
 * n cycles of the fused per-cycle pipeline across all lanes:
 *
 *   target = steady[core][cycle]                (precomputed input)
 *   if (tau > 0)  target = prev + alpha * (target - prev)
 *   if (slew > 0) target = prev + clamp(target - prev, -slew, slew)
 *   total = sum over cores (seeded 0.0, core order)
 *   vddEff = vdd + 0.5 * (ripple(t) + ripple(t + dt))
 *   iL' = (m00*iL + m01*vC) + (n00*vddEff + n01*total)
 *   vC' = (m10*iL + m11*vC) + (n10*vddEff + n11*total)
 *   vDie = vC' + rc * (iL' - total)
 *   deviation = vDie * invVdd - 1.0
 *
 * The smoothing/slew chain, triangle ripple, and PDN recurrence are
 * the dsp lane kernels (dsp::LaneSmoothSlew / dsp::LaneRipple /
 * dsp::LaneBiquad); their headers state the blend-vs-branch and
 * short-circuit equivalences per primitive. ripple(t) is a pure
 * function of the t bits and t advances identically on both paths,
 * so this cycle's ripple(t) is last cycle's cached ripple(t + dt) —
 * one division per cycle instead of two.
 */
template <class V>
void
laneStepKernel(LaneStepArgs &a)
{
    constexpr std::size_t kW = V::width;
    constexpr std::size_t kMaxSlots = kMaxLanes;
    const std::size_t slots = a.stride / kW;
    const std::size_t cores = a.cores;

    const V half = V::set1(0.5);
    const V one = V::set1(1.0);
    const V three = V::set1(3.0);
    const V four = V::set1(4.0);
    const V zero = V::set1(0.0);

    dsp::LaneSmoothSlew<V> smooth[kMaxSlots];
    dsp::LaneRipple<V> ripple[kMaxSlots];
    dsp::LaneBiquad<V> biquad[kMaxSlots];
    V prevV[kMaxLaneCores][kMaxSlots];
    V vddV[kMaxSlots], dtV[kMaxSlots];
    V iLV[kMaxSlots], vCV[kMaxSlots], vDieV[kMaxSlots], tV[kMaxSlots];
    V rPrev[kMaxSlots];

    for (std::size_t s = 0; s < slots; ++s) {
        const std::size_t l = s * kW;
        smooth[s] = dsp::LaneSmoothSlew<V>::make(
            V::load(a.tau + l), V::load(a.alpha + l),
            V::load(a.slew + l), zero);
        for (std::size_t c = 0; c < cores; ++c)
            prevV[c][s] = V::load(a.prev[c] + l);
        biquad[s] = {V::load(a.m00 + l),    V::load(a.m01 + l),
                     V::load(a.m10 + l),    V::load(a.m11 + l),
                     V::load(a.n00 + l),    V::load(a.n01 + l),
                     V::load(a.n10 + l),    V::load(a.n11 + l),
                     V::load(a.rcDamp + l), V::load(a.invVdd + l)};
        vddV[s] = V::load(a.vdd + l);
        dtV[s] = V::load(a.dtStep + l);
        ripple[s] = {V::load(a.rippleAmp + l),
                     V::load(a.ripplePeriod + l)};
        iLV[s] = V::load(a.iL + l);
        vCV[s] = V::load(a.vC + l);
        vDieV[s] = V::load(a.vDie + l);
        tV[s] = V::load(a.tTime + l);
        rPrev[s] = ripple[s].at(tV[s], one, three, four, half);
    }

    // One cycle of one slot: the steady targets for all cores arrive
    // cross-lane-assembled in in[c * inStride]; returns (total,
    // deviation) for the cycle. This is the entire per-cycle
    // composition — both the batched loop and the tail call it, so
    // the operations and their order are identical regardless of
    // which data-movement path fed them.
    struct SlotOut
    {
        V total, dev;
    };
    auto cycleSlot = [&](std::size_t s, const V *in,
                         std::size_t inStride) {
        // Chip total accumulates from a 0.0 seed in core order,
        // matching the scalar loop's summation exactly.
        V total = zero;
        for (std::size_t c = 0; c < cores; ++c)
            total = total + smooth[s].sample(in[c * inStride],
                                             prevV[c][s]);

        const V tNext = tV[s] + dtV[s];
        const V rNext = ripple[s].at(tNext, one, three, four, half);
        const V vddEff = vddV[s] + half * (rPrev[s] + rNext);
        const V dev = biquad[s].sample(iLV[s], vCV[s], vDieV[s], vddEff,
                                       total, one);
        tV[s] = tNext;
        rPrev[s] = rNext;
        return SlotOut{total, dev};
    };

    // Batched body: kW cycles at a time, cross-lane assembly done as
    // register transposes (gatherT/scatterT) so each block of kW
    // samples costs one sequential load/store per lane stream instead
    // of kW element gathers. Pure data movement — per-lane bits are
    // the scalar pipeline's exactly.
    std::size_t j = 0;
    V stIn[kMaxLaneCores][kMaxLanes];
    V outBuf[2][kMaxLanes];
    for (; j + kW <= a.n; j += kW) {
        for (std::size_t s = 0; s < slots; ++s) {
            const std::size_t lane0 = s * kW;
            for (std::size_t c = 0; c < cores; ++c)
                V::gatherT(a.steady[c] + lane0, j, stIn[c] + lane0);
        }
        for (std::size_t k = 0; k < kW; ++k) {
            for (std::size_t s = 0; s < slots; ++s) {
                const SlotOut out =
                    cycleSlot(s, &stIn[0][s * kW + k], kMaxLanes);
                outBuf[0][s * kW + k] = out.total;
                outBuf[1][s * kW + k] = out.dev;
            }
        }
        for (std::size_t s = 0; s < slots; ++s) {
            const std::size_t lane0 = s * kW;
            V::scatterT(a.total + lane0, j, outBuf[0] + lane0);
            V::scatterT(a.deviation + lane0, j, outBuf[1] + lane0);
        }
    }
    // Tail: per-cycle element gathers for n not divisible by kW.
    for (; j < a.n; ++j) {
        for (std::size_t s = 0; s < slots; ++s) {
            const std::size_t lane0 = s * kW;
            V tail[kMaxLaneCores];
            for (std::size_t c = 0; c < cores; ++c)
                tail[c] = V::gather(a.steady[c] + lane0, j);
            const SlotOut out = cycleSlot(s, tail, 1);
            V::scatter(a.total + lane0, j, out.total);
            V::scatter(a.deviation + lane0, j, out.dev);
        }
    }

    for (std::size_t s = 0; s < slots; ++s) {
        const std::size_t l = s * kW;
        for (std::size_t c = 0; c < cores; ++c)
            V::store(a.prev[c] + l, prevV[c][s]);
        V::store(a.iL + l, iLV[s]);
        V::store(a.vC + l, vCV[s]);
        V::store(a.vDie + l, vDieV[s]);
        V::store(a.tTime + l, tV[s]);
    }
}

} // namespace vsmooth::simd

#endif // VSMOOTH_COMMON_SIMD_KERNELS_HH
