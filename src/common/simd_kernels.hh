/**
 * @file
 * Every SIMD kernel — the lane step, the steady-current map, histogram
 * bin classification, and the droop-detector word masks and masked
 * minimum — templated over a vector type V so the scalar, AVX2, and
 * AVX-512 translation units instantiate identical source. V's
 * arithmetic is elementwise IEEE double operations only (no FMA), so
 * each lane performs exactly the scalar pipeline's operations in the
 * same order — the whole bit-identity argument rests on that
 * (DESIGN.md "Scenario-lane execution"). Comparisons produce V::Mask
 * (the vector type itself up to AVX2, a mask register wrapper on
 * AVX-512) consumed only by V::blend, or a lane bitmask
 * (ltBits/geBits/ngtBits: bit l is lane l). The helper kernels also
 * use loadN/storeN (a ragged tail of m < width elements; nothing past
 * it is read or written), loadMasked, reduceMin and storeBins.
 *
 * The lane step's per-cycle arithmetic lives in dsp/lane_kernels.hh —
 * the cross-lane forms of the primitives the scalar hot paths delegate
 * to (dsp/primitives.hh) — so the lane step here is composition and
 * data movement only: slot packing, the chip-total accumulation, the
 * ripple cache, and the gatherT/scatterT block transposes.
 *
 * Private to the simd_*.cc translation units; include simd.hh for the
 * public dispatch interface. Keep it templates-only, calling no
 * standard-library function that could be instantiated here as an
 * AVX-encoded comdat.
 */

#ifndef VSMOOTH_COMMON_SIMD_KERNELS_HH
#define VSMOOTH_COMMON_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

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

    // Batched body: kW cycles at a time, cross-lane assembly done as
    // register transposes (gatherT/scatterT) so each block of kW
    // samples costs one sequential load/store per lane stream instead
    // of kW element gathers. Pure data movement — per-lane bits are
    // the scalar pipeline's exactly. Only the first m cycles of the
    // block are stepped (m < kW for the tail below).
    V stIn[kMaxLaneCores][kMaxLanes];
    V outBuf[2][kMaxLanes] = {};
    auto block = [&](const decltype(a.steady) &inCols,
                     const decltype(a.total) &totalCols,
                     const decltype(a.deviation) &devCols, std::size_t j,
                     std::size_t m) {
        for (std::size_t s = 0; s < slots; ++s) {
            const std::size_t lane0 = s * kW;
            for (std::size_t c = 0; c < cores; ++c)
                V::gatherT(inCols[c] + lane0, j, stIn[c] + lane0);
        }
        for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t s = 0; s < slots; ++s) {
                // Chip total accumulates from a 0.0 seed in core
                // order, matching the scalar loop's summation exactly.
                const std::size_t col = s * kW + k;
                V total = zero;
                for (std::size_t c = 0; c < cores; ++c)
                    total = total + smooth[s].sample(stIn[c][col],
                                                     prevV[c][s]);
                const V tNext = tV[s] + dtV[s];
                const V rNext = ripple[s].at(tNext, one, three, four, half);
                const V vddEff = vddV[s] + half * (rPrev[s] + rNext);
                outBuf[0][col] = total;
                outBuf[1][col] = biquad[s].sample(iLV[s], vCV[s], vDieV[s],
                                                  vddEff, total, one);
                tV[s] = tNext;
                rPrev[s] = rNext;
            }
        }
        for (std::size_t s = 0; s < slots; ++s) {
            const std::size_t lane0 = s * kW;
            V::scatterT(totalCols + lane0, j, outBuf[0] + lane0);
            V::scatterT(devCols + lane0, j, outBuf[1] + lane0);
        }
    };
    std::size_t j = 0;
    for (; j + kW <= a.n; j += kW)
        block(a.steady, a.total, a.deviation, j, kW);

    // Tail: the last m = n % kW cycles run through the same block on
    // zero-padded copies of each stream's remaining samples, and only
    // their m outputs are copied back.
    if (const std::size_t m = a.n - j) {
        double inTile[kMaxLaneCores][kMaxLanes][kW];
        double outTile[2][kMaxLanes][kW];
        const double *in[kMaxLaneCores][kMaxLanes];
        double *out[2][kMaxLanes];
        for (std::size_t l = 0; l < a.stride; ++l) {
            for (std::size_t c = 0; c < cores; ++c) {
                for (std::size_t k = 0; k < kW; ++k)
                    inTile[c][l][k] = k < m ? a.steady[c][l][j + k] : 0.0;
                in[c][l] = inTile[c][l];
            }
            out[0][l] = outTile[0][l];
            out[1][l] = outTile[1][l];
        }
        block(in, out[0], out[1], 0, m);
        for (std::size_t l = 0; l < a.stride; ++l) {
            for (std::size_t k = 0; k < m; ++k) {
                a.total[l][j + k] = outTile[0][l][k];
                a.deviation[l][j + k] = outTile[1][l][k];
            }
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

/** simd::SteadyFn: dsp::activityToCurrentSample's operations, in its
 *  order, on every element. */
template <class V>
void
steadyKernel(double leak, double idleClk, double dynMax,
             const double *activity, double *steady, std::size_t n)
{
    constexpr std::size_t kW = V::width;
    const V zero = V::set1(0.0);
    const V ceiling = V::set1(2.5);
    const V one = V::set1(1.0);
    const V quarter = V::set1(0.25);
    const V threeQ = V::set1(0.75);
    const V vLeak = V::set1(leak);
    const V vIdle = V::set1(idleClk);
    const V vDyn = V::set1(dynMax);
    auto map = [&](V a) {
        a = V::min(V::max(a, zero), ceiling);
        const V clock = vIdle * (quarter + threeQ * V::min(a, one));
        return (vLeak + clock) + vDyn * a;
    };
    std::size_t j = 0;
    for (; j + kW <= n; j += kW)
        V::store(steady + j, map(V::load(activity + j)));
    if (j < n)
        V::storeN(steady + j, map(V::loadN(activity + j, n - j)), n - j);
}

/** simd::BinIndexFn: every lane gets add()'s clamped bin index, then
 *  the out-of-range lanes (rare for the voltage-deviation histograms)
 *  are patched to the sentinels from the comparison bits. */
template <class V>
void
binIndexKernel(const double *xs, std::size_t n, double lo, double hi,
               double invWidth, std::uint32_t last, std::uint32_t *idx)
{
    constexpr std::size_t kW = V::width;
    const V vLo = V::set1(lo);
    const V vHi = V::set1(hi);
    const V vInv = V::set1(invWidth);
    auto classify = [&](V x, std::uint32_t *out, std::size_t m) {
        V::storeBins(out, (x - vLo) * vInv, last, m);
        const unsigned live = m == kW ? ~0u : (1u << m) - 1;
        const unsigned under = V::ltBits(x, vLo) & live;
        const unsigned over = V::geBits(x, vHi) & live;
        for (unsigned bits = under | over; bits; bits &= bits - 1) {
            const int l = __builtin_ctz(bits);
            out[l] = (under >> l) & 1u ? kBinUnderflow : kBinOverflow;
        }
    };
    std::size_t j = 0;
    for (; j + kW <= n; j += kW)
        classify(V::load(xs + j), idx + j, kW);
    if (j < n)
        classify(V::loadN(xs + j, n - j), idx + j, n - j);
}

/** simd::DetectMasksFn: the word's vectors are loaded once, then each
 *  detector costs one compare pair per vector, whose lane bits, in
 *  order, are its 64-bit masks. */
template <class V>
void
detectMasksKernel(const double *xs, std::size_t n,
                  const double *thresholds, const double *releases,
                  std::size_t count, std::uint64_t *enter,
                  std::uint64_t *keep)
{
    constexpr std::size_t kW = V::width;
    constexpr std::size_t kVecs = kWordSamples / kW;
    V x[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
        const std::size_t first = v * kW;
        x[v] = first + kW <= n ? V::load(xs + first)
             : first < n      ? V::loadN(xs + first, n - first)
                              : V::set1(0.0);
    }
    const std::uint64_t live = n == kWordSamples
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << n) - 1;
    for (std::size_t i = 0; i < count; ++i) {
        const V t = V::set1(thresholds[i]);
        const V r = V::set1(releases[i]);
        std::uint64_t e = 0;
        std::uint64_t k = 0;
        for (std::size_t v = 0; v < kVecs; ++v) {
            e |= std::uint64_t{V::ltBits(x[v], t)} << (v * kW);
            k |= std::uint64_t{V::ngtBits(x[v], r)} << (v * kW);
        }
        enter[i] = e & live;
        keep[i] = k & live;
    }
}

/** simd::MaskedMinFn. min(x, acc) returns acc when x is NaN, so a NaN
 *  never wins. Vector levels run a branch-free fixed-trip loop over the
 *  word (unselected lanes load as +infinity) into two accumulators;
 *  the scalar level visits only the set bits. */
template <class V>
double
maskedMinKernel(const double *xs, std::size_t, std::uint64_t mask)
{
    constexpr std::size_t kW = V::width;
    const V inf = V::set1(__builtin_inf());
    if constexpr (kW == 1) {
        V lowest = inf;
        for (; mask; mask &= mask - 1)
            lowest = V::min(V::load(xs + __builtin_ctzll(mask)), lowest);
        return V::reduceMin(lowest);
    } else {
        constexpr std::size_t kVecs = kWordSamples / kW;
        constexpr std::uint64_t kLaneBits = (std::uint64_t{1} << kW) - 1;
        V acc[2] = {inf, inf};
        for (std::size_t v = 0; v < kVecs; ++v) {
            const auto bits =
                static_cast<unsigned>((mask >> (v * kW)) & kLaneBits);
            acc[v & 1] = V::min(V::loadMasked(xs + v * kW, bits, inf),
                                acc[v & 1]);
        }
        return V::reduceMin(V::min(acc[0], acc[1]));
    }
}

/** The complete kernel set a level registers, instantiated for V. */
template <class V>
constexpr KernelSet
kernelSetFor()
{
    return {laneStepKernel<V>, steadyKernel<V>, binIndexKernel<V>,
            detectMasksKernel<V>, maskedMinKernel<V>};
}

} // namespace vsmooth::simd

#endif // VSMOOTH_COMMON_SIMD_KERNELS_HH
