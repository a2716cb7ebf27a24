/**
 * @file
 * AVX-512 (width-8) instantiation of the lane-step kernel, plus
 * 512-bit versions of the steady-current conversion, histogram bin
 * classification and droop-detector word kernels. Requires AVX512F and AVX512DQ (DQ supplies
 * the 64-bit extract forms the scatter paths use); detectHostLevel()
 * gates on both feature bits.
 *
 * Two things differ structurally from the narrower levels:
 *
 *  - Comparisons return a k mask register (__mmask8), not a vector,
 *    so VecAvx512::Mask wraps one and blend() is
 *    _mm512_mask_blend_pd — still one compare + one blend per
 *    conditional stage, and per-lane selection bits identical to the
 *    blendv path.
 *
 *  - gatherT/scatterT move 8x8 blocks: an 8x8 register transpose in
 *    three shuffle layers (unpacklo/hi, then two rounds of
 *    _mm512_shuffle_f64x2), 8 sequential loads + 24 shuffles per
 *    block versus 64 scalar element loads.
 *
 * This is the only translation unit compiled with -mavx512f
 * -mavx512dq; everything here must stay intrinsics-only (no inline
 * functions from shared headers get *instantiated* elsewhere that
 * could be comdat-merged into baseline objects with EVEX encodings).
 * FMA is never enabled: the flags do not include -mfma and the build
 * adds -ffp-contract=off as belt-and-braces, so every multiply and
 * add rounds separately exactly like the scalar pipeline.
 */

#include "simd_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace vsmooth::simd {
namespace {

struct VecAvx512
{
    static constexpr std::size_t width = 8;

    __m512d v;

    /** AVX-512 comparisons land in k registers, not vectors. */
    struct Mask
    {
        __mmask8 k;
    };

    static VecAvx512 set1(double x) { return {_mm512_set1_pd(x)}; }
    static VecAvx512 load(const double *p)
    {
        return {_mm512_loadu_pd(p)};
    }
    static void store(double *p, VecAvx512 a)
    {
        _mm512_storeu_pd(p, a.v);
    }

    /** Sample j of each of the `width` lane streams in p[]. */
    static VecAvx512 gather(const double *const *p, std::size_t j)
    {
        return {_mm512_set_pd(p[7][j], p[6][j], p[5][j], p[4][j],
                              p[3][j], p[2][j], p[1][j], p[0][j])};
    }
    static void scatter(double *const *p, std::size_t j, VecAvx512 a)
    {
        const __m128d q0 = _mm512_extractf64x2_pd(a.v, 0);
        const __m128d q1 = _mm512_extractf64x2_pd(a.v, 1);
        const __m128d q2 = _mm512_extractf64x2_pd(a.v, 2);
        const __m128d q3 = _mm512_extractf64x2_pd(a.v, 3);
        _mm_storel_pd(p[0] + j, q0);
        _mm_storeh_pd(p[1] + j, q0);
        _mm_storel_pd(p[2] + j, q1);
        _mm_storeh_pd(p[3] + j, q1);
        _mm_storel_pd(p[4] + j, q2);
        _mm_storeh_pd(p[5] + j, q2);
        _mm_storel_pd(p[6] + j, q3);
        _mm_storeh_pd(p[7] + j, q3);
    }

    /**
     * 8x8 transpose core, shared by gatherT and scatterT (the
     * transpose is its own inverse). Layer 1 interleaves row pairs
     * within 128-bit columns; layers 2 and 3 gather 128-bit chunks
     * across rows (imm 0x88 picks chunks {0,2} of each source, 0xDD
     * picks {1,3}). out[k] holds element k of every input row.
     */
    static void transpose8(const __m512d r[8], __m512d out[8])
    {
        const __m512d t0 = _mm512_unpacklo_pd(r[0], r[1]);
        const __m512d t1 = _mm512_unpackhi_pd(r[0], r[1]);
        const __m512d t2 = _mm512_unpacklo_pd(r[2], r[3]);
        const __m512d t3 = _mm512_unpackhi_pd(r[2], r[3]);
        const __m512d t4 = _mm512_unpacklo_pd(r[4], r[5]);
        const __m512d t5 = _mm512_unpackhi_pd(r[4], r[5]);
        const __m512d t6 = _mm512_unpacklo_pd(r[6], r[7]);
        const __m512d t7 = _mm512_unpackhi_pd(r[6], r[7]);
        const __m512d s0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
        const __m512d s1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
        const __m512d s2 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
        const __m512d s3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
        const __m512d s4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
        const __m512d s5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
        const __m512d s6 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
        const __m512d s7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);
        out[0] = _mm512_shuffle_f64x2(s0, s4, 0x88);
        out[1] = _mm512_shuffle_f64x2(s1, s5, 0x88);
        out[2] = _mm512_shuffle_f64x2(s2, s6, 0x88);
        out[3] = _mm512_shuffle_f64x2(s3, s7, 0x88);
        out[4] = _mm512_shuffle_f64x2(s0, s4, 0xDD);
        out[5] = _mm512_shuffle_f64x2(s1, s5, 0xDD);
        out[6] = _mm512_shuffle_f64x2(s2, s6, 0xDD);
        out[7] = _mm512_shuffle_f64x2(s3, s7, 0xDD);
    }

    /** Samples j..j+7 of the eight lane streams as an 8x8 register
     *  transpose: out[k] holds sample j+k across lanes. */
    static void gatherT(const double *const *p, std::size_t j,
                        VecAvx512 *out)
    {
        __m512d rows[8];
        for (int l = 0; l < 8; ++l)
            rows[l] = _mm512_loadu_pd(p[l] + j);
        __m512d cols[8];
        transpose8(rows, cols);
        for (int k = 0; k < 8; ++k)
            out[k].v = cols[k];
    }
    static void scatterT(double *const *p, std::size_t j,
                         const VecAvx512 *in)
    {
        __m512d cols[8];
        for (int k = 0; k < 8; ++k)
            cols[k] = in[k].v;
        __m512d rows[8];
        transpose8(cols, rows);
        for (int l = 0; l < 8; ++l)
            _mm512_storeu_pd(p[l] + j, rows[l]);
    }

    friend VecAvx512 operator+(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_add_pd(a.v, b.v)};
    }
    friend VecAvx512 operator-(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_sub_pd(a.v, b.v)};
    }
    friend VecAvx512 operator*(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_mul_pd(a.v, b.v)};
    }
    friend VecAvx512 operator/(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_div_pd(a.v, b.v)};
    }

    static VecAvx512 min(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_min_pd(a.v, b.v)};
    }
    static VecAvx512 max(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_max_pd(a.v, b.v)};
    }

    static Mask gtMask(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
    }
    static Mask ltMask(VecAvx512 a, VecAvx512 b)
    {
        return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
    }
    /** Select b where the mask is set, else a. */
    static VecAvx512 blend(VecAvx512 a, VecAvx512 b, Mask mask)
    {
        return {_mm512_mask_blend_pd(mask.k, a.v, b.v)};
    }

    static VecAvx512 floorNonNeg(VecAvx512 a)
    {
        return {_mm512_roundscale_pd(
            a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
    }
};

void
laneStepAvx512(LaneStepArgs &args)
{
    laneStepKernel<VecAvx512>(args);
}

/**
 * CurrentModel::steadyBlock at 8-wide: the identical IEEE operations
 * in the identical order as the built-in loops, so the output bits
 * match for every element regardless of which path (or tail) produced
 * it.
 */
void
steadyAvx512(double leak, double idleClk, double dynMax,
             const double *activity, double *steady, std::size_t n)
{
    const __m512d vZero = _mm512_setzero_pd();
    const __m512d vCeil = _mm512_set1_pd(2.5);
    const __m512d vOne = _mm512_set1_pd(1.0);
    const __m512d vQuarter = _mm512_set1_pd(0.25);
    const __m512d vThreeQ = _mm512_set1_pd(0.75);
    const __m512d vLeak = _mm512_set1_pd(leak);
    const __m512d vIdle = _mm512_set1_pd(idleClk);
    const __m512d vDyn = _mm512_set1_pd(dynMax);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m512d a = _mm512_loadu_pd(activity + j);
        a = _mm512_min_pd(_mm512_max_pd(a, vZero), vCeil);
        const __m512d w = _mm512_min_pd(a, vOne);
        const __m512d clock = _mm512_mul_pd(
            vIdle, _mm512_add_pd(vQuarter, _mm512_mul_pd(vThreeQ, w)));
        const __m512d s = _mm512_add_pd(_mm512_add_pd(vLeak, clock),
                                        _mm512_mul_pd(vDyn, a));
        _mm512_storeu_pd(steady + j, s);
    }
    for (; j < n; ++j) {
        double a = activity[j];
        a = a < 0.0 ? 0.0 : a;
        a = 2.5 < a ? 2.5 : a;
        const double w = 1.0 < a ? 1.0 : a;
        const double clock_current = idleClk * (0.25 + 0.75 * w);
        steady[j] = leak + clock_current + dynMax * a;
    }
}

/**
 * Histogram bin classification at 8-wide. In-range indices use the
 * exact add() arithmetic — truncating conversion of (x - lo) *
 * invWidth, clamped to `last` — via cvttpd; out-of-range lanes (rare
 * for the voltage-deviation histograms) are patched to the sentinels
 * from the comparison k masks.
 */
void
binIndexAvx512(const double *xs, std::size_t n, double lo, double hi,
               double invWidth, std::uint32_t last, std::uint32_t *idx)
{
    const __m512d vLo = _mm512_set1_pd(lo);
    const __m512d vHi = _mm512_set1_pd(hi);
    const __m512d vInv = _mm512_set1_pd(invWidth);
    const __m256i vLast = _mm256_set1_epi32(static_cast<int>(last));
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512d x = _mm512_loadu_pd(xs + j);
        const unsigned under = _mm512_cmp_pd_mask(x, vLo, _CMP_LT_OQ);
        const unsigned over = _mm512_cmp_pd_mask(x, vHi, _CMP_GE_OQ);
        // Out-of-range lanes produce an indeterminate (not undefined)
        // cvttpd result; they are overwritten below.
        const __m256i raw = _mm512_cvttpd_epi32(
            _mm512_mul_pd(_mm512_sub_pd(x, vLo), vInv));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(idx + j),
                            _mm256_min_epu32(raw, vLast));
        if (under | over) {
            for (int l = 0; l < 8; ++l) {
                if (under & (1u << l))
                    idx[j + l] = kBinUnderflow;
                else if (over & (1u << l))
                    idx[j + l] = kBinOverflow;
            }
        }
    }
    for (; j < n; ++j) {
        const double x = xs[j];
        if (x < lo) {
            idx[j] = kBinUnderflow;
        } else if (x >= hi) {
            idx[j] = kBinOverflow;
        } else {
            const auto raw =
                static_cast<std::uint32_t>((x - lo) * invWidth);
            idx[j] = raw < last ? raw : last;
        }
    }
}

/**
 * Droop-detector word masks at 8-wide. The word's samples are loaded
 * once into eight registers (a ragged word's tail lanes by masked
 * load, so nothing past n is read); each compare lands in a k
 * register, and the eight k registers of a word, in order, are the
 * bytes of its 64-bit mask.
 */
void
detectMasksAvx512(const double *xs, std::size_t n, const double *thresholds,
                  const double *releases, std::size_t count,
                  std::uint64_t *enter, std::uint64_t *keep)
{
    __m512d x[8];
    __mmask8 live[8];
    for (std::size_t v = 0; v < 8; ++v) {
        const std::size_t first = 8 * v;
        const std::size_t left = n > first ? n - first : 0;
        live[v] = left >= 8 ? __mmask8(0xFF)
                            : static_cast<__mmask8>((1u << left) - 1);
        x[v] = _mm512_maskz_loadu_pd(live[v], xs + first);
    }
    for (std::size_t i = 0; i < count; ++i) {
        const __m512d t = _mm512_set1_pd(thresholds[i]);
        const __m512d r = _mm512_set1_pd(releases[i]);
        std::uint64_t e = 0;
        std::uint64_t k = 0;
        for (std::size_t v = 0; v < 8; ++v) {
            e |= std::uint64_t{_mm512_mask_cmp_pd_mask(live[v], x[v], t,
                                                       _CMP_LT_OQ)}
                 << (8 * v);
            k |= std::uint64_t{_mm512_mask_cmp_pd_mask(live[v], x[v], r,
                                                       _CMP_NGT_UQ)}
                 << (8 * v);
        }
        enter[i] = e;
        keep[i] = k;
    }
}

/**
 * Masked minimum at 8-wide: each byte of the mask selects lanes of a
 * masked load that fills unselected lanes with +infinity (and reads
 * nothing there). min(x, acc) returns acc when x is NaN, so a NaN
 * never wins; two accumulators halve the dependency chain.
 */
double
maskedMinAvx512(const double *xs, std::size_t, std::uint64_t mask)
{
    const __m512d inf = _mm512_set1_pd(__builtin_inf());
    __m512d acc[2] = {inf, inf};
    for (std::size_t v = 0; v < 8; ++v) {
        const auto k = static_cast<__mmask8>(mask >> (8 * v));
        const __m512d x = _mm512_mask_loadu_pd(inf, k, xs + 8 * v);
        acc[v & 1] = _mm512_min_pd(x, acc[v & 1]);
    }
    return _mm512_reduce_min_pd(_mm512_min_pd(acc[0], acc[1]));
}

} // namespace

const KernelSet kAvx512Kernels = {laneStepAvx512, steadyAvx512,
                                  binIndexAvx512, detectMasksAvx512,
                                  maskedMinAvx512};

} // namespace vsmooth::simd

#else // !x86-64

namespace vsmooth::simd {

// Non-x86 hosts never dispatch above Scalar; keep the symbol defined.
const KernelSet kAvx512Kernels = {nullptr, nullptr, nullptr, nullptr,
                                  nullptr};

} // namespace vsmooth::simd

#endif
