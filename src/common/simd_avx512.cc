/**
 * @file
 * AVX-512 (width-8) instantiation of every kernel: the vector wrapper
 * VecAvx512 and its kernelSetFor<VecAvx512>() registration. The TU
 * is built for AVX512F alone (which implies AVX2) and
 * detectHostLevel() gates on that one feature bit, so no form that
 * needs AVX512DQ or AVX512VL may appear here.
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
 * This is the only translation unit compiled with -mavx512f;
 * everything here must stay intrinsics-only (no inline
 * functions from shared headers get *instantiated* elsewhere that
 * could be comdat-merged into baseline objects with EVEX encodings).
 * FMA is never enabled: the flags do not include -mfma and the build
 * adds -ffp-contract=off as belt-and-braces, so every multiply and
 * add rounds separately exactly like the scalar pipeline.
 */

#include "simd_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)

// GCC 12's own avx512fintrin.h self-initialises a local (`__Y`) in
// its reduction helpers and then warns about it wherever they are
// inlined; the pragmas silence only diagnostics located in the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

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

    static __mmask8 firstLanes(std::size_t m)
    {
        return static_cast<__mmask8>((1u << m) - 1);
    }
    /** The first m < width elements; the rest read as 0.0, and
     *  nothing past p[m - 1] is touched. */
    static VecAvx512 loadN(const double *p, std::size_t m)
    {
        return {_mm512_maskz_loadu_pd(firstLanes(m), p)};
    }
    static void storeN(double *p, VecAvx512 a, std::size_t m)
    {
        _mm512_mask_storeu_pd(p, firstLanes(m), a.v);
    }
    /** p[l] where bit l of `bits` is set, else fill's lane (nothing is
     *  read in unselected lanes). */
    static VecAvx512 loadMasked(const double *p, unsigned bits,
                                VecAvx512 fill)
    {
        return {_mm512_mask_loadu_pd(fill.v, static_cast<__mmask8>(bits),
                                     p)};
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

    static unsigned ltBits(VecAvx512 a, VecAvx512 b)
    {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
    }
    static unsigned geBits(VecAvx512 a, VecAvx512 b)
    {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ);
    }
    static unsigned ngtBits(VecAvx512 a, VecAvx512 b)
    {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_NGT_UQ);
    }

    static double reduceMin(VecAvx512 a)
    {
        return _mm512_reduce_min_pd(a.v);
    }

    static VecAvx512 floorNonNeg(VecAvx512 a)
    {
        return {_mm512_roundscale_pd(
            a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
    }

    /** Truncating conversion clamped to `last`, lanes 0..m-1 (the
     *  partial store is AVX2's, as the masked 256-bit store needs
     *  VL). */
    static void storeBins(std::uint32_t *p, VecAvx512 a,
                          std::uint32_t last, std::size_t m)
    {
        const __m256i bins =
            _mm256_min_epu32(_mm512_cvttpd_epi32(a.v),
                             _mm256_set1_epi32(static_cast<int>(last)));
        if (m == width) {
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), bins);
        } else {
            const __m256i lanes = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(m)),
                _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
            _mm256_maskstore_epi32(reinterpret_cast<int *>(p), lanes,
                                   bins);
        }
    }
};

} // namespace

const KernelSet kAvx512Kernels = kernelSetFor<VecAvx512>();

} // namespace vsmooth::simd

#else // !x86-64

namespace vsmooth::simd {

// Non-x86 hosts never dispatch above Scalar; keep the symbol defined.
const KernelSet kAvx512Kernels = {};

} // namespace vsmooth::simd

#endif
