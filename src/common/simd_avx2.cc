/**
 * @file
 * AVX2 (width-4) instantiation of every kernel: the vector wrapper
 * VecAvx2 and its kernelSetFor<VecAvx2>() registration.
 *
 * This is the only translation unit compiled with -mavx2; everything
 * here must stay intrinsics-only (no inline functions from shared
 * headers get *instantiated* here that could be comdat-merged into
 * baseline objects with AVX encodings). FMA is never enabled: -mavx2
 * does not imply -mfma, and the build adds -ffp-contract=off as
 * belt-and-braces, so every multiply and add rounds separately exactly
 * like the scalar pipeline.
 */

#include "simd_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace vsmooth::simd {
namespace {

struct VecAvx2
{
    static constexpr std::size_t width = 4;
    /** Masks are all-ones/all-zeros vectors, fed to blendv. */
    using Mask = VecAvx2;

    __m256d v;

    static VecAvx2 set1(double x) { return {_mm256_set1_pd(x)}; }
    static VecAvx2 load(const double *p) { return {_mm256_loadu_pd(p)}; }
    static void store(double *p, VecAvx2 a) { _mm256_storeu_pd(p, a.v); }

    /** Lanes 0..m-1 of a 64-bit lane mask set. */
    static __m256i firstLanes(std::size_t m)
    {
        return _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(static_cast<long long>(m)),
            _mm256_set_epi64x(3, 2, 1, 0));
    }
    /** The first m < width elements; the rest read as 0.0, and
     *  nothing past p[m - 1] is touched. */
    static VecAvx2 loadN(const double *p, std::size_t m)
    {
        return {_mm256_maskload_pd(p, firstLanes(m))};
    }
    static void storeN(double *p, VecAvx2 a, std::size_t m)
    {
        _mm256_maskstore_pd(p, firstLanes(m), a.v);
    }
    /** p[l] where bit l of `bits` is set, else fill's lane (nothing is
     *  read in unselected lanes). */
    static VecAvx2 loadMasked(const double *p, unsigned bits, VecAvx2 fill)
    {
        const __m256i laneBit = _mm256_set_epi64x(8, 4, 2, 1);
        const __m256i lanes = _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(bits), laneBit), laneBit);
        return {_mm256_blendv_pd(fill.v, _mm256_maskload_pd(p, lanes),
                                 _mm256_castsi256_pd(lanes))};
    }

    /** Samples j..j+3 of the four lane streams as a 4x4 register
     *  transpose (4 loads + 8 shuffles, vs 16 scalar element loads):
     *  out[k] holds sample j+k across lanes. */
    static void gatherT(const double *const *p, std::size_t j,
                        VecAvx2 *out)
    {
        const __m256d r0 = _mm256_loadu_pd(p[0] + j);
        const __m256d r1 = _mm256_loadu_pd(p[1] + j);
        const __m256d r2 = _mm256_loadu_pd(p[2] + j);
        const __m256d r3 = _mm256_loadu_pd(p[3] + j);
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        out[0].v = _mm256_permute2f128_pd(t0, t2, 0x20);
        out[1].v = _mm256_permute2f128_pd(t1, t3, 0x20);
        out[2].v = _mm256_permute2f128_pd(t0, t2, 0x31);
        out[3].v = _mm256_permute2f128_pd(t1, t3, 0x31);
    }
    static void scatterT(double *const *p, std::size_t j,
                         const VecAvx2 *in)
    {
        const __m256d t0 = _mm256_unpacklo_pd(in[0].v, in[1].v);
        const __m256d t1 = _mm256_unpackhi_pd(in[0].v, in[1].v);
        const __m256d t2 = _mm256_unpacklo_pd(in[2].v, in[3].v);
        const __m256d t3 = _mm256_unpackhi_pd(in[2].v, in[3].v);
        _mm256_storeu_pd(p[0] + j, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_storeu_pd(p[1] + j, _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_storeu_pd(p[2] + j, _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_storeu_pd(p[3] + j, _mm256_permute2f128_pd(t1, t3, 0x31));
    }

    friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }

    static VecAvx2 min(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_min_pd(a.v, b.v)};
    }
    static VecAvx2 max(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_max_pd(a.v, b.v)};
    }

    static VecAvx2 gtMask(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
    }
    static VecAvx2 ltMask(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
    }
    /** Select b where the mask is set, else a. */
    static VecAvx2 blend(VecAvx2 a, VecAvx2 b, VecAvx2 mask)
    {
        return {_mm256_blendv_pd(a.v, b.v, mask.v)};
    }

    static unsigned ltBits(VecAvx2 a, VecAvx2 b)
    {
        return static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)));
    }
    static unsigned geBits(VecAvx2 a, VecAvx2 b)
    {
        return static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)));
    }
    static unsigned ngtBits(VecAvx2 a, VecAvx2 b)
    {
        return static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_NGT_UQ)));
    }

    static double reduceMin(VecAvx2 a)
    {
        __m256d m =
            _mm256_min_pd(a.v, _mm256_permute2f128_pd(a.v, a.v, 0x01));
        m = _mm256_min_pd(m, _mm256_shuffle_pd(m, m, 0x5));
        return _mm256_cvtsd_f64(m);
    }

    static VecAvx2 floorNonNeg(VecAvx2 a)
    {
        return {_mm256_floor_pd(a.v)};
    }

    /** Truncating conversion clamped to `last`, lanes 0..m-1. A lane
     *  outside int32 range converts to 0x80000000, which the unsigned
     *  min turns into `last`. */
    static void storeBins(std::uint32_t *p, VecAvx2 a, std::uint32_t last,
                          std::size_t m)
    {
        const __m128i bins =
            _mm_min_epu32(_mm256_cvttpd_epi32(a.v),
                          _mm_set1_epi32(static_cast<int>(last)));
        if (m == width) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(p), bins);
        } else {
            const __m128i lanes = _mm_cmpgt_epi32(
                _mm_set1_epi32(static_cast<int>(m)),
                _mm_set_epi32(3, 2, 1, 0));
            _mm_maskstore_epi32(reinterpret_cast<int *>(p), lanes, bins);
        }
    }
};

} // namespace

const KernelSet kAvx2Kernels = kernelSetFor<VecAvx2>();

} // namespace vsmooth::simd

#else // !x86-64

namespace vsmooth::simd {

// Non-x86 hosts never dispatch above Scalar; keep the symbol defined.
const KernelSet kAvx2Kernels = {};

} // namespace vsmooth::simd

#endif
