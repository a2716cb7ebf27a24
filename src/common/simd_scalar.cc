/**
 * @file
 * Scalar (width-1) instantiation of every kernel. This is the
 * portable reference every wider level must match bit-for-bit; the
 * lane step's interleaved per-slot chains still buy instruction-level
 * parallelism on the carried recurrences even without vector
 * registers.
 */

#include <cmath>
#include <cstdint>

#include "simd_kernels.hh"

namespace vsmooth::simd {
namespace {

struct VecScalar
{
    static constexpr std::size_t width = 1;
    /** Masks are just vectors up to AVX2 (1.0 / 0.0 here). */
    using Mask = VecScalar;

    double v;

    static VecScalar set1(double x) { return {x}; }
    static VecScalar load(const double *p) { return {*p}; }
    static void store(double *p, VecScalar a) { *p = a.v; }
    /** A width-1 vector has no ragged tail; these exist for the
     *  templates' (never taken) tail branches. */
    static VecScalar loadN(const double *p, std::size_t) { return {*p}; }
    static void storeN(double *p, VecScalar a, std::size_t) { *p = a.v; }

    /** Samples j..j+width-1 of the lane streams, transposed so
     *  out[k] holds sample j+k across lanes. */
    static void gatherT(const double *const *p, std::size_t j,
                        VecScalar *out)
    {
        out[0].v = p[0][j];
    }
    static void scatterT(double *const *p, std::size_t j,
                         const VecScalar *in)
    {
        p[0][j] = in[0].v;
    }

    friend VecScalar operator+(VecScalar a, VecScalar b)
    {
        return {a.v + b.v};
    }
    friend VecScalar operator-(VecScalar a, VecScalar b)
    {
        return {a.v - b.v};
    }
    friend VecScalar operator*(VecScalar a, VecScalar b)
    {
        return {a.v * b.v};
    }
    friend VecScalar operator/(VecScalar a, VecScalar b)
    {
        return {a.v / b.v};
    }

    static VecScalar min(VecScalar a, VecScalar b)
    {
        // minpd/maxpd semantics: the second operand is returned on
        // equality. Equal finite doubles are the same bits, and the
        // kernel's clamp guards slew > 0, so ±0 never reaches the
        // equal case — every level returns identical bits.
        return {a.v < b.v ? a.v : b.v};
    }
    static VecScalar max(VecScalar a, VecScalar b)
    {
        return {a.v > b.v ? a.v : b.v};
    }

    static VecScalar gtMask(VecScalar a, VecScalar b)
    {
        return {a.v > b.v ? 1.0 : 0.0};
    }
    static VecScalar ltMask(VecScalar a, VecScalar b)
    {
        return {a.v < b.v ? 1.0 : 0.0};
    }
    /** Select b where the mask is set, else a. */
    static VecScalar blend(VecScalar a, VecScalar b, VecScalar mask)
    {
        return {mask.v != 0.0 ? b.v : a.v};
    }

    static unsigned ltBits(VecScalar a, VecScalar b) { return a.v < b.v; }
    static unsigned geBits(VecScalar a, VecScalar b) { return a.v >= b.v; }
    static unsigned ngtBits(VecScalar a, VecScalar b)
    {
        return !(a.v > b.v);
    }

    static double reduceMin(VecScalar a) { return a.v; }

    static VecScalar floorNonNeg(VecScalar a)
    {
        return {std::floor(a.v)};
    }

    /** cvttpd + pminud without the undefined behaviour of casting an
     *  out-of-range double: the value is clamped into [0, last] first,
     *  so NaN and values at or above `last` give `last`. */
    static void storeBins(std::uint32_t *p, VecScalar a,
                          std::uint32_t last, std::size_t)
    {
        const double top = last;
        const double v = a.v < top ? a.v : top;
        *p = static_cast<std::uint32_t>(v > 0.0 ? v : 0.0);
    }
};

} // namespace

const KernelSet kScalarKernels = kernelSetFor<VecScalar>();

} // namespace vsmooth::simd
