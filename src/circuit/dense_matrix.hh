/**
 * @file
 * Small dense matrix with LU factorization, templated over the scalar
 * type so the same code serves transient analysis (double) and AC
 * analysis (std::complex<double>).
 *
 * MNA systems for power-delivery networks have a few dozen unknowns at
 * most, so a dense partial-pivot LU is both simpler and faster than a
 * sparse solver at this scale.
 */

#ifndef VSMOOTH_CIRCUIT_DENSE_MATRIX_HH
#define VSMOOTH_CIRCUIT_DENSE_MATRIX_HH

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace vsmooth::circuit {

/** Magnitude helper that works for both real and complex scalars. */
inline double scalarAbs(double x) { return std::abs(x); }
inline double scalarAbs(const std::complex<double> &x) { return std::abs(x); }

/**
 * Row-major dense square-capable matrix with in-place LU and solve.
 *
 * @tparam T scalar type (double or std::complex<double>)
 */
template <typename T>
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    /** rows x cols zero matrix. */
    DenseMatrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{})
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    T &operator()(std::size_t r, std::size_t c)
    { return data_[r * cols_ + c]; }
    const T &operator()(std::size_t r, std::size_t c) const
    { return data_[r * cols_ + c]; }

    /**
     * Factor this (square) matrix in place as P*A = L*U with partial
     * pivoting. Returns false if the matrix is numerically singular.
     */
    bool
    luFactor()
    {
        if (rows_ != cols_)
            panic("luFactor on non-square matrix (%zux%zu)", rows_, cols_);
        const std::size_t n = rows_;
        perm_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            perm_[i] = i;

        for (std::size_t k = 0; k < n; ++k) {
            // Partial pivot: find the largest magnitude in column k.
            std::size_t pivot = k;
            double best = scalarAbs((*this)(k, k));
            for (std::size_t r = k + 1; r < n; ++r) {
                const double mag = scalarAbs((*this)(r, k));
                if (mag > best) {
                    best = mag;
                    pivot = r;
                }
            }
            if (best < 1e-300)
                return false;
            if (pivot != k) {
                for (std::size_t c = 0; c < n; ++c)
                    std::swap((*this)(k, c), (*this)(pivot, c));
                std::swap(perm_[k], perm_[pivot]);
            }
            const T inv_diag = T{1.0} / (*this)(k, k);
            for (std::size_t r = k + 1; r < n; ++r) {
                const T factor = (*this)(r, k) * inv_diag;
                (*this)(r, k) = factor;
                if (factor == T{})
                    continue;
                for (std::size_t c = k + 1; c < n; ++c)
                    (*this)(r, c) -= factor * (*this)(k, c);
            }
        }
        factored_ = true;
        return true;
    }

    /**
     * Solve A*x = b using a previously computed LU factorization.
     * @param b right-hand side (size n); untouched
     * @param x solution output (resized to n)
     */
    void
    solve(const std::vector<T> &b, std::vector<T> &x) const
    {
        if (!factored_)
            panic("DenseMatrix::solve called before luFactor");
        const std::size_t n = rows_;
        if (b.size() != n)
            panic("DenseMatrix::solve: rhs size %zu != %zu", b.size(), n);
        x.resize(n);
        // Forward substitution with permutation (L has unit diagonal).
        for (std::size_t r = 0; r < n; ++r) {
            T sum = b[perm_[r]];
            for (std::size_t c = 0; c < r; ++c)
                sum -= (*this)(r, c) * x[c];
            x[r] = sum;
        }
        // Back substitution.
        for (std::size_t ri = n; ri-- > 0;) {
            T sum = x[ri];
            for (std::size_t c = ri + 1; c < n; ++c)
                sum -= (*this)(ri, c) * x[c];
            x[ri] = sum / (*this)(ri, ri);
        }
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
    std::vector<std::size_t> perm_;
    bool factored_ = false;
};

} // namespace vsmooth::circuit

#endif // VSMOOTH_CIRCUIT_DENSE_MATRIX_HH
