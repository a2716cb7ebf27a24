/**
 * @file
 * Deterministic pseudo-random number generation for all vsmooth
 * stochastic processes.
 *
 * Every simulator component that needs randomness takes an Rng (or a
 * seed) explicitly, so whole experiments are reproducible bit-for-bit.
 * The generator is xoshiro256++ (Blackman & Vigna), which is fast,
 * high-quality, and trivially seedable via splitmix64.
 */

#ifndef VSMOOTH_COMMON_RNG_HH
#define VSMOOTH_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace vsmooth {

/**
 * xoshiro256++ pseudo-random generator with distribution helpers.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be
 * used with <random> distributions if ever needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /**
     * Next raw 64-bit value. Inline: the core models draw uniforms on
     * every running cycle, so the xoshiro step belongs in their loop.
     */
    result_type operator()()
    {
        const std::uint64_t result =
            rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> double in [0, 1).
        return ((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential variate with given rate (mean 1/rate). */
    double exponential(double rate);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Geometric inter-arrival sample: number of trials until the first
     * success for per-trial probability p (>= 1). Used for event
     * processes like "next cache miss in k cycles". The caller
     * supplies logq = std::log1p(-p): event processes draw
     * inter-arrivals repeatedly at a rate that only changes with the
     * workload phase, so hoisting the constant log halves the libm
     * cost per draw.
     */
    std::uint64_t geometric(double p, double logq);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace vsmooth

#endif // VSMOOTH_COMMON_RNG_HH
