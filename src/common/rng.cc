#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace vsmooth {

namespace {

/** splitmix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        panic("uniformInt: lo (%llu) > hi (%llu)",
              (unsigned long long)lo, (unsigned long long)hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full range
        return (*this)();
    // Rejection-free Lemire-style bounded sample is overkill here;
    // simple modulo bias is negligible for our span sizes, but avoid
    // it anyway via rejection for correctness.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v;
    do {
        v = (*this)();
    } while (v >= limit);
    return lo + v % span;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        panic("exponential: rate must be positive (got %g)", rate);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p, double logq)
{
    if (p <= 0.0)
        return ~std::uint64_t(0); // effectively never
    if (p >= 1.0)
        return 1;
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    const double k = std::ceil(std::log(u) / logq);
    return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

} // namespace vsmooth
