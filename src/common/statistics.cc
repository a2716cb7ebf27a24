#include "statistics.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace vsmooth {

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
percentileOfSorted(std::span<const double> sorted, double p)
{
    if (sorted.empty())
        panic("percentile of an empty sample");
    if (p < 0.0 || p > 100.0)
        panic("percentile p=%g outside [0,100]", p);
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    if (xs.size() != ys.size())
        panic("pearson: size mismatch (%zu vs %zu)", xs.size(), ys.size());
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

BoxplotSummary
boxplot(std::span<const double> xs)
{
    if (xs.empty())
        panic("boxplot of an empty sample");
    // Sort once and reuse for all five quantiles: Fig 17 pays this
    // per benchmark over every co-schedule.
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    BoxplotSummary s;
    s.min = percentileOfSorted(sorted, 0.0);
    s.q1 = percentileOfSorted(sorted, 25.0);
    s.median = percentileOfSorted(sorted, 50.0);
    s.q3 = percentileOfSorted(sorted, 75.0);
    s.max = percentileOfSorted(sorted, 100.0);
    s.mean = mean(xs);
    return s;
}

} // namespace vsmooth
