#include "perf_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace vsmooth::resilience {

double
frequencyGain(double margin, double worstCaseMargin)
{
    if (margin < 0.0 || margin > worstCaseMargin)
        fatal("frequencyGain: margin %g outside [0, %g]", margin,
              worstCaseMargin);
    return kBowmanScale * (worstCaseMargin - margin);
}

double
EmergencyProfile::countAt(double margin) const
{
    if (margins.empty() || margins.size() != counts.size())
        panic("EmergencyProfile: inconsistent profile");
    if (margin <= margins.front())
        return static_cast<double>(counts.front());

    // A finite run censors the droop-depth tail: the measured counts
    // hit zero where the sample ran out, not where the physical tail
    // ends. Fit an exponential decay to the deepest margins that
    // still have statistics and extrapolate past them, so the
    // optimal-margin search cannot exploit the truncation.
    std::size_t last = margins.size();
    for (std::size_t i = margins.size(); i-- > 0;) {
        if (counts[i] >= 3) {
            last = i;
            break;
        }
    }
    if (last == margins.size())
        return 0.0; // nothing measured anywhere
    const double tail_start = margins[last];
    if (margin > tail_start) {
        // Decay rate from the deepest well-populated decade of the
        // measured profile (fallback: 10x per 1% of margin).
        double decade = 0.01;
        for (std::size_t i = last; i-- > 0;) {
            if (counts[i] >= 10 * counts[last] && counts[i] > 0) {
                decade = (tail_start - margins[i]) /
                    (std::log10(static_cast<double>(counts[i])) -
                     std::log10(static_cast<double>(counts[last])));
                break;
            }
        }
        return static_cast<double>(counts[last]) *
            std::pow(10.0, -(margin - tail_start) / decade);
    }

    for (std::size_t i = 1; i < margins.size(); ++i) {
        if (margin <= margins[i]) {
            const double frac =
                (margin - margins[i - 1]) / (margins[i] - margins[i - 1]);
            // Counts fall off roughly exponentially with margin, so
            // interpolate in log space (with +1 to tolerate zeros).
            const double lo =
                std::log1p(static_cast<double>(counts[i - 1]));
            const double hi = std::log1p(static_cast<double>(counts[i]));
            return std::expm1(lo + frac * (hi - lo));
        }
    }
    return static_cast<double>(counts.back());
}

void
EmergencyProfile::merge(const EmergencyProfile &other)
{
    if (margins.empty()) {
        *this = other;
        return;
    }
    if (other.margins != margins)
        panic("EmergencyProfile::merge: margin sweeps differ");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    cycles += other.cycles;
}

EmergencyProfile
profileFromBank(const noise::DroopDetectorBank &bank, Cycles cycles)
{
    EmergencyProfile profile;
    profile.cycles = cycles;
    for (std::size_t i = 0; i < bank.size(); ++i) {
        profile.margins.push_back(bank.marginAt(i));
        profile.counts.push_back(bank.eventCountAt(i));
    }
    return profile;
}

double
improvementPercent(const EmergencyProfile &profile, double margin,
                   std::uint32_t recoveryCost, double worstCaseMargin)
{
    if (profile.cycles == 0)
        fatal("improvementPercent: empty profile");
    const double gain = frequencyGain(margin, worstCaseMargin);
    const double recovery_cycles =
        static_cast<double>(recoveryCost) * profile.countAt(margin);
    const double slowdown =
        1.0 + recovery_cycles / static_cast<double>(profile.cycles);
    return 100.0 * ((1.0 + gain) / slowdown - 1.0);
}

OptimalMargin
optimalMargin(const EmergencyProfile &profile, std::uint32_t recoveryCost,
              double worstCaseMargin)
{
    OptimalMargin best;
    best.margin = worstCaseMargin;
    best.improvementPercent = 0.0;
    for (double m : profile.margins) {
        if (m > worstCaseMargin)
            continue;
        const double imp =
            improvementPercent(profile, m, recoveryCost, worstCaseMargin);
        if (imp > best.improvementPercent) {
            best.margin = m;
            best.improvementPercent = imp;
        }
    }
    return best;
}

Heatmap
improvementHeatmap(const EmergencyProfile &profile,
                   const std::vector<std::uint32_t> &costs,
                   double worstCaseMargin)
{
    Heatmap map;
    map.costs = costs;
    for (double m : profile.margins) {
        if (m <= worstCaseMargin)
            map.margins.push_back(m);
    }
    for (std::uint32_t cost : costs) {
        std::vector<double> row;
        row.reserve(map.margins.size());
        for (double m : map.margins)
            row.push_back(
                improvementPercent(profile, m, cost, worstCaseMargin));
        map.improvement.push_back(std::move(row));
    }
    return map;
}

} // namespace vsmooth::resilience
