/** @file Tests for the typical-case design performance model. */

#include <gtest/gtest.h>

#include <cmath>

#include "resilience/perf_model.hh"
#include "sim/calibration.hh"

using namespace vsmooth;
using namespace vsmooth::resilience;

namespace {

/** Synthetic profile: counts fall exponentially with margin. */
EmergencyProfile
syntheticProfile(double eventsAt1pct = 1e5, double decade = 0.03)
{
    EmergencyProfile p;
    p.cycles = 10'000'000;
    for (double m = 0.01; m <= 0.14 + 1e-9; m += 0.005) {
        p.margins.push_back(m);
        p.counts.push_back(static_cast<std::uint64_t>(
            eventsAt1pct * std::pow(10.0, -(m - 0.01) / decade)));
    }
    return p;
}

} // namespace

TEST(FrequencyGain, BowmanAnchor)
{
    // Removing 10% of margin (14% -> 4%) buys 15% frequency.
    EXPECT_NEAR(frequencyGain(0.04), 0.15, 1e-12);
    EXPECT_DOUBLE_EQ(frequencyGain(0.14), 0.0);
}

TEST(FrequencyGainDeath, OutOfRange)
{
    EXPECT_EXIT(frequencyGain(0.2), ::testing::ExitedWithCode(1),
                "margin");
    EXPECT_EXIT(frequencyGain(-0.01), ::testing::ExitedWithCode(1),
                "margin");
}

TEST(EmergencyProfile, CountInterpolationMonotone)
{
    const auto p = syntheticProfile();
    double prev = p.countAt(0.01);
    for (double m = 0.012; m < 0.14; m += 0.004) {
        const double cur = p.countAt(m);
        EXPECT_LE(cur, prev + 1e-9) << "margin " << m;
        prev = cur;
    }
}

TEST(EmergencyProfile, CountClampsAtShallowEndExtrapolatesDeep)
{
    const auto p = syntheticProfile();
    EXPECT_DOUBLE_EQ(p.countAt(0.001),
                     static_cast<double>(p.counts.front()));
    // Beyond the measured range, the censored tail is extrapolated
    // with the fitted exponential decay: positive but smaller than
    // the last measured count.
    const double deep = p.countAt(0.2);
    EXPECT_GT(deep, 0.0);
    EXPECT_LT(deep, static_cast<double>(p.counts.back()) + 1.0);
}

TEST(EmergencyProfile, TailExtrapolationMonotone)
{
    const auto p = syntheticProfile();
    double prev = p.countAt(0.14);
    for (double m = 0.15; m < 0.25; m += 0.01) {
        const double cur = p.countAt(m);
        EXPECT_LE(cur, prev + 1e-9);
        prev = cur;
    }
}

TEST(EmergencyProfile, MergeAddsCountsAndCycles)
{
    auto a = syntheticProfile();
    const auto b = syntheticProfile();
    const auto c0 = a.counts[0];
    a.merge(b);
    EXPECT_EQ(a.counts[0], 2 * c0);
    EXPECT_EQ(a.cycles, 20'000'000u);
}

TEST(EmergencyProfile, MergeIntoEmptyCopies)
{
    EmergencyProfile empty;
    empty.merge(syntheticProfile());
    EXPECT_EQ(empty.margins.size(), syntheticProfile().margins.size());
}

TEST(Improvement, ZeroCostGivesPureFrequencyGain)
{
    const auto p = syntheticProfile();
    // Cost 0 is not meaningful; cost 1 with very few emergencies at a
    // deep margin approximates the pure gain.
    const double imp = improvementPercent(p, 0.14, 1);
    EXPECT_NEAR(imp, 0.0, 0.5);
}

TEST(Improvement, DeadZoneAtAggressiveMarginWithCoarseRecovery)
{
    const auto p = syntheticProfile();
    // 100k-cycle recovery at a 1% margin: recoveries swamp the gain.
    EXPECT_LT(improvementPercent(p, 0.01, 100'000), 0.0);
}

TEST(Improvement, SinglePeakBetweenExtremes)
{
    const auto p = syntheticProfile();
    const auto best = optimalMargin(p, 1000);
    EXPECT_GT(best.margin, 0.01);
    EXPECT_LT(best.margin, 0.14);
    EXPECT_GT(best.improvementPercent, 0.0);
    // Neighbors of the optimum are no better.
    EXPECT_GE(best.improvementPercent,
              improvementPercent(p, best.margin + 0.005, 1000));
    EXPECT_GE(best.improvementPercent,
              improvementPercent(p, best.margin - 0.005, 1000));
}

TEST(Improvement, FinerRecoveryAllowsTighterOptimalMargin)
{
    const auto p = syntheticProfile();
    const auto fine = optimalMargin(p, 10);
    const auto coarse = optimalMargin(p, 100'000);
    EXPECT_LE(fine.margin, coarse.margin);
    EXPECT_GE(fine.improvementPercent, coarse.improvementPercent);
}

TEST(Improvement, GainsInPaperBand)
{
    // With a realistic profile, fine recovery lands in the paper's
    // 13-21% band; improvement never exceeds the Bowman ceiling and
    // degrades monotonically toward coarse recovery.
    const auto p = syntheticProfile();
    double prev = 22.0;
    for (std::uint32_t cost : sim::recoveryCostSweep()) {
        const auto best = optimalMargin(p, cost);
        EXPECT_GE(best.improvementPercent, 0.0) << "cost " << cost;
        EXPECT_LT(best.improvementPercent, 21.5) << "cost " << cost;
        EXPECT_LE(best.improvementPercent, prev + 1e-9);
        prev = best.improvementPercent;
    }
    EXPECT_GT(optimalMargin(p, 1).improvementPercent, 10.0);
}

TEST(Heatmap, DimensionsAndContent)
{
    const auto p = syntheticProfile();
    const std::vector<std::uint32_t> costs = {10, 1000};
    const auto map = improvementHeatmap(p, costs);
    ASSERT_EQ(map.improvement.size(), 2u);
    ASSERT_EQ(map.improvement[0].size(), map.margins.size());
    // The fine-recovery row dominates the coarse row everywhere.
    for (std::size_t k = 0; k < map.margins.size(); ++k)
        EXPECT_GE(map.improvement[0][k], map.improvement[1][k]);
}

TEST(ImprovementDeath, EmptyProfile)
{
    EmergencyProfile p;
    p.margins = {0.05};
    p.counts = {10};
    p.cycles = 0;
    EXPECT_EXIT(improvementPercent(p, 0.05, 10),
                ::testing::ExitedWithCode(1), "empty");
}

/** Property: improvement is monotone decreasing in recovery cost at
 *  any fixed margin. */
class CostMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(CostMonotone, ImprovementDecreasesWithCost)
{
    const auto p = syntheticProfile();
    const double margin = GetParam();
    double prev = 1e9;
    for (std::uint32_t cost : sim::recoveryCostSweep()) {
        const double imp = improvementPercent(p, margin, cost);
        EXPECT_LE(imp, prev);
        prev = imp;
    }
}

INSTANTIATE_TEST_SUITE_P(Margins, CostMonotone,
                         ::testing::Values(0.02, 0.05, 0.08, 0.12));
