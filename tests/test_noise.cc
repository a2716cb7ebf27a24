/** @file Tests for droop detection, scope, and timelines. */

#include <gtest/gtest.h>

#include <cmath>

#include "noise/droop_detector.hh"
#include "noise/scope.hh"
#include "noise/timeline.hh"

using namespace vsmooth;
using namespace vsmooth::noise;

TEST(DroopDetector, OneExcursionOneEvent)
{
    DroopDetector det(0.02, 0.5);
    // Dip below -2%, wobble inside the event, recover above -1%.
    for (double d : {-0.01, -0.025, -0.03, -0.022, -0.015, -0.005})
        det.feed(d);
    EXPECT_EQ(det.eventCount(), 1u);
    EXPECT_FALSE(det.inEvent());
    EXPECT_DOUBLE_EQ(det.deepestEvent(), -0.03);
}

TEST(DroopDetector, HysteresisPreventsReTrigger)
{
    DroopDetector det(0.02, 0.5);
    // Oscillate between -0.025 and -0.015: release level is -0.01,
    // never reached, so only one event.
    det.feed(-0.025);
    for (int i = 0; i < 10; ++i) {
        det.feed(-0.015);
        det.feed(-0.025);
    }
    EXPECT_EQ(det.eventCount(), 1u);
}

TEST(DroopDetector, ReArmAfterRelease)
{
    DroopDetector det(0.02, 0.5);
    for (int i = 0; i < 5; ++i) {
        det.feed(-0.03);  // trigger
        det.feed(-0.005); // release
    }
    EXPECT_EQ(det.eventCount(), 5u);
}

TEST(DroopDetector, EventStartSignaled)
{
    DroopDetector det(0.02);
    EXPECT_FALSE(det.feed(-0.01));
    EXPECT_TRUE(det.feed(-0.03));
    EXPECT_FALSE(det.feed(-0.04)); // still the same event
}

TEST(DroopDetectorDeath, InvalidParameters)
{
    EXPECT_EXIT(DroopDetector(0.0), ::testing::ExitedWithCode(1),
                "margin");
    EXPECT_EXIT(DroopDetector(0.02, 1.0), ::testing::ExitedWithCode(1),
                "release");
}

TEST(DroopDetectorBank, DeeperMarginsCountFewerEvents)
{
    DroopDetectorBank bank({0.01, 0.03, 0.05});
    // Synthetic ring with varying depth.
    for (int i = 0; i < 10000; ++i) {
        const double depth = 0.02 + 0.03 * std::sin(i * 0.001);
        bank.feed(-depth * std::abs(std::sin(i * 0.5)));
    }
    EXPECT_GE(bank.eventCountForMargin(0.01),
              bank.eventCountForMargin(0.03));
    EXPECT_GE(bank.eventCountForMargin(0.03),
              bank.eventCountForMargin(0.05));
}

TEST(DroopDetectorBank, MatchesStandaloneDetectors)
{
    // The bank's early-exit optimization must not change results.
    DroopDetectorBank bank({0.01, 0.02, 0.04});
    DroopDetector d1(0.01), d2(0.02), d4(0.04);
    std::uint64_t state = 88172645463325252ULL;
    for (int i = 0; i < 200000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const double dev =
            -0.06 + 0.12 * static_cast<double>(state >> 11) * 0x1.0p-53;
        bank.feed(dev);
        d1.feed(dev);
        d2.feed(dev);
        d4.feed(dev);
    }
    EXPECT_EQ(bank.eventCountForMargin(0.01), d1.eventCount());
    EXPECT_EQ(bank.eventCountForMargin(0.02), d2.eventCount());
    EXPECT_EQ(bank.eventCountForMargin(0.04), d4.eventCount());
}

TEST(DroopDetectorBank, SortsMargins)
{
    DroopDetectorBank bank({0.05, 0.01, 0.03});
    EXPECT_DOUBLE_EQ(bank.marginAt(0), 0.01);
    EXPECT_DOUBLE_EQ(bank.marginAt(2), 0.05);
}

TEST(DroopDetectorBankDeath, UnknownMarginQuery)
{
    DroopDetectorBank bank({0.01});
    EXPECT_EXIT(bank.eventCountForMargin(0.02),
                ::testing::ExitedWithCode(1), "not configured");
}

TEST(DroopDetectorBank, ComputedMarginLookup)
{
    // Margins produced by arithmetic (0.01 * i) queried back with an
    // accumulated sum that may differ in the last ulp; every lookup
    // must resolve to the right detector.
    std::vector<double> margins;
    for (int i = 1; i <= 14; ++i)
        margins.push_back(0.01 * i);
    DroopDetectorBank bank(margins);
    for (int i = 0; i < 5000; ++i)
        bank.feed(-0.15 * std::abs(std::sin(i * 0.37)));
    double acc = 0.0;
    for (int i = 1; i <= 14; ++i) {
        acc += 0.01;
        EXPECT_EQ(bank.eventCountForMargin(acc),
                  bank.eventCountAt(static_cast<std::size_t>(i - 1)))
            << "accumulated margin " << acc;
    }
}

TEST(DroopDetectorBank, NearbyMarginsResolveExactly)
{
    // Regression: the old lookup scanned with a 1e-9 absolute epsilon
    // and returned the *first* margin within it, so two configured
    // margins closer than the epsilon aliased to one detector. Exact
    // queries must hit their own detector.
    const double shallow = 0.01;
    const double deep = 0.01 + 1e-10;
    DroopDetectorBank bank({shallow, deep});
    // One excursion that crosses the shallow threshold only.
    bank.feed(-(shallow + 5e-11));
    bank.feed(0.0);
    EXPECT_EQ(bank.eventCountForMargin(shallow), 1u);
    EXPECT_EQ(bank.eventCountForMargin(deep), 0u);
    EXPECT_EQ(bank.indexForMargin(deep), 1u);
}

TEST(Scope, TracksExtremesAndFractions)
{
    Scope scope;
    scope.record(-0.05);
    scope.record(0.02);
    for (int i = 0; i < 98; ++i)
        scope.record(0.0);
    EXPECT_DOUBLE_EQ(scope.maxDroop(), 0.05);
    EXPECT_DOUBLE_EQ(scope.maxOvershoot(), 0.02);
    EXPECT_NEAR(scope.fractionBelow(-0.04), 0.01, 1e-3);
    EXPECT_NEAR(scope.fractionOutside(0.04), 0.01, 1e-3);
}

TEST(Scope, VisualP2pIgnoresSingletons)
{
    Scope scope;
    for (int i = 0; i < 1000000; ++i)
        scope.record(0.0);
    scope.record(-0.2); // one-in-a-million outlier
    EXPECT_NEAR(scope.maxDroop(), 0.2, 1e-6);
    EXPECT_LT(scope.visualPeakToPeak(), 0.01);
}

TEST(Scope, MergeCombines)
{
    Scope a, b;
    a.record(-0.01);
    b.record(-0.06);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.maxDroop(), 0.06);
    EXPECT_EQ(a.histogram().totalCount(), 2u);
}

TEST(Scope, EmptyIsZero)
{
    Scope scope;
    EXPECT_DOUBLE_EQ(scope.maxDroop(), 0.0);
    EXPECT_DOUBLE_EQ(scope.maxOvershoot(), 0.0);
    EXPECT_DOUBLE_EQ(scope.visualPeakToPeak(), 0.0);
}

TEST(NoiseTimeline, CountsSamplesBelowMarginPerInterval)
{
    NoiseTimeline timeline(100, 0.02);
    // First interval: 10 bad samples; second: none.
    for (int i = 0; i < 100; ++i)
        timeline.feed(i < 10 ? -0.03 : 0.0);
    for (int i = 0; i < 100; ++i)
        timeline.feed(0.0);
    const auto &series = timeline.finish();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0], 100.0); // 10 per 100 = 100 per 1K
    EXPECT_DOUBLE_EQ(series[1], 0.0);
    EXPECT_EQ(timeline.totalDroops(), 10u);
}

TEST(NoiseTimeline, PartialTailIntervalKeptIfMostlyComplete)
{
    NoiseTimeline timeline(100, 0.02);
    for (int i = 0; i < 160; ++i)
        timeline.feed(-0.03);
    const auto &series = timeline.finish();
    ASSERT_EQ(series.size(), 2u); // 100 + 60 (>= half)
}

TEST(NoiseTimelineDeath, BadConfig)
{
    EXPECT_EXIT(NoiseTimeline(0, 0.02), ::testing::ExitedWithCode(1),
                "interval");
    EXPECT_EXIT(NoiseTimeline(10, 0.0), ::testing::ExitedWithCode(1),
                "margin");
}

TEST(DetectPhases, FlatSeriesIsOnePhase)
{
    const std::vector<double> series(20, 100.0);
    const auto phases = detectPhases(series);
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].firstInterval, 0u);
    EXPECT_EQ(phases[0].lastInterval, 19u);
    EXPECT_DOUBLE_EQ(phases[0].meanDroopsPer1k, 100.0);
}

TEST(DetectPhases, StepsAreSegmented)
{
    std::vector<double> series;
    for (int i = 0; i < 10; ++i)
        series.push_back(100.0);
    for (int i = 0; i < 10; ++i)
        series.push_back(60.0);
    for (int i = 0; i < 10; ++i)
        series.push_back(100.0);
    const auto phases = detectPhases(series, 15.0);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_NEAR(phases[1].meanDroopsPer1k, 60.0, 1e-9);
}

TEST(DetectPhases, EmptySeries)
{
    EXPECT_TRUE(detectPhases({}).empty());
}

TEST(DetectPhases, SmallNoiseDoesNotSplit)
{
    std::vector<double> series;
    for (int i = 0; i < 50; ++i)
        series.push_back(100.0 + (i % 2 ? 3.0 : -3.0));
    EXPECT_EQ(detectPhases(series, 15.0).size(), 1u);
}
