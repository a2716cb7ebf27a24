/** @file Tests for the streaming histogram (the scope's data model). */

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/simd.hh"

using namespace vsmooth;

TEST(Histogram, BasicCounting)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(0.0, 10.0, 10);
    h.add(2.5, 7);
    EXPECT_EQ(h.totalCount(), 7u);
    EXPECT_EQ(h.binCount(2), 7u);
}

TEST(Histogram, OutOfRangeTrackedAsUnderOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(15.0);
    // Out-of-range samples are counted but never land in edge bins.
    EXPECT_EQ(h.binCount(0), 0u);
    EXPECT_EQ(h.binCount(9), 0u);
    EXPECT_EQ(h.underflowCount(), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.totalCount(), 2u);
    // Exact extremes are preserved.
    EXPECT_DOUBLE_EQ(h.minSample(), -5.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 15.0);
}

TEST(Histogram, TailMassNotMisattributedToEdgeBins)
{
    // Regression: binIndex used to clamp below-range samples into bin
    // 0, so fractionBelow's within-bin interpolation spread their
    // mass over [lo, lo + width) and halved/distorted deep-tail
    // fractions. One underflow sample and one mid-range sample:
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(5.5);
    // Everything below 0.5 is exactly the underflow sample. The old
    // clamping code interpolated and reported 0.25 here.
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.5), 0.5);
    // At the lower edge, the underflow mass is already below.
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.0), 0.5);
    // Below the tracked minimum nothing can be smaller.
    EXPECT_DOUBLE_EQ(h.fractionBelow(-10.0), 0.0);

    // Mirrored for overflow: one above-range sample must not bleed
    // into queries inside the top bin.
    Histogram g(0.0, 10.0, 10);
    g.add(15.0);
    g.add(5.5);
    EXPECT_DOUBLE_EQ(g.fractionBelow(9.5), 0.5);
    EXPECT_DOUBLE_EQ(g.fractionBelow(10.0), 0.5);
    EXPECT_DOUBLE_EQ(g.fractionBelow(16.0), 1.0);
}

TEST(Histogram, QuantileExtremesReturnExactMinMax)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(3.3);
    h.add(17.5);
    // quantile(0)/quantile(1) report the tracked extremes, not a bin
    // center.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 17.5);
}

TEST(Histogram, MergePreservesUnderOverflow)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.add(-1.0);
    b.add(11.0);
    b.add(-2.0);
    a.merge(b);
    EXPECT_EQ(a.underflowCount(), 2u);
    EXPECT_EQ(a.overflowCount(), 1u);
    EXPECT_EQ(a.totalCount(), 3u);
    a.clear();
    EXPECT_EQ(a.underflowCount(), 0u);
    EXPECT_EQ(a.overflowCount(), 0u);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(9), 9.5);
}

TEST(Histogram, FractionBelow)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.fractionBelow(5.0), 0.5, 0.05);
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(10.0), 1.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(100.0), 1.0);
}

TEST(Histogram, FractionAtOrAboveComplement)
{
    Histogram h(0.0, 1.0, 100);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform());
    EXPECT_NEAR(h.fractionBelow(0.3) + h.fractionAtOrAbove(0.3), 1.0,
                1e-12);
}

TEST(Histogram, FractionAtOrAboveDeepTailIsExact)
{
    // A droop-margin CDF query on a long-horizon population: ~1e12
    // samples (weighted adds — the oscilloscope-style compressed form)
    // with a single sample in the deep tail. The tail fraction must
    // come out as one count over one total, exact to the half-ulp;
    // computing 1.0 - fractionBelow(x) instead cancels down to ~4
    // correct digits at this depth.
    Histogram h(-0.05, 0.05, 100);
    h.add(0.0, 999'999'999'999ull);
    h.add(0.0491, 1); // deepest overshoot, in the last bin
    ASSERT_EQ(h.totalCount(), 1'000'000'000'000ull);
    // 0.0485 falls in an empty bin below the tail sample's, so the
    // within-bin interpolation term is exactly zero and the query is
    // pure integer tail mass over total.
    EXPECT_DOUBLE_EQ(h.fractionAtOrAbove(0.0485), 1e-12);
    // Beyond the binned range the tail is the overflow bucket alone.
    Histogram o(-0.05, 0.05, 100);
    o.add(0.0, 999'999'999'999ull);
    o.add(0.12, 1);
    EXPECT_DOUBLE_EQ(o.fractionAtOrAbove(0.05), 1e-12);
    EXPECT_DOUBLE_EQ(o.fractionAtOrAbove(0.1), 1e-12);
    // A billion-sample histogram with a 1e-9 tail shows the same
    // cancellation one decade up; the direct sum stays exact.
    Histogram g(-0.05, 0.05, 100);
    g.add(0.0, 999'999'999ull);
    g.add(0.0491, 1);
    EXPECT_DOUBLE_EQ(g.fractionAtOrAbove(0.0485), 1e-9);
}

TEST(Histogram, FractionAtOrAboveEdgeConventions)
{
    // Mirrors fractionBelow's conventions at the range edges and for
    // under/overflow mass.
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);  // underflow
    h.add(2.5);
    h.add(7.5);
    h.add(15.0);  // overflow
    EXPECT_DOUBLE_EQ(h.fractionAtOrAbove(-10.0), 1.0);
    EXPECT_DOUBLE_EQ(h.fractionAtOrAbove(0.0), 0.75);
    EXPECT_DOUBLE_EQ(h.fractionAtOrAbove(10.0), 0.25);
    EXPECT_DOUBLE_EQ(h.fractionAtOrAbove(20.0), 0.0);
    Histogram e(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(e.fractionAtOrAbove(0.5), 0.0);
}

TEST(Histogram, QuantileMedianOfUniform)
{
    Histogram h(0.0, 1.0, 1000);
    Rng rng(7);
    for (int i = 0; i < 100000; ++i)
        h.add(rng.uniform());
    EXPECT_NEAR(h.quantile(0.5), 0.5, 0.01);
    EXPECT_NEAR(h.quantile(0.9), 0.9, 0.01);
    EXPECT_NEAR(h.quantile(0.1), 0.1, 0.01);
}


TEST(Histogram, MergeAddsCounts)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.add(1.0);
    b.add(1.2);
    b.add(9.0);
    a.merge(b);
    EXPECT_EQ(a.totalCount(), 3u);
    EXPECT_EQ(a.binCount(1), 2u);
    EXPECT_EQ(a.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(a.maxSample(), 9.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    h.clear();
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.9), 0.0);
}

TEST(HistogramDeath, InvalidRange)
{
    EXPECT_DEATH(Histogram(1.0, 1.0, 10), "must exceed");
}

TEST(HistogramDeath, ZeroBins)
{
    EXPECT_DEATH(Histogram(0.0, 1.0, 0), "at least one bin");
}

TEST(HistogramDeath, MoreBinsThanTheClassifierCanIndex)
{
    // Rejected before the bins are allocated.
    EXPECT_DEATH(Histogram(0.0, 1.0, simd::kMaxBins + 1), "exceed");
}

TEST(HistogramDeath, MergeIncompatible)
{
    Histogram a(0.0, 1.0, 10), b(0.0, 2.0, 10);
    EXPECT_DEATH(a.merge(b), "incompatible");
}

TEST(HistogramDeath, QuantileOnEmpty)
{
    Histogram h(0.0, 1.0, 10);
    EXPECT_DEATH(h.quantile(0.5), "empty");
}

/** Property: quantile is monotone in q for arbitrary data. */
class HistogramQuantileProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramQuantileProperty, QuantileMonotone)
{
    Histogram h(-3.0, 3.0, 256);
    Rng rng(GetParam());
    for (int i = 0; i < 5000; ++i)
        h.add(rng.normal());
    double prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = h.quantile(q);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramQuantileProperty,
                         ::testing::Values(3, 14, 159, 2653));

TEST(Histogram, AddScaledMatchesRepeatedAdd)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    for (double x : {-3.0, 0.5, 5.5, 12.0}) {
        a.addScaled(x, 9);
        for (int i = 0; i < 9; ++i)
            b.add(x);
    }
    EXPECT_EQ(a.totalCount(), b.totalCount());
    EXPECT_EQ(a.underflowCount(), b.underflowCount());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    EXPECT_DOUBLE_EQ(a.minSample(), b.minSample());
    EXPECT_DOUBLE_EQ(a.maxSample(), b.maxSample());
    for (std::size_t i = 0; i < a.numBins(); ++i)
        EXPECT_EQ(a.binCount(i), b.binCount(i));
}

TEST(Histogram, AddScaledZeroWeightIsNoOp)
{
    Histogram h(0.0, 10.0, 10);
    h.addScaled(5.0, 0);
    h.addScaled(-4.0, 0);
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.underflowCount(), 0u);
    // A weight-0 sample must not perturb the tracked extremes either.
    h.add(2.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 2.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 2.0);
}

TEST(Histogram, MergeScaledConservesMassIncludingTails)
{
    // The window histogram mixes binned mass with under/overflow
    // tails; weighted merge must scale all three the same way.
    Histogram win(0.0, 10.0, 10);
    win.add(-2.0); // underflow
    win.add(3.5);
    win.add(3.6);
    win.add(14.0); // overflow

    Histogram sink(0.0, 10.0, 10);
    sink.add(7.5);
    sink.mergeScaled(win, 5);

    EXPECT_EQ(sink.totalCount(), 1u + 5u * 4u);
    EXPECT_EQ(sink.underflowCount(), 5u);
    EXPECT_EQ(sink.overflowCount(), 5u);
    EXPECT_EQ(sink.binCount(3), 10u);
    EXPECT_EQ(sink.binCount(7), 1u);
    // Extremes come from the merged window.
    EXPECT_DOUBLE_EQ(sink.minSample(), -2.0);
    EXPECT_DOUBLE_EQ(sink.maxSample(), 14.0);

    std::uint64_t binned = 0;
    for (std::size_t i = 0; i < sink.numBins(); ++i)
        binned += sink.binCount(i);
    EXPECT_EQ(binned + sink.underflowCount() + sink.overflowCount(),
              sink.totalCount());
}

TEST(Histogram, MergeScaledMatchesRepeatedMerge)
{
    Rng rng(99);
    Histogram win(-1.0, 1.0, 32);
    for (int i = 0; i < 200; ++i)
        win.add(rng.uniform(-1.5, 1.5));

    Histogram a(-1.0, 1.0, 32);
    Histogram b(-1.0, 1.0, 32);
    a.mergeScaled(win, 7);
    for (int i = 0; i < 7; ++i)
        b.merge(win);
    EXPECT_EQ(a.totalCount(), b.totalCount());
    EXPECT_EQ(a.underflowCount(), b.underflowCount());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    for (std::size_t i = 0; i < a.numBins(); ++i)
        EXPECT_EQ(a.binCount(i), b.binCount(i));

    // Weight 0 merges nothing.
    Histogram c(-1.0, 1.0, 32);
    c.mergeScaled(win, 0);
    EXPECT_EQ(c.totalCount(), 0u);
}
