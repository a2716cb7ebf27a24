/** @file Tests for descriptive statistics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "common/statistics.hh"

using namespace vsmooth;

TEST(Statistics, Mean)
{
    const std::vector<double> xs = {2.0, 4.0, 6.0};
    EXPECT_DOUBLE_EQ(mean(xs), 4.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, PercentileInterpolates)
{
    const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentileOfSorted(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(xs, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(xs, 25.0), 17.5);
}

TEST(Statistics, PercentileUnsortedInput)
{
    // boxplot() sorts its own copy, so the caller's order is free.
    const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
    const auto box = boxplot(xs);
    EXPECT_DOUBLE_EQ(box.median, 25.0);
    EXPECT_DOUBLE_EQ(box.q1, 17.5);
    EXPECT_DOUBLE_EQ(box.max, 40.0);
}

TEST(Statistics, PearsonPerfectCorrelation)
{
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    const std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Statistics, PearsonPerfectAnticorrelation)
{
    const std::vector<double> xs = {1, 2, 3, 4};
    const std::vector<double> ys = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Statistics, PearsonIndependentNearZero)
{
    Rng rng(9);
    std::vector<double> xs, ys;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.normal());
        ys.push_back(rng.normal());
    }
    EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(Statistics, PearsonDegenerateIsZero)
{
    const std::vector<double> xs = {1, 1, 1};
    const std::vector<double> ys = {1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Statistics, BoxplotFiveNumbers)
{
    std::vector<double> xs;
    for (int i = 1; i <= 101; ++i)
        xs.push_back(i);
    const auto box = boxplot(xs);
    EXPECT_DOUBLE_EQ(box.min, 1.0);
    EXPECT_DOUBLE_EQ(box.median, 51.0);
    EXPECT_DOUBLE_EQ(box.q1, 26.0);
    EXPECT_DOUBLE_EQ(box.q3, 76.0);
    EXPECT_DOUBLE_EQ(box.max, 101.0);
    EXPECT_DOUBLE_EQ(box.mean, 51.0);
}

/** Property: percentile is monotone in p. */
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PercentileMonotone, MonotoneInP)
{
    Rng rng(GetParam());
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i)
        xs.push_back(rng.normal(0.0, 5.0));
    std::sort(xs.begin(), xs.end());
    double prev = percentileOfSorted(xs, 0.0);
    for (int p = 5; p <= 100; p += 5) {
        const double cur = percentileOfSorted(xs, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Statistics, BoxplotBitIdenticalToPerPercentilePath)
{
    // boxplot() sorts once and reuses the sorted sample; the result
    // must stay bit-identical to five independent percentile queries
    // on a sorted copy.
    for (std::uint64_t seed : {7u, 21u, 1031u}) {
        Rng rng(seed);
        std::vector<double> xs;
        for (int i = 0; i < 733; ++i)
            xs.push_back(rng.normal(3.0, 17.0));
        const auto box = boxplot(xs);
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(box.min, percentileOfSorted(sorted, 0.0));
        EXPECT_EQ(box.q1, percentileOfSorted(sorted, 25.0));
        EXPECT_EQ(box.median, percentileOfSorted(sorted, 50.0));
        EXPECT_EQ(box.q3, percentileOfSorted(sorted, 75.0));
        EXPECT_EQ(box.max, percentileOfSorted(sorted, 100.0));
        EXPECT_EQ(box.mean, mean(xs));
    }
}
