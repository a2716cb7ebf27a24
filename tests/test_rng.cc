/** @file Tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"

using namespace vsmooth;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, UniformIntSingleValue)
{
    Rng rng(13);
    EXPECT_EQ(rng.uniformInt(4, 4), 4u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMean)
{
    Rng rng(31);
    double sum = 0.0;
    const int n = 100000;
    const double p = 0.05;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p, std::log1p(-p)));
    EXPECT_NEAR(sum / n, 1.0 / p, 0.5);
}

TEST(Rng, GeometricAlwaysAtLeastOne)
{
    Rng rng(37);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(0.9, std::log1p(-0.9)), 1u);
}

TEST(Rng, GeometricCertainSuccess)
{
    Rng rng(37);
    EXPECT_EQ(rng.geometric(1.0, std::log1p(-1.0)), 1u);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedSweep, UniformStaysInRangeAndVaries)
{
    Rng rng(GetParam());
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double u = rng.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0, 1, 2, 42, 1000003,
                                           0xdeadbeefULL,
                                           ~std::uint64_t(0)));
