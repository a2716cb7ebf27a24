/** @file Tests for technology scaling and the ring oscillator. */

#include <gtest/gtest.h>

#include "tech/itrs.hh"
#include "tech/ring_oscillator.hh"

using namespace vsmooth;
using namespace vsmooth::tech;

TEST(Itrs, FiveNodesInOrder)
{
    const auto &nodes = itrsNodes();
    ASSERT_EQ(nodes.size(), 5u);
    EXPECT_EQ(nodes.front().name, "45nm");
    EXPECT_EQ(nodes.back().name, "11nm");
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_LT(nodes[i].featureNm, nodes[i - 1].featureNm);
        EXPECT_LT(nodes[i].vdd.value(), nodes[i - 1].vdd.value());
    }
}

TEST(Itrs, VddEndpoints)
{
    EXPECT_DOUBLE_EQ(itrsNodes().front().vdd.value(), 1.0);
    EXPECT_DOUBLE_EQ(itrsNodes().back().vdd.value(), 0.6);
}

TEST(Itrs, StimulusScalesInverselyWithVdd)
{
    const Amps base{75.0};
    const auto &nodes = itrsNodes(); // 45, 32, 22, 16, 11 nm
    EXPECT_DOUBLE_EQ(scaledStimulus(base, nodes[0]).value(), 75.0);
    EXPECT_NEAR(scaledStimulus(base, nodes[2]).value(), 75.0 / 0.8, 1e-9);
    EXPECT_NEAR(scaledStimulus(base, nodes[4]).value(), 125.0, 1e-9);
}

TEST(RingOscillator, FrequencyMonotoneInVdd)
{
    const RingOscillator ring;
    double prev = 0.0;
    for (double v = 0.5; v <= 1.2; v += 0.05) {
        const double f = ring.frequencyAt(Volts(v));
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(RingOscillator, NoOscillationBelowVth)
{
    const RingOscillator ring(Volts(0.35));
    EXPECT_DOUBLE_EQ(ring.frequencyAt(Volts(0.35)), 0.0);
    EXPECT_DOUBLE_EQ(ring.frequencyAt(Volts(0.2)), 0.0);
}

TEST(RingOscillator, ZeroMarginIsHundredPercent)
{
    const RingOscillator ring;
    EXPECT_DOUBLE_EQ(ring.peakFrequencyPercent(Volts(1.0), 0.0), 100.0);
}

TEST(RingOscillator, PaperAnchorAt45nm)
{
    // 20 % margin at Vdd = 1.0 V costs ~25 % of peak frequency.
    const RingOscillator ring;
    const double pct = ring.peakFrequencyPercent(Volts(1.0), 0.20);
    EXPECT_NEAR(pct, 75.0, 4.0);
}

TEST(RingOscillator, SensitivityGrowsAtLowerVdd)
{
    // The same percentage margin costs more frequency at lower Vdd —
    // the core claim of Fig 2.
    const RingOscillator ring;
    const double loss45 =
        100.0 - ring.peakFrequencyPercent(Volts(1.0), 0.20);
    const double loss16 =
        100.0 - ring.peakFrequencyPercent(Volts(0.7), 0.20);
    EXPECT_GT(loss16, loss45);
}

TEST(RingOscillator, DoubledSwingAt16nmMoreThanHalvesFrequency)
{
    const RingOscillator ring;
    EXPECT_LT(ring.peakFrequencyPercent(Volts(0.7), 0.40), 50.0);
}

TEST(RingOscillatorDeath, InvalidParameters)
{
    EXPECT_EXIT(RingOscillator(Volts(0.0)),
                ::testing::ExitedWithCode(1), "Vth");
    EXPECT_EXIT(RingOscillator(Volts(0.3), 2.5),
                ::testing::ExitedWithCode(1), "alpha");
    EXPECT_EXIT(RingOscillator(Volts(0.3), 1.4, 4),
                ::testing::ExitedWithCode(1), "odd");
    const RingOscillator ring;
    EXPECT_EXIT(ring.peakFrequencyPercent(Volts(1.0), 1.0),
                ::testing::ExitedWithCode(1), "margin");
}

/** Property sweep: frequency percent is monotone decreasing in
 *  margin for every node. */
class MarginSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(MarginSweep, FrequencyDecreasesWithMargin)
{
    const RingOscillator ring;
    const Volts vdd{GetParam()};
    double prev = 101.0;
    for (double m = 0.0; m < 0.5; m += 0.05) {
        const double pct = ring.peakFrequencyPercent(vdd, m);
        EXPECT_LT(pct, prev);
        prev = pct;
    }
}

INSTANTIATE_TEST_SUITE_P(NodeVdds, MarginSweep,
                         ::testing::Values(1.0, 0.9, 0.8, 0.7));
