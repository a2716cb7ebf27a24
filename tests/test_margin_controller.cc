/** @file Tests for the closed-loop adaptive margin controller. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cpu/fast_core.hh"
#include "resilience/margin_controller.hh"
#include "sim/system.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::resilience;

namespace {

MarginControllerParams
unitParams()
{
    MarginControllerParams p;
    p.updateInterval = 1'000;
    return p;
}

/**
 * Stationary periodic deviation: every update window sees the same
 * worst level, so the PI loop faces a fixed setpoint. The period
 * divides the update interval, making window extremes exactly equal.
 */
double
stationaryDeviation(std::uint64_t i, double worst)
{
    return worst * (0.5 + 0.5 * std::sin(2.0 * M_PI *
                                         static_cast<double>(i % 200) /
                                         200.0));
}

} // namespace

TEST(MarginController, ConvergesOnStationaryWorkload)
{
    const auto params = unitParams();
    MarginController mc(params, Volts(1.0));

    for (std::uint64_t i = 0; i < 100'000; ++i)
        mc.feed(stationaryDeviation(i, -0.04));

    // The loop settles where the measured slack equals the target.
    EXPECT_NEAR(mc.lastSlack(), params.targetSlack, 1e-6);
    // With a 4% worst droop the settled margin is thinner than the
    // conservative initial band but still covers the noise.
    EXPECT_LT(mc.margin(), params.initialMargin);
    EXPECT_GT(mc.margin(), 0.04);
    // Settled: the margin no longer moves between updates.
    const double settled = mc.margin();
    for (std::uint64_t i = 0; i < 10'000; ++i)
        mc.feed(stationaryDeviation(i, -0.04));
    EXPECT_NEAR(mc.margin(), settled, 1e-6);
    EXPECT_EQ(mc.widenings(), 0u);
}

TEST(MarginController, WidensOnInjectedDroop)
{
    auto params = unitParams();
    params.kp = 0.0;
    params.ki = 0.0;
    MarginController mc(params, Volts(1.0));

    for (int i = 0; i < 500; ++i)
        EXPECT_FALSE(mc.feed(-0.001));
    const double before = mc.margin();

    // One droop past the margin in force: the violation starts on
    // that sample, widens immediately, and counts exactly once even
    // while the deviation stays below the (old) margin.
    EXPECT_TRUE(mc.feed(-(before + 0.01)));
    EXPECT_EQ(mc.widenings(), 1u);
    EXPECT_DOUBLE_EQ(mc.margin(), before + params.widenStep);
    EXPECT_FALSE(mc.feed(-(before + 0.005)));
    EXPECT_EQ(mc.widenings(), 1u);

    // Recovery above the release level ends the event; the next deep
    // droop is a fresh violation.
    EXPECT_FALSE(mc.feed(0.0));
    EXPECT_TRUE(mc.feed(-(before + 0.05)));
    EXPECT_EQ(mc.widenings(), 2u);
    // The deepest-violation statistic commits when the event ends.
    EXPECT_FALSE(mc.feed(0.0));
    EXPECT_DOUBLE_EQ(mc.deepestViolation(), -(before + 0.05));
}

TEST(MarginController, SaturatesAtBounds)
{
    auto params = unitParams();
    params.kp = 5.0; // overdriven: would overshoot without clamping
    MarginController mc(params, Volts(1.0));

    // A perfectly quiet supply: the trim presses the margin to its
    // floor and no further.
    for (std::uint64_t i = 0; i < 50'000; ++i)
        mc.feed(0.0);
    EXPECT_DOUBLE_EQ(mc.margin(), params.minMargin);
    EXPECT_DOUBLE_EQ(mc.minMarginSeen(), params.minMargin);

    // Relentless deep droops: widening stops at the ceiling.
    for (int i = 0; i < 100; ++i) {
        mc.feed(-0.5);
        mc.feed(0.0);
    }
    EXPECT_DOUBLE_EQ(mc.margin(), params.maxMargin);
    EXPECT_DOUBLE_EQ(mc.maxMarginSeen(), params.maxMargin);
    EXPECT_GE(mc.widenings(), 1u);
}

TEST(MarginController, DisabledPathBitIdenticalToFixedMarginEngine)
{
    // A system with the controller off must behave exactly like the
    // pre-controller fixed-margin engine: same emergencies, same
    // retirement, same supply statistics.
    const double margin = 0.05;
    auto makeConfig = [&](bool controller) {
        sim::SystemConfig cfg;
        cfg.package = pdn::PackageConfig::core2duo().withDecapFraction(0.1);
        cfg.recoveryCostCycles = 500;
        if (controller) {
            cfg.enableMarginController = true;
            // Frozen law: zero gains, zero widening, bounds pinned to
            // the fixed margin. The controller then only *detects*.
            auto &p = cfg.marginControllerParams;
            p.initialMargin = p.minMargin = p.maxMargin = margin;
            p.kp = p.ki = 0.0;
            p.widenStep = 0.0;
        } else {
            cfg.emergencyMargin = margin;
        }
        return cfg;
    };

    auto run = [&](bool controller) {
        sim::System sys(makeConfig(controller));
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(workload::specByName("mcf"), 60'000,
                                  true),
            7));
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(workload::specByName("lbm"), 60'000,
                                  true),
            11));
        sys.run(60'000);
        return sys;
    };

    sim::System fixed = run(false);
    sim::System frozen = run(true);

    EXPECT_EQ(fixed.emergencies(), frozen.emergencies());
    ASSERT_NE(frozen.marginController(), nullptr);
    EXPECT_EQ(frozen.marginController()->widenings(),
              frozen.emergencies());
    EXPECT_EQ(frozen.marginController()->margin(), margin);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(fixed.core(c).counters().instructions(),
                  frozen.core(c).counters().instructions());
        EXPECT_EQ(fixed.core(c).counters().cycles(),
                  frozen.core(c).counters().cycles());
    }
    EXPECT_EQ(fixed.scope().fractionBelow(-margin),
              frozen.scope().fractionBelow(-margin));
}
