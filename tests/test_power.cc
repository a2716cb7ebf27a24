/** @file Tests for the activity-to-current model. */

#include <gtest/gtest.h>

#include "power/current_model.hh"

using namespace vsmooth;
using namespace vsmooth::power;

TEST(CurrentModel, SteadyCurrentComponents)
{
    CurrentModelParams p;
    p.leakage = Amps(2.0);
    p.idleClock = Amps(1.0);
    p.dynamicMax = Amps(4.0);
    CurrentModel model(p);
    // Activity 0: leakage + gated clock floor.
    EXPECT_NEAR(model.steadyCurrent(0.0), 2.0 + 0.25, 1e-12);
    // Activity 1: everything on.
    EXPECT_NEAR(model.steadyCurrent(1.0), 2.0 + 1.0 + 4.0, 1e-12);
    // Monotone in between.
    EXPECT_LT(model.steadyCurrent(0.3), model.steadyCurrent(0.7));
}

TEST(CurrentModel, ActivityClamped)
{
    CurrentModel model;
    EXPECT_DOUBLE_EQ(model.steadyCurrent(-1.0), model.steadyCurrent(0.0));
    // Burst headroom: activity clamps at 2.5 (restart in-rush).
    EXPECT_DOUBLE_EQ(model.steadyCurrent(5.0), model.steadyCurrent(2.5));
    EXPECT_GT(model.steadyCurrent(2.0), model.steadyCurrent(1.0));
}

TEST(CurrentModel, SmoothingDelaysEdges)
{
    CurrentModelParams p;
    p.smoothingTauCycles = 3.0;
    p.maxSlewPerCycle = 0.0;
    CurrentModel model(p);
    const double target = model.steadyCurrent(1.0);
    const double start = model.steadyCurrent(0.0);
    // First cycle moves only a fraction of the way.
    const double first = model.currentFor(1.0);
    EXPECT_GT(first, start);
    EXPECT_LT(first, start + 0.5 * (target - start));
    // Converges eventually.
    double last = first;
    for (int i = 0; i < 100; ++i)
        last = model.currentFor(1.0);
    EXPECT_NEAR(last, target, 1e-6);
}

TEST(CurrentModel, SlewLimitBoundsStep)
{
    CurrentModelParams p;
    p.smoothingTauCycles = 0.0;
    p.maxSlewPerCycle = 0.5;
    CurrentModel model(p);
    const double before = model.steadyCurrent(0.0);
    const double after = model.currentFor(1.0);
    EXPECT_NEAR(after - before, 0.5, 1e-12);
}

TEST(CurrentModel, NoShapingIsInstant)
{
    CurrentModelParams p;
    p.smoothingTauCycles = 0.0;
    p.maxSlewPerCycle = 0.0;
    CurrentModel model(p);
    EXPECT_DOUBLE_EQ(model.currentFor(1.0), model.steadyCurrent(1.0));
}

TEST(CurrentModel, IdleAndMaxHelpers)
{
    CurrentModel model;
    EXPECT_LT(model.idleCurrent(), model.maxCurrent());
    EXPECT_DOUBLE_EQ(model.maxCurrent(), model.steadyCurrent(1.0));
}

TEST(CurrentModelDeath, NegativeComponents)
{
    CurrentModelParams p;
    p.leakage = Amps(-1.0);
    EXPECT_EXIT({ CurrentModel model(p); }, ::testing::ExitedWithCode(1),
                "non-negative");
}
