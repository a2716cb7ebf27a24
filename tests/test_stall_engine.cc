/** @file Tests for the stall-engine activity waveform. */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/stall_engine.hh"

using namespace vsmooth;
using namespace vsmooth::cpu;

namespace {

/** Drain the full waveform of one event into a vector. */
std::vector<double>
captureEvent(StallEngine &engine, PerfCounters &ctr, std::size_t max = 500)
{
    std::vector<double> wave;
    for (std::size_t i = 0; i < max && engine.inEvent(); ++i)
        wave.push_back(engine.tick(ctr));
    return wave;
}

} // namespace

TEST(StallEngine, RunningProducesRunningActivity)
{
    StallEngine engine(0.8);
    PerfCounters ctr;
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(engine.tick(ctr), 0.8);
    EXPECT_EQ(ctr.cycles(), 10u);
    EXPECT_EQ(ctr.totalStallCycles(), 0u);
}

TEST(StallEngine, EventWaveformPhases)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    EventTiming timing;
    timing.rampDownCycles = 2;
    timing.stallCycles = 3;
    timing.stallActivity = 0.1;
    timing.surgeCycles = 2;
    timing.surgeActivity = 1.1;

    engine.beginEvent(StallCause::L2Miss, timing);
    EXPECT_TRUE(engine.inEvent());
    EXPECT_TRUE(engine.blocked());

    const auto wave = captureEvent(engine, ctr);
    ASSERT_EQ(wave.size(), 7u);
    // Ramp: decreasing from running toward the floor.
    EXPECT_LT(wave[0], 0.9);
    EXPECT_GT(wave[0], wave[1]);
    // Stall: at the floor.
    EXPECT_DOUBLE_EQ(wave[2], 0.1);
    EXPECT_DOUBLE_EQ(wave[4], 0.1);
    // Surge: above running.
    EXPECT_DOUBLE_EQ(wave[5], 1.1);
    EXPECT_DOUBLE_EQ(wave[6], 1.1);
    EXPECT_FALSE(engine.inEvent());
    // Ramp + stall cycles accounted as L2 stalls; surge is not.
    EXPECT_EQ(ctr.stallCycles(StallCause::L2Miss), 5u);
}

TEST(StallEngine, NoRampGoesStraightToStall)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    engine.beginEvent(StallCause::BranchMispredict);
    const auto &t = defaultTiming(StallCause::BranchMispredict);
    EXPECT_EQ(engine.state(), EngineState::Stalled);
    EXPECT_DOUBLE_EQ(engine.tick(ctr), t.stallActivity);
}

TEST(StallEngine, ShorterEventAbsorbedDuringStall)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    engine.beginEvent(StallCause::L2Miss); // long
    engine.tick(ctr);
    engine.beginEvent(StallCause::L1Miss); // shorter: absorbed
    EXPECT_EQ(engine.currentCause(), StallCause::L2Miss);
}

TEST(StallEngine, LongerEventPreempts)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    engine.beginEvent(StallCause::L1Miss);
    engine.tick(ctr);
    engine.beginEvent(StallCause::L2Miss); // longer: takes over
    EXPECT_EQ(engine.currentCause(), StallCause::L2Miss);
}

TEST(StallEngine, BurstySurgeAlternates)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    EventTiming timing;
    timing.stallCycles = 1;
    timing.stallActivity = 0.1;
    timing.surgeCycles = 24;
    timing.surgeActivity = 1.1;
    timing.burstySurge = true;
    timing.wavePeriod = 6;
    timing.waveLowActivity = 0.4;

    engine.beginEvent(StallCause::Exception, timing);
    engine.tick(ctr); // the stall cycle
    std::vector<double> surge;
    while (engine.inEvent())
        surge.push_back(engine.tick(ctr));
    ASSERT_EQ(surge.size(), 24u);
    // Waves: 6 high, 6 low, 6 high, 6 low.
    EXPECT_DOUBLE_EQ(surge[0], 1.1);
    EXPECT_DOUBLE_EQ(surge[5], 1.1);
    EXPECT_DOUBLE_EQ(surge[6], 0.4);
    EXPECT_DOUBLE_EQ(surge[11], 0.4);
    EXPECT_DOUBLE_EQ(surge[12], 1.1);
    EXPECT_DOUBLE_EQ(surge[18], 0.4);
}

TEST(StallEngine, DefaultTimingsExistForAllCauses)
{
    for (auto cause :
         {StallCause::L1Miss, StallCause::L2Miss, StallCause::TlbMiss,
          StallCause::BranchMispredict, StallCause::Exception,
          StallCause::Recovery}) {
        const auto &t = defaultTiming(cause);
        EXPECT_GE(t.stallActivity, 0.0);
        EXPECT_LE(t.stallActivity, 1.0);
    }
}

TEST(StallEngine, BranchFlushIsSharpestEdge)
{
    // The BR event must have no ramp (instant squash) — that is the
    // paper's explanation for it being the largest swing source.
    EXPECT_EQ(defaultTiming(StallCause::BranchMispredict).rampDownCycles,
              0u);
    EXPECT_GT(defaultTiming(StallCause::L2Miss).rampDownCycles, 0u);
}

TEST(StallEngine, RunningActivityAdjustable)
{
    StallEngine engine(0.9);
    PerfCounters ctr;
    engine.setRunningActivity(0.3);
    EXPECT_DOUBLE_EQ(engine.tick(ctr), 0.3);
}

TEST(StallEngineDeath, BeginEventWithNone)
{
    StallEngine engine(0.9);
    EventTiming timing;
    timing.stallCycles = 5;
    EXPECT_DEATH(engine.beginEvent(StallCause::None, timing), "None");
}

TEST(PerfCounters, IpcAndStallRatio)
{
    PerfCounters ctr;
    ctr.tickCycle(StallCause::None);
    ctr.tickCycle(StallCause::L1Miss);
    ctr.tickCycle(StallCause::L1Miss);
    ctr.tickCycle(StallCause::BranchMispredict);
    ctr.commitInstructions(6);
    EXPECT_DOUBLE_EQ(ctr.ipc(), 1.5);
    EXPECT_DOUBLE_EQ(ctr.stallRatio(), 0.75);
    EXPECT_EQ(ctr.stallCycles(StallCause::L1Miss), 2u);
    EXPECT_EQ(ctr.totalStallCycles(), 3u);
}

TEST(PerfCounters, EventCounting)
{
    PerfCounters ctr;
    ctr.recordEvent(StallCause::TlbMiss);
    ctr.recordEvent(StallCause::TlbMiss);
    ctr.recordEvent(StallCause::None); // ignored
    EXPECT_EQ(ctr.eventCount(StallCause::TlbMiss), 2u);
}
