/** @file Tests for workload generators: suite, PARSEC, microbench. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/microbench.hh"
#include "workload/parsec.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::workload;

TEST(SpecSuite, HasTwentyNineBenchmarks)
{
    EXPECT_EQ(specCpu2006().size(), 29u);
}

TEST(SpecSuite, NamesUniqueAndSorted)
{
    std::set<std::string> names;
    std::string prev;
    for (const auto &b : specCpu2006()) {
        EXPECT_TRUE(names.insert(b.name).second) << b.name;
        EXPECT_GT(b.name, prev);
        prev = b.name;
    }
}

TEST(SpecSuite, LookupByName)
{
    EXPECT_EQ(specByName("mcf").name, "mcf");
    EXPECT_DOUBLE_EQ(specByName("sphinx").stallRatio, 0.75);
}

TEST(SpecSuiteDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(specByName("doom3"), ::testing::ExitedWithCode(1),
                "unknown SPEC benchmark");
}

TEST(SpecSuite, ParametersInRange)
{
    for (const auto &b : specCpu2006()) {
        EXPECT_GT(b.stallRatio, 0.0) << b.name;
        EXPECT_LT(b.stallRatio, 0.95) << b.name;
        EXPECT_GE(b.memoryBoundness, 0.0) << b.name;
        EXPECT_LE(b.memoryBoundness, 1.0) << b.name;
        EXPECT_GT(b.ipcRunning, 0.0) << b.name;
        EXPECT_GT(b.relativeLength, 0.0) << b.name;
    }
}

TEST(SpecSuite, Fig14ShapesPresent)
{
    EXPECT_EQ(specByName("sphinx").pattern, PhasePattern::Flat);
    EXPECT_EQ(specByName("gamess").pattern, PhasePattern::Steps);
    EXPECT_EQ(specByName("gamess").stepMultipliers.size(), 4u);
    EXPECT_EQ(specByName("tonto").pattern, PhasePattern::Oscillating);
}

TEST(SpecSuite, ScheduleDurationsScale)
{
    const auto &b = specByName("hmmer"); // relativeLength 1.0
    const auto sched = scheduleFor(b, 100'000);
    EXPECT_EQ(sched.totalDuration(), 100'000u);
    EXPECT_FALSE(sched.loop);
    const auto looped = scheduleFor(b, 100'000, true);
    EXPECT_TRUE(looped.loop);
}

TEST(SpecSuite, StepScheduleHasOnePhasePerStep)
{
    const auto sched = scheduleFor(specByName("gamess"), 400'000);
    EXPECT_EQ(sched.phases.size(), 4u);
    // Alternating high/low stall phases -> alternating event rates.
    double r0 = 0.0, r1 = 0.0;
    for (double r : sched.phases[0].eventRatesPer1k)
        r0 += r;
    for (double r : sched.phases[1].eventRatesPer1k)
        r1 += r;
    EXPECT_GT(r0, r1);
}

TEST(SpecSuite, OscillatingScheduleAlternates)
{
    const auto sched = scheduleFor(specByName("tonto"), 700'000);
    ASSERT_GE(sched.phases.size(), 4u);
    EXPECT_EQ(sched.phases.size(),
              static_cast<std::size_t>(specByName("tonto").oscSegments));
}

TEST(SpecSuite, MakePhaseRatesHitStallBudget)
{
    const auto phase = makeSpecPhase(0.5, 0.5, 1.5, 1000);
    EXPECT_NEAR(phase.expectedStallRatio(), 0.5, 0.03);
    for (double r : phase.eventRatesPer1k)
        EXPECT_GE(r, 0.0);
}

TEST(SpecSuite, MemoryBoundnessShiftsMix)
{
    const auto mem = makeSpecPhase(0.5, 1.0, 1.0, 1000);
    const auto cpu_ = makeSpecPhase(0.5, 0.0, 1.0, 1000);
    // Memory-bound: more L2; compute-bound: more branch events.
    EXPECT_GT(mem.eventRatesPer1k[1] / (cpu_.eventRatesPer1k[1] + 1e-9),
              1.0);
    EXPECT_GT(cpu_.eventRatesPer1k[3], mem.eventRatesPer1k[3]);
}

TEST(SpecSuiteDeath, BadStallRatio)
{
    EXPECT_EXIT(makeSpecPhase(0.99, 0.5, 1.0, 1000),
                ::testing::ExitedWithCode(1), "stall ratio");
}

TEST(Parsec, HasElevenPrograms)
{
    EXPECT_EQ(parsecSuite().size(), 11u);
}

TEST(Parsec, ThreadSchedulesSkewed)
{
    const auto &b = *std::find_if(
        parsecSuite().begin(), parsecSuite().end(),
        [](const ParsecBenchmark &p) { return p.name == "streamcluster"; });
    ASSERT_EQ(b.name, "streamcluster");
    const auto t0 = parsecThreadSchedule(b, 0, 160'000);
    const auto t1 = parsecThreadSchedule(b, 1, 160'000);
    // Thread 1 gets a leading skew phase.
    EXPECT_EQ(t1.phases.size(), t0.phases.size() + 1);
}

TEST(Microbench, NamesMatchFigureLabels)
{
    EXPECT_EQ(microbenchName(MicrobenchKind::L1Miss), "L1");
    EXPECT_EQ(microbenchName(MicrobenchKind::BranchMispredict), "BR");
    EXPECT_EQ(microbenchName(MicrobenchKind::Exception), "EXCP");
    EXPECT_EQ(microbenchName(MicrobenchKind::PowerVirus), "VIRUS");
}

TEST(Microbench, StreamsAreInfinite)
{
    for (auto kind : kEventMicrobenchmarks) {
        auto stream = makeMicrobenchmark(kind, 1);
        for (int i = 0; i < 100; ++i)
            stream->next();
        EXPECT_FALSE(stream->finished());
    }
}

TEST(Microbench, BranchStreamHasBranches)
{
    auto stream =
        makeMicrobenchmark(MicrobenchKind::BranchMispredict, 1);
    int branches = 0;
    for (int i = 0; i < 1000; ++i)
        branches += stream->next().isBranch;
    EXPECT_GT(branches, 10);
    EXPECT_LT(branches, 500);
}

TEST(Microbench, StridedStreamsTouchMemory)
{
    auto stream = makeMicrobenchmark(MicrobenchKind::L2Miss, 1);
    int loads = 0;
    cpu::Addr first = 0, last = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto instr = stream->next();
        if (instr.isMemory) {
            if (!loads)
                first = instr.memAddr;
            last = instr.memAddr;
            ++loads;
        }
    }
    EXPECT_GT(loads, 50);
    EXPECT_NE(first, last);
}

TEST(Microbench, FastScheduleLooping)
{
    const auto sched =
        microbenchmarkSchedule(MicrobenchKind::TlbMiss, 1000);
    EXPECT_TRUE(sched.loop);
    ASSERT_EQ(sched.phases.size(), 1u);
    EXPECT_GT(sched.phases[0].eventRatesPer1k[2], 0.0);
}

TEST(Microbench, IdleScheduleIsQuiet)
{
    const auto sched = idleSchedule(1000);
    ASSERT_EQ(sched.phases.size(), 1u);
    EXPECT_LT(sched.phases[0].baseActivity, 0.2);
    for (double r : sched.phases[0].eventRatesPer1k)
        EXPECT_DOUBLE_EQ(r, 0.0);
}
