/** @file Tests for the detailed and fast core models. */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::cpu;
using namespace vsmooth::workload;

namespace {

PerfCounters
runDetailed(MicrobenchKind kind, Cycles cycles)
{
    auto stream = makeMicrobenchmark(kind, 7);
    DetailedCore core(DetailedCoreParams{}, *stream);
    for (Cycles i = 0; i < cycles; ++i)
        core.tick();
    return core.counters();
}

} // namespace

TEST(DetailedCore, PowerVirusRunsFullTilt)
{
    const auto ctr = runDetailed(MicrobenchKind::PowerVirus, 100'000);
    EXPECT_GT(ctr.ipc(), 3.5);
    EXPECT_LT(ctr.stallRatio(), 0.05);
}

TEST(DetailedCore, L1BenchProducesOnlyL1Misses)
{
    // Long enough that the one-pass L2 warmup misses are negligible.
    const auto ctr = runDetailed(MicrobenchKind::L1Miss, 2'000'000);
    EXPECT_GT(ctr.eventCount(StallCause::L1Miss), 1000u);
    // After warmup, the 256 KiB footprint lives in L2: L2 misses only
    // from the first pass.
    EXPECT_LT(ctr.eventCount(StallCause::L2Miss),
              ctr.eventCount(StallCause::L1Miss) / 10);
    EXPECT_EQ(ctr.eventCount(StallCause::Exception), 0u);
}

TEST(DetailedCore, L2BenchMissesMemory)
{
    const auto ctr = runDetailed(MicrobenchKind::L2Miss, 200'000);
    EXPECT_GT(ctr.eventCount(StallCause::L2Miss), 1000u);
    EXPECT_GT(ctr.stallCycles(StallCause::L2Miss),
              ctr.stallCycles(StallCause::L1Miss));
}

TEST(DetailedCore, TlbBenchWalksWithoutCacheMisses)
{
    const auto ctr = runDetailed(MicrobenchKind::TlbMiss, 400'000);
    EXPECT_GT(ctr.eventCount(StallCause::TlbMiss), 1000u);
    // Data is L1-resident by construction: TLB stalls dominate.
    EXPECT_GT(ctr.stallCycles(StallCause::TlbMiss),
              10 * ctr.stallCycles(StallCause::L2Miss));
}

TEST(DetailedCore, BranchBenchDefeatsPredictor)
{
    auto stream = makeMicrobenchmark(MicrobenchKind::BranchMispredict, 7);
    DetailedCore core(DetailedCoreParams{}, *stream);
    for (Cycles i = 0; i < 300'000; ++i)
        core.tick();
    EXPECT_GT(core.counters().eventCount(StallCause::BranchMispredict),
              1000u);
    // Random outcomes: the predictor stays near chance. The stream
    // puts one branch in every 44 instructions.
    const auto &ctr = core.counters();
    const double branches = static_cast<double>(ctr.instructions()) / 44.0;
    EXPECT_NEAR(static_cast<double>(
                    ctr.eventCount(StallCause::BranchMispredict)) /
                    branches,
                0.5, 0.1);
}

TEST(DetailedCore, ExceptionBenchRaises)
{
    const auto ctr = runDetailed(MicrobenchKind::Exception, 300'000);
    EXPECT_GT(ctr.eventCount(StallCause::Exception), 100u);
}

TEST(DetailedCore, RecoveryStallInjection)
{
    auto stream = makeMicrobenchmark(MicrobenchKind::PowerVirus, 7);
    DetailedCore core(DetailedCoreParams{}, *stream);
    for (int i = 0; i < 100; ++i)
        core.tick();
    core.injectRecoveryStall(50);
    std::uint64_t low = 0;
    for (int i = 0; i < 50; ++i)
        low += (core.tick() < 0.1);
    EXPECT_GT(low, 40u);
    EXPECT_EQ(core.counters().eventCount(StallCause::Recovery), 1u);
    EXPECT_GE(core.counters().stallCycles(StallCause::Recovery), 45u);
}

TEST(DetailedCore, SharedL2IsShared)
{
    auto s0 = makeMicrobenchmark(MicrobenchKind::L1Miss, 7);
    auto s1 = makeMicrobenchmark(MicrobenchKind::L1Miss, 8);
    Cache shared(core2L2Geometry());
    DetailedCore a(DetailedCoreParams{}, *s0, &shared);
    DetailedCore b(DetailedCoreParams{}, *s1, &shared);
    for (int i = 0; i < 50'000; ++i) {
        a.tick();
        b.tick();
    }
    EXPECT_EQ(&a.l2(), &shared);
    EXPECT_EQ(&b.l2(), &shared);
    EXPECT_GT(shared.hits() + shared.misses(), 0u);
}

TEST(DetailedCore, InfiniteStreamNeverFinishes)
{
    auto stream = makeMicrobenchmark(MicrobenchKind::PowerVirus, 7);
    DetailedCore core(DetailedCoreParams{}, *stream);
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_FALSE(core.finished());
}

TEST(FastCore, StallRatioTracksDesignTarget)
{
    for (double target : {0.2, 0.4, 0.6, 0.8}) {
        PhaseSchedule sched;
        sched.phases.push_back(
            makeSpecPhase(target, 0.5, 1.5, 2'000'000));
        sched.loop = true;
        FastCore core(sched, 42);
        for (int i = 0; i < 1'000'000; ++i)
            core.tick();
        EXPECT_NEAR(core.counters().stallRatio(), target, 0.1)
            << "target " << target;
    }
}

TEST(FastCore, IpcMatchesRunningRateTimesUptime)
{
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(0.5, 0.5, 2.0, 1'000'000));
    sched.loop = true;
    FastCore core(sched, 42);
    for (int i = 0; i < 500'000; ++i)
        core.tick();
    const double stall = core.counters().stallRatio();
    // Committing only in non-blocked cycles at ipcWhenRunning.
    EXPECT_NEAR(core.counters().ipc(), 2.0 * (1.0 - stall), 0.25);
}

TEST(FastCore, DeterministicForSeed)
{
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(0.5, 0.5, 1.5, 100'000));
    sched.loop = true;
    FastCore a(sched, 7), b(sched, 7);
    for (int i = 0; i < 10'000; ++i)
        ASSERT_DOUBLE_EQ(a.tick(), b.tick());
}

TEST(FastCore, PhasesProgressAndLoop)
{
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(0.2, 0.5, 1.5, 1000));
    sched.phases.push_back(makeSpecPhase(0.8, 0.5, 1.5, 1000));
    sched.loop = true;
    FastCore core(sched, 7);
    EXPECT_EQ(core.currentPhaseIndex(), 0u);
    for (int i = 0; i < 1500; ++i)
        core.tick();
    EXPECT_EQ(core.currentPhaseIndex(), 1u);
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_EQ(core.currentPhaseIndex(), 0u); // looped
}

TEST(FastCore, FinishesWhenNotLooping)
{
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(0.3, 0.5, 1.5, 1000));
    sched.loop = false;
    FastCore core(sched, 7);
    for (int i = 0; i < 3000; ++i)
        core.tick();
    EXPECT_TRUE(core.finished());
    // Finished cores idle quietly.
    EXPECT_NEAR(core.tick(), 0.12, 1e-9);
}

TEST(FastCore, RecoveryStallBlocks)
{
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(0.0, 0.5, 1.5, 100'000));
    sched.loop = true;
    FastCore core(sched, 7);
    core.tick();
    core.injectRecoveryStall(40);
    std::uint64_t low = 0;
    for (int i = 0; i < 40; ++i)
        low += (core.tick() < 0.1);
    EXPECT_GT(low, 35u);
}

TEST(FastCore, ExpectedStallRatioFormulaConsistent)
{
    const auto phase = makeSpecPhase(0.6, 0.7, 1.2, 1000);
    EXPECT_NEAR(phase.expectedStallRatio(), 0.6, 0.05);
}

TEST(FastCoreDeath, EmptySchedule)
{
    PhaseSchedule sched;
    EXPECT_EXIT(FastCore(sched, 1), ::testing::ExitedWithCode(1),
                "at least one phase");
}

TEST(FastCoreDeath, ZeroLengthPhase)
{
    PhaseSchedule sched;
    sched.phases.push_back(ActivityPhase{});
    EXPECT_EXIT(FastCore(sched, 1), ::testing::ExitedWithCode(1),
                "zero-length");
}

/** Property sweep: the gap-solver calibration holds across the
 *  (stallRatio x memoryBoundness) plane. */
class FastCoreCalibration
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(FastCoreCalibration, RealizedStallNearTarget)
{
    const auto [target, mu] = GetParam();
    PhaseSchedule sched;
    sched.phases.push_back(makeSpecPhase(target, mu, 1.5, 1'000'000));
    sched.loop = true;
    FastCore core(sched, 1234);
    for (int i = 0; i < 600'000; ++i)
        core.tick();
    EXPECT_NEAR(core.counters().stallRatio(), target, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Plane, FastCoreCalibration,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0.1, 0.5, 0.9)));
