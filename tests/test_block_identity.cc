/**
 * @file
 * Differential tests of the batched block pipeline: a System run with
 * blocked execution enabled must be *bit-identical* to the same run
 * forced through the per-cycle scalar path. Every observable is
 * compared exactly (no tolerances): cycle counts, scope histogram
 * contents, droop-detector event counts, emergencies, timeline
 * series, and trace samples.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/fast_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::sim;

namespace {

std::unique_ptr<cpu::FastCore>
benchCore(const char *name, std::uint64_t seed, bool loop = true,
          Cycles baseLength = 200'000)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(name), baseLength,
                              loop),
        seed);
}

/** Build one system per config; cores chosen by index from a fixed
 *  spread of benchmarks with per-core seeds. */
void
addCores(System &sys, std::size_t nCores, bool loop = true)
{
    static const char *const kNames[] = {"sphinx", "mcf", "hmmer",
                                         "bzip2"};
    for (std::size_t i = 0; i < nCores; ++i)
        sys.addCore(benchCore(kNames[i % 4], 100 + i, loop));
}

void
expectHistogramsIdentical(const Histogram &a, const Histogram &b)
{
    ASSERT_EQ(a.numBins(), b.numBins());
    EXPECT_EQ(a.totalCount(), b.totalCount());
    EXPECT_EQ(a.underflowCount(), b.underflowCount());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    EXPECT_EQ(a.minSample(), b.minSample());
    EXPECT_EQ(a.maxSample(), b.maxSample());
    for (std::size_t i = 0; i < a.numBins(); ++i)
        EXPECT_EQ(a.binCount(i), b.binCount(i)) << "bin " << i;
}

/** Exact-equality comparison of every observable of two systems that
 *  ran the same workload through different execution paths. */
void
expectSystemsIdentical(System &blocked, System &scalar)
{
    EXPECT_EQ(blocked.cycles(), scalar.cycles());
    EXPECT_EQ(blocked.emergencies(), scalar.emergencies());
    EXPECT_EQ(blocked.dieVoltage(), scalar.dieVoltage());
    EXPECT_EQ(blocked.deviation(), scalar.deviation());
    EXPECT_EQ(blocked.totalCurrent(), scalar.totalCurrent());

    expectHistogramsIdentical(blocked.scope().histogram(),
                              scalar.scope().histogram());

    const auto &bankA = blocked.droopBank();
    const auto &bankB = scalar.droopBank();
    ASSERT_EQ(bankA.size(), bankB.size());
    for (std::size_t i = 0; i < bankA.size(); ++i) {
        EXPECT_EQ(bankA.marginAt(i), bankB.marginAt(i));
        EXPECT_EQ(bankA.detector(i).eventCount(),
                  bankB.detector(i).eventCount())
            << "margin " << bankA.marginAt(i);
        EXPECT_EQ(bankA.detector(i).deepestEvent(),
                  bankB.detector(i).deepestEvent());
    }

    for (std::size_t i = 0; i < blocked.numCores(); ++i) {
        const auto &ca = blocked.core(i).counters();
        const auto &cb = scalar.core(i).counters();
        EXPECT_EQ(ca.cycles(), cb.cycles());
        EXPECT_EQ(ca.instructions(), cb.instructions());
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses; ++c) {
            const auto cause = static_cast<cpu::StallCause>(c);
            EXPECT_EQ(ca.eventCount(cause), cb.eventCount(cause));
            EXPECT_EQ(ca.stallCycles(cause), cb.stallCycles(cause));
        }
    }
}

/** Run the same config/workload blocked and scalar for n cycles. */
void
runDifferential(SystemConfig cfg, std::size_t nCores, Cycles n,
                bool expectBlocked)
{
    cfg.enableBlockedExecution = true;
    System blocked(cfg);
    cfg.enableBlockedExecution = false;
    System scalar(cfg);
    addCores(blocked, nCores);
    addCores(scalar, nCores);

    EXPECT_EQ(blocked.blockedExecutionActive(), expectBlocked);
    EXPECT_FALSE(scalar.blockedExecutionActive());

    blocked.run(n);
    scalar.run(n);
    expectSystemsIdentical(blocked, scalar);
}

TEST(BlockIdentity, SingleCore)
{
    SystemConfig cfg;
    runDifferential(cfg, 1, 60'000, true);
}

TEST(BlockIdentity, DualCore)
{
    SystemConfig cfg;
    runDifferential(cfg, 2, 60'000, true);
}

TEST(BlockIdentity, QuadCore)
{
    SystemConfig cfg;
    runDifferential(cfg, 4, 60'000, true);
}

TEST(BlockIdentity, OsTicksOnNonBlockAlignedInterval)
{
    // 997 is prime (not a multiple or divisor of the 256-cycle
    // block), so injections land mid-block and force truncated blocks
    // plus single-tick fallbacks on every interval.
    SystemConfig cfg;
    cfg.osTickInterval = 997;
    runDifferential(cfg, 4, 50'000, true);
}

TEST(BlockIdentity, TraceAndTimelineSinks)
{
    SystemConfig cfg;
    cfg.osTickInterval = 1009;
    cfg.enableTrace = true;
    cfg.traceCapacity = 1024; // small: exercises ring wrap-around
    cfg.enableTimeline = true;
    cfg.timelineInterval = 777; // non-aligned close points

    cfg.enableBlockedExecution = true;
    System blocked(cfg);
    cfg.enableBlockedExecution = false;
    System scalar(cfg);
    addCores(blocked, 2);
    addCores(scalar, 2);
    EXPECT_TRUE(blocked.blockedExecutionActive());

    blocked.run(40'000);
    scalar.run(40'000);
    expectSystemsIdentical(blocked, scalar);

    const auto &seriesA = blocked.timelineSeries();
    const auto &seriesB = scalar.timelineSeries();
    ASSERT_EQ(seriesA.size(), seriesB.size());
    for (std::size_t i = 0; i < seriesA.size(); ++i)
        EXPECT_EQ(seriesA[i], seriesB[i]) << "interval " << i;

    const auto samplesA = blocked.trace().chronological();
    const auto samplesB = scalar.trace().chronological();
    ASSERT_EQ(samplesA.size(), samplesB.size());
    for (std::size_t i = 0; i < samplesA.size(); ++i) {
        EXPECT_EQ(samplesA[i].cycle, samplesB[i].cycle);
        EXPECT_EQ(samplesA[i].deviation, samplesB[i].deviation);
        EXPECT_EQ(samplesA[i].currentAmps, samplesB[i].currentAmps);
    }
}

TEST(BlockIdentity, MitigationsDisqualifyButStayIdentical)
{
    // Emergency detector + predictor + damper: per-cycle feedback
    // consumers, so the blocked system must fall back to the scalar
    // path (blockedExecutionActive() == false) and trivially match.
    SystemConfig cfg;
    cfg.emergencyMargin = 0.033;
    cfg.recoveryCostCycles = 160;
    cfg.enableEmergencyPredictor = true;
    cfg.enableResonanceDamper = true;
    runDifferential(cfg, 2, 30'000, false);
}

TEST(BlockIdentity, SplitRailsDisqualify)
{
    SystemConfig cfg;
    cfg.splitSupplies = true;
    runDifferential(cfg, 2, 30'000, false);
}

TEST(BlockIdentity, FiniteSchedulesFinishMidRun)
{
    // Non-looping schedules finish well inside the run and then idle
    // (still taking OS ticks) for the rest of it; the finish lands
    // mid-block on the blocked path, which must not notice.
    SystemConfig cfg;
    cfg.osTickInterval = 4099;
    cfg.enableBlockedExecution = true;
    System blocked(cfg);
    cfg.enableBlockedExecution = false;
    System scalar(cfg);
    addCores(blocked, 2, /*loop=*/false);
    addCores(scalar, 2, /*loop=*/false);
    EXPECT_TRUE(blocked.blockedExecutionActive());

    blocked.run(2'000'000);
    scalar.run(2'000'000);
    expectSystemsIdentical(blocked, scalar);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(blocked.core(i).finished()) << "core " << i;
        EXPECT_TRUE(scalar.core(i).finished()) << "core " << i;
    }
}

TEST(BlockIdentity, ChunkedRunsMatchOneShot)
{
    // run() called in odd-sized pieces must land on the same state as
    // one big run: block truncation at call boundaries is harmless.
    SystemConfig cfg;
    cfg.osTickInterval = 997;
    System whole(cfg), pieces(cfg);
    addCores(whole, 2);
    addCores(pieces, 2);
    whole.run(30'000);
    for (Cycles step : {1u, 7u, 255u, 256u, 257u, 1000u, 28224u})
        pieces.run(step);
    expectSystemsIdentical(whole, pieces);
}

} // namespace
