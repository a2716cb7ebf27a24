/** @file Tests for margin-dependent bit-flip fault injection. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/parallel.hh"
#include "cpu/fault_injector.hh"
#include "simtest/properties.hh"

using namespace vsmooth;
using namespace vsmooth::cpu;

namespace {

FaultModelParams
model(double rate = 1e-2)
{
    FaultModelParams p;
    p.rateAtZeroMargin = rate;
    return p;
}

/** Fault decision sequence for one structure over [0, n). */
std::vector<std::uint64_t>
faultIndices(std::uint64_t seed, std::size_t structureId,
             std::uint64_t threshold, std::uint64_t n)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < n; ++i)
        if (FaultInjector::wouldFault(seed, structureId, i, threshold))
            out.push_back(i);
    return out;
}

} // namespace

TEST(FaultInjector, RateMonotoneInMargin)
{
    const auto params = model();
    double prev = FaultInjector::faultProbabilityAt(params, 0.0);
    EXPECT_DOUBLE_EQ(prev, params.rateAtZeroMargin);
    for (double m = 0.005; m < params.safeMargin; m += 0.005) {
        const double p = FaultInjector::faultProbabilityAt(params, m);
        EXPECT_LT(p, prev) << "margin " << m;
        EXPECT_GT(p, 0.0) << "margin " << m;
        prev = p;
    }

    // Observed fault counts inherit the monotonicity: thinner margins
    // fault a superset of accesses, so counts can only grow.
    std::uint64_t prevCount = 0;
    for (double m : {0.05, 0.04, 0.03, 0.02, 0.01, 0.0}) {
        FaultInjector fresh(params, 99);
        const std::size_t fid = fresh.registerStructure();
        fresh.setMargin(m);
        for (std::uint64_t i = 0; i < 20'000; ++i)
            fresh.shouldFault(fid, i);
        EXPECT_GE(fresh.faultCount(fid), prevCount) << "margin " << m;
        prevCount = fresh.faultCount(fid);
    }
    EXPECT_GT(prevCount, 0u);
}

TEST(FaultInjector, ExactlyZeroAtNominalMargin)
{
    const auto params = model(0.05);
    FaultInjector inj(params, 12345);
    const std::size_t id = inj.registerStructure();

    for (double m : {params.safeMargin, params.safeMargin + 0.01, 0.25}) {
        inj.setMargin(m);
        EXPECT_DOUBLE_EQ(inj.faultProbability(), 0.0) << "margin " << m;
        EXPECT_EQ(inj.threshold(), 0u) << "margin " << m;
        for (std::uint64_t i = 0; i < 10'000; ++i)
            EXPECT_FALSE(inj.shouldFault(id, i));
    }
    EXPECT_EQ(inj.faultCount(id), 0u);
}

TEST(FaultInjector, NestedFaultSetsAcrossMargins)
{
    const auto params = model();
    const std::uint64_t thin = FaultInjector::thresholdFor(
        FaultInjector::faultProbabilityAt(params, 0.01));
    const std::uint64_t wide = FaultInjector::thresholdFor(
        FaultInjector::faultProbabilityAt(params, 0.04));
    ASSERT_GT(thin, wide);

    // Every access that faults at the wider margin faults at the
    // thinner one too: the sets are exactly nested, not just the
    // counts ordered.
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        if (FaultInjector::wouldFault(7, 0, i, wide)) {
            EXPECT_TRUE(FaultInjector::wouldFault(7, 0, i, thin))
                << "access " << i;
        }
    }
}

TEST(FaultInjector, SequenceIdenticalAcrossJobsAndPartitions)
{
    const auto params = model();
    const std::uint64_t threshold = FaultInjector::thresholdFor(
        FaultInjector::faultProbabilityAt(params, 0.015));
    constexpr std::uint64_t kN = 100'000;

    const auto serial = faultIndices(31, 2, threshold, kN);
    ASSERT_FALSE(serial.empty());

    // The decision for access i is a pure function of (seed, id, i):
    // any partition of the index space across any worker count
    // reassembles to the identical sequence.
    for (std::size_t jobs : {1u, 3u, 8u}) {
        setJobs(jobs);
        constexpr std::size_t kChunks = 16;
        auto chunks = parallelMap<std::vector<std::uint64_t>>(
            kChunks, [&](std::size_t c) {
                std::vector<std::uint64_t> out;
                for (std::uint64_t i = c; i < kN; i += kChunks)
                    if (FaultInjector::wouldFault(31, 2, i, threshold))
                        out.push_back(i);
                return out;
            });
        std::vector<std::uint64_t> merged;
        for (const auto &chunk : chunks)
            merged.insert(merged.end(), chunk.begin(), chunk.end());
        std::sort(merged.begin(), merged.end());
        EXPECT_EQ(merged, serial) << "jobs " << jobs;
    }
    setJobs(0);
}

TEST(FaultInjector, CountersConservedBetweenBlockedAndScalarPaths)
{
    // The full rig (detailed core, caches + TLB with injection wired
    // in) must count exactly the same faults whether the system runs
    // the batched block pipeline or ticks cycle by cycle.
    const auto blocked =
        simtest::runFaultRig(5, 0.02, 5e-3, Cycles(30'000), false);
    const auto scalar =
        simtest::runFaultRig(5, 0.02, 5e-3, Cycles(30'000), true);
    EXPECT_GT(blocked.totalFaults(), 0u);
    EXPECT_EQ(blocked, scalar);

    // And an identical rerun reproduces the identical counts.
    const auto replay =
        simtest::runFaultRig(5, 0.02, 5e-3, Cycles(30'000), false);
    EXPECT_EQ(blocked, replay);
}
