/**
 * @file
 * Differential tests of the scenario-lane engine: any mix of plans
 * drained through a LaneGroup must leave every System bit-identical
 * to running the same plan standalone — at every lane width, at every
 * SIMD dispatch level the host supports, through retirement/refill,
 * and across lanes whose OS-tick and trace boundaries disagree.
 * Everything is compared exactly (no tolerances).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "simd_levels.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::sim;

namespace {

std::unique_ptr<cpu::FastCore>
benchCore(const char *name, std::uint64_t seed, bool loop,
          Cycles baseLength = 9'000)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(name), baseLength,
                              loop),
        seed);
}

/** One scenario: a config, cores, and a run length. */
struct Scenario
{
    SystemConfig cfg;
    std::size_t nCores = 2;
    bool loop = true;
    std::uint64_t seed = 100;
    Cycles cycles = 20'000;
    /** Cycles both copies run standalone before the group starts. */
    Cycles prerun = 0;
};

std::unique_ptr<System>
buildSystem(const Scenario &sc)
{
    static const char *const kNames[] = {"sphinx", "mcf", "hmmer",
                                         "bzip2"};
    auto sys = std::make_unique<System>(sc.cfg);
    for (std::size_t i = 0; i < sc.nCores; ++i)
        sys->addCore(benchCore(kNames[i % 4], sc.seed + i, sc.loop));
    return sys;
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

void
expectSystemsIdentical(System &laned, System &solo)
{
    EXPECT_EQ(laned.cycles(), solo.cycles());
    EXPECT_EQ(laned.emergencies(), solo.emergencies());
    EXPECT_EQ(laned.dieVoltage(), solo.dieVoltage());
    EXPECT_EQ(laned.deviation(), solo.deviation());
    EXPECT_EQ(laned.totalCurrent(), solo.totalCurrent());

    expectHistogramsIdentical(laned.scope().histogram(),
                              solo.scope().histogram());

    const auto &bankA = laned.droopBank();
    const auto &bankB = solo.droopBank();
    ASSERT_EQ(bankA.size(), bankB.size());
    for (std::size_t i = 0; i < bankA.size(); ++i) {
        EXPECT_EQ(bankA.detector(i).eventCount(),
                  bankB.detector(i).eventCount())
            << "margin " << bankA.marginAt(i);
        EXPECT_EQ(bankA.detector(i).deepestEvent(),
                  bankB.detector(i).deepestEvent());
    }

    for (std::size_t i = 0; i < laned.numCores(); ++i) {
        const auto &ca = laned.core(i).counters();
        const auto &cb = solo.core(i).counters();
        EXPECT_EQ(ca.cycles(), cb.cycles());
        EXPECT_EQ(ca.instructions(), cb.instructions());
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses;
             ++c) {
            const auto cause = static_cast<cpu::StallCause>(c);
            EXPECT_EQ(ca.stallCycles(cause), cb.stallCycles(cause));
        }
    }

    if (laned.config().enableTrace) {
        const auto sa = laned.trace().chronological();
        const auto sb = solo.trace().chronological();
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].cycle, sb[i].cycle);
            EXPECT_EQ(sa[i].deviation, sb[i].deviation);
            EXPECT_EQ(sa[i].currentAmps, sb[i].currentAmps);
        }
    }
    if (laned.config().enableTimeline) {
        const auto &ta = laned.timelineSeries();
        const auto &tb = solo.timelineSeries();
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t i = 0; i < ta.size(); ++i)
            EXPECT_EQ(ta[i], tb[i]) << "interval " << i;
    }
}

/** Run every scenario laned (at `width`) and solo; compare exactly. */
void
runDifferential(const std::vector<Scenario> &scenarios,
                std::size_t width)
{
    std::vector<std::unique_ptr<System>> laned, solo;
    std::vector<LanePlan> plans;
    for (const Scenario &sc : scenarios) {
        laned.push_back(buildSystem(sc));
        solo.push_back(buildSystem(sc));
        laned.back()->run(sc.prerun);
        solo.back()->run(sc.prerun);
        plans.push_back({laned.back().get(), sc.cycles});
    }

    LaneGroup group(width);
    group.run(plans);

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        solo[i]->run(scenarios[i].cycles);
        SCOPED_TRACE("scenario " + std::to_string(i) + " width " +
                     std::to_string(width));
        expectSystemsIdentical(*laned[i], *solo[i]);
    }
}

/** A population with non-uniform core counts, run lengths, OS-tick
 *  intervals, and sinks — the general fusion + retirement case. */
std::vector<Scenario>
mixedPopulation(int count = 7)
{
    std::vector<Scenario> out;
    for (int i = 0; i < count; ++i) {
        Scenario sc;
        sc.seed = 500 + 31ULL * static_cast<std::uint64_t>(i);
        sc.nCores = (i % 3 == 0) ? 1 : 2;
        sc.cycles = 12'000 + 1'731 * static_cast<Cycles>(i % 8);
        sc.cfg.osTickInterval = (i % 2 == 0) ? 997 : 1'543;
        out.push_back(sc);
    }
    return out;
}

using vsmooth::testing::hostLevels;
using vsmooth::testing::LevelGuard;

TEST(LaneGroup, AllWidthsAllLevelsBitIdentical)
{
    LevelGuard guard;
    const auto scenarios = mixedPopulation();
    for (const simd::IsaLevel level : hostLevels()) {
        simd::setActiveLevel(level);
        for (const std::size_t width : {1u, 2u, 3u, 4u, 5u, 8u, 11u,
                                        16u}) {
            SCOPED_TRACE(std::string("level ") +
                         simd::levelName(level));
            runDifferential(scenarios, width);
        }
    }
}

TEST(LaneGroup, PopulationNotDivisibleByWidth)
{
    // 7 plans through 4 lanes: a full group, retirements, and a final
    // partial group that exercises the padded kernel columns.
    runDifferential(mixedPopulation(), 4);
}

TEST(LaneGroup, WidePopulationNotDivisibleBySixteen)
{
    // 21 plans through 16 lanes: one full 16-wide group and a final
    // 5-lane partial one, so the widest configuration exercises both
    // the fully-packed and the heavily-padded kernel columns.
    runDifferential(mixedPopulation(21), 16);
}

TEST(LaneGroup, EarlyRetirementPastLaneEight)
{
    // 12 lanes of interleaved finite and looping schedules with
    // shuffled run lengths: lanes on both sides of the old 8-lane
    // ceiling retire at staggered cycles, so repacking shifts lanes
    // 9..12 down through positions no 8-lane group could ever
    // populate.
    std::vector<Scenario> scenarios;
    for (int i = 0; i < 14; ++i) {
        Scenario sc;
        sc.seed = 1'300 + 19ULL * static_cast<std::uint64_t>(i);
        sc.loop = (i % 3 == 1);
        sc.cycles = 8'000 + 2'713 * static_cast<Cycles>((i * 5) % 14);
        sc.cfg.osTickInterval = 2'111;
        scenarios.push_back(sc);
    }
    runDifferential(scenarios, 12);
}

TEST(LaneGroup, WidthOneDegeneratesToBlockedPath)
{
    runDifferential(mixedPopulation(), 1);
}

TEST(LaneGroup, DifferingOsTickAndTraceBoundaries)
{
    // Lanes whose per-cycle fallbacks land on different cycles: prime
    // OS-tick intervals force lane-specific block truncation, and
    // small trace rings wrap at different times. The fused step must
    // truncate to the tightest lane without disturbing the others.
    std::vector<Scenario> scenarios;
    const Cycles ticks[] = {613, 997, 1'009, 25'000};
    for (int i = 0; i < 4; ++i) {
        Scenario sc;
        sc.seed = 900 + 17ULL * static_cast<std::uint64_t>(i);
        sc.cycles = 30'000;
        sc.cfg.osTickInterval = ticks[i];
        sc.cfg.enableTrace = true;
        sc.cfg.traceCapacity = 512u << i; // different wrap points
        sc.cfg.enableTimeline = true;
        sc.cfg.timelineInterval = 777 + 100 * static_cast<Cycles>(i);
        scenarios.push_back(sc);
    }
    runDifferential(scenarios, 4);
}

TEST(LaneGroup, MidSweepRetirementOnFiniteSchedules)
{
    // Finite and looping schedules interleaved: the finite lanes'
    // cores finish and idle mid-run, and staggered run lengths retire
    // lanes that refill from the queue mid-sweep.
    std::vector<Scenario> scenarios;
    for (int i = 0; i < 9; ++i) {
        Scenario sc;
        sc.seed = 40 + 13ULL * static_cast<std::uint64_t>(i);
        sc.loop = (i % 2 == 1);
        sc.cycles = 9'000 + 3'917 * static_cast<Cycles>((i * 4) % 9);
        sc.cfg.osTickInterval = 2'111;
        scenarios.push_back(sc);
    }
    runDifferential(scenarios, 4);
}

TEST(LaneGroup, IneligiblePlansRunSolo)
{
    // Mitigation feedback and split rails disqualify the block
    // pipeline; the group must route those plans through the
    // standalone scalar path and still match exactly.
    std::vector<Scenario> scenarios;
    Scenario plain;
    plain.seed = 7;
    scenarios.push_back(plain);

    Scenario mitigated;
    mitigated.seed = 8;
    mitigated.cfg.emergencyMargin = 0.033;
    mitigated.cfg.recoveryCostCycles = 160;
    scenarios.push_back(mitigated);

    Scenario split;
    split.seed = 9;
    split.cfg.splitSupplies = true;
    scenarios.push_back(split);

    runDifferential(scenarios, 4);
}

TEST(LaneGroup, ZeroCycleAndPrefinishedPlans)
{
    // run(0) must not even start the System (no PDN settling), and a
    // System whose finite schedules finished before the group starts
    // must keep running its idle cores from where it stopped — both
    // match the standalone semantics.
    std::vector<Scenario> scenarios;
    Scenario zero;
    zero.seed = 70;
    zero.cycles = 0;
    scenarios.push_back(zero);

    Scenario finished;
    finished.seed = 71;
    finished.loop = false;
    finished.prerun = 30'000;
    finished.cycles = 5'000;
    scenarios.push_back(finished);
    const auto probe = buildSystem(finished);
    probe->run(finished.prerun);
    for (std::size_t i = 0; i < probe->numCores(); ++i)
        ASSERT_TRUE(probe->core(i).finished()) << "core " << i;

    Scenario normal;
    normal.seed = 72;
    normal.cycles = 9'000;
    scenarios.push_back(normal);

    runDifferential(scenarios, 4);
}

TEST(LaneGroup, SweepMatchesSoloRunsAndKeepsStreamsAlive)
{
    // runSweep over scenarios whose DetailedCores borrow instruction
    // streams the scenario owns: with several workers and a lane width
    // that does not divide the sweep, every extracted System matches
    // the same scenario run solo.
    const auto &kinds = workload::kEventMicrobenchmarks;
    auto prepare = [&](std::size_t t) {
        sim::Scenario sc{System(SystemConfig{}),
                         4'000 + 1'111 * static_cast<Cycles>(t % 4)};
        sc.streams.push_back(
            workload::makeMicrobenchmark(kinds[t % kinds.size()], t));
        sc.system.addCore(std::make_unique<cpu::DetailedCore>(
            cpu::DetailedCoreParams{}, *sc.streams[0]));
        sc.system.addCore(benchCore("mcf", 60 + t, true));
        return sc;
    };
    struct Observed
    {
        noise::Scope scope;
        Cycles cycles = 0;
        std::uint64_t instructions = 0;
    };
    constexpr std::size_t kTotal = 7;
    std::vector<Observed> swept(kTotal);
    ASSERT_EQ(setenv("VSMOOTH_LANES", "3", 1), 0);
    setJobs(2);
    runSweep(kTotal, prepare, [&](std::size_t t, System &sys) {
        swept[t] = {sys.scope(), sys.cycles(),
                    sys.core(0).counters().instructions()};
    });
    setJobs(0);
    ASSERT_EQ(unsetenv("VSMOOTH_LANES"), 0);

    for (std::size_t t = 0; t < kTotal; ++t) {
        SCOPED_TRACE("scenario " + std::to_string(t));
        sim::Scenario solo = prepare(t);
        solo.system.run(solo.cycles);
        EXPECT_EQ(swept[t].cycles, solo.system.cycles());
        EXPECT_EQ(swept[t].instructions,
                  solo.system.core(0).counters().instructions());
        expectHistogramsIdentical(swept[t].scope.histogram(),
                                  solo.system.scope().histogram());
    }
}

TEST(LaneGroup, DefaultWidthHonoursLanesEnv)
{
    ASSERT_EQ(setenv("VSMOOTH_LANES", "3", 1), 0);
    EXPECT_EQ(LaneGroup().width(), 3u);
    ASSERT_EQ(setenv("VSMOOTH_LANES", "8", 1), 0);
    EXPECT_EQ(LaneGroup().width(), 8u);
    ASSERT_EQ(setenv("VSMOOTH_LANES", "16", 1), 0);
    EXPECT_EQ(LaneGroup().width(), 16u);
    ASSERT_EQ(unsetenv("VSMOOTH_LANES"), 0);
    EXPECT_GE(LaneGroup().width(), 4u);
}

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

CliResult
runCli(const std::string &env, const std::string &args)
{
    const std::string cmd = env + " " + std::string(VSMOOTH_CLI_PATH) +
        " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult r;
    std::array<char, 4096> buf;
    while (pipe && fgets(buf.data(), buf.size(), pipe))
        r.output += buf.data();
    if (pipe) {
        const int status = pclose(pipe);
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return r;
}

TEST(SimdOverride, UnknownLevelIsFatalAndListsAccepted)
{
    // sse2 has no backend, so it is rejected like any unknown level.
    for (const char *level : {"avx999", "sse2"}) {
        const CliResult r = runCli(std::string("VSMOOTH_SIMD=") + level,
                                   "fuzz --iters 1 --seed 1");
        EXPECT_NE(r.exitCode, 0) << level << ": " << r.output;
        EXPECT_NE(r.output.find("scalar, avx2, avx512"),
                  std::string::npos)
            << level << ": " << r.output;
    }
}

TEST(SimdOverride, KnownLevelRoundTrips)
{
    const CliResult r =
        runCli("VSMOOTH_SIMD=scalar", "fuzz --iters 5 --seed 1");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("scalar"), std::string::npos) << r.output;
}

TEST(SimdOverride, Avx512RoundTripsOrIsFatalByHost)
{
    // A valid level name must round-trip where the host supports it
    // and die with the host's maximum where it does not — the same
    // spelled-out override behaves differently only by host capability,
    // never by accepted-set membership.
    const CliResult r =
        runCli("VSMOOTH_SIMD=avx512", "fuzz --iters 5 --seed 1");
    if (static_cast<int>(simd::detectHostLevel()) >=
        static_cast<int>(simd::IsaLevel::Avx512)) {
        EXPECT_EQ(r.exitCode, 0) << r.output;
        EXPECT_NE(r.output.find("avx512"), std::string::npos)
            << r.output;
    } else {
        EXPECT_NE(r.exitCode, 0) << r.output;
        EXPECT_NE(r.output.find("host maximum"), std::string::npos)
            << r.output;
    }
}

TEST(SimdOverride, BadLaneCountIsFatal)
{
    const CliResult r =
        runCli("VSMOOTH_LANES=17", "fuzz --iters 1 --seed 1");
    EXPECT_NE(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("VSMOOTH_LANES"), std::string::npos)
        << r.output;
}

} // namespace
