/** @file Tests for the top-level System coupling. */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/fast_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::sim;

namespace {

std::unique_ptr<cpu::FastCore>
sphinxCore(std::uint64_t seed)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("sphinx"), 200'000,
                              true),
        seed);
}

std::unique_ptr<cpu::FastCore>
idleCore(std::uint64_t seed)
{
    return std::make_unique<cpu::FastCore>(workload::idleSchedule(1000),
                                           seed);
}

} // namespace

TEST(System, TicksAndCounts)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addCore(idleCore(1));
    sys.run(1000);
    EXPECT_EQ(sys.cycles(), 1000u);
    EXPECT_EQ(sys.numCores(), 1u);
    EXPECT_EQ(sys.scope().histogram().totalCount(), 1000u);
}

TEST(System, DieVoltageNearNominalAtIdle)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addCore(idleCore(1));
    sys.addCore(idleCore(2));
    sys.run(100'000);
    EXPECT_NEAR(sys.deviation(), 0.0, 0.025);
    EXPECT_NEAR(sys.dieVoltage(), cfg.package.vddNominal.value(), 0.04);
    // Idle machines stay within the paper's 2.3% idle margin.
    EXPECT_LT(sys.scope().maxDroop(), kIdleMargin);
}

TEST(System, BusyCoreDrawsMoreCurrent)
{
    SystemConfig cfg;
    System a(cfg), b(cfg);
    a.addCore(idleCore(1));
    a.addCore(idleCore(2));
    b.addCore(sphinxCore(1));
    b.addCore(sphinxCore(2));
    a.run(50'000);
    b.run(50'000);
    EXPECT_GT(b.totalCurrent(), a.totalCurrent());
}

TEST(System, DeterministicForSeeds)
{
    SystemConfig cfg;
    System a(cfg), b(cfg);
    a.addCore(sphinxCore(7));
    b.addCore(sphinxCore(7));
    for (int i = 0; i < 20'000; ++i) {
        a.tick();
        b.tick();
        ASSERT_DOUBLE_EQ(a.deviation(), b.deviation());
    }
}

TEST(System, EmergencyTriggersGlobalRecovery)
{
    SystemConfig cfg;
    // A margin tight enough that a busy machine violates it quickly.
    cfg.emergencyMargin = 0.012;
    cfg.recoveryCostCycles = 200;
    System sys(cfg);
    sys.addCore(sphinxCore(3));
    sys.addCore(sphinxCore(4));
    sys.run(200'000);
    EXPECT_GT(sys.emergencies(), 0u);
    // Recovery stalls must appear on BOTH cores (shared supply ->
    // global rollback).
    EXPECT_GT(sys.core(0).counters().stallCycles(
                  cpu::StallCause::Recovery),
              0u);
    EXPECT_GT(sys.core(1).counters().stallCycles(
                  cpu::StallCause::Recovery),
              0u);
}

TEST(System, RecoveriesCostPerformance)
{
    SystemConfig base;
    System without(base);
    without.addCore(sphinxCore(3));
    without.addCore(sphinxCore(4));
    without.run(300'000);

    SystemConfig cfg;
    cfg.emergencyMargin = 0.012;
    cfg.recoveryCostCycles = 2000;
    System with(cfg);
    with.addCore(sphinxCore(3));
    with.addCore(sphinxCore(4));
    with.run(300'000);

    EXPECT_LT(with.core(0).counters().instructions(),
              without.core(0).counters().instructions());
}

TEST(System, TimelineProducesIntervals)
{
    SystemConfig cfg;
    cfg.enableTimeline = true;
    cfg.timelineInterval = 10'000;
    System sys(cfg);
    sys.addCore(sphinxCore(5));
    sys.run(50'000);
    EXPECT_EQ(sys.timelineSeries().size(), 5u);
}

TEST(System, DetectorBankSeesDeepMarginsMuchLess)
{
    // Event counts are not strictly monotone across margins (one
    // shallow excursion can contain several deep re-armed events),
    // but the deep end of the sweep must see far fewer events than
    // the shallow end.
    SystemConfig cfg;
    System sys(cfg);
    sys.addCore(sphinxCore(5));
    sys.addCore(sphinxCore(6));
    sys.run(300'000);
    const auto &bank = sys.droopBank();
    EXPECT_GT(bank.eventCountAt(0), 0u);
    EXPECT_LT(bank.eventCountAt(bank.size() - 1),
              bank.eventCountAt(0) / 10 + 1);
}

TEST(SystemDeath, TickWithoutCores)
{
    SystemConfig cfg;
    System sys(cfg);
    EXPECT_EXIT(sys.tick(), ::testing::ExitedWithCode(1), "no cores");
}

TEST(SystemDeath, AddCoreAfterStart)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addCore(idleCore(1));
    sys.tick();
    EXPECT_EXIT(sys.addCore(idleCore(2)), ::testing::ExitedWithCode(1),
                "before the first tick");
}

TEST(SystemDeath, EmergencyMarginNeedsCost)
{
    SystemConfig cfg;
    cfg.emergencyMargin = 0.05;
    cfg.recoveryCostCycles = 0;
    EXPECT_EXIT(System sys(cfg), ::testing::ExitedWithCode(1),
                "recovery cost");
}

TEST(SystemDeath, TimelineNotEnabled)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addCore(idleCore(1));
    EXPECT_EXIT(sys.timelineSeries(), ::testing::ExitedWithCode(1),
                "timeline");
}

namespace {

/** Core stub that records the cycle index of every platform
 *  interrupt it receives (cycle = ticks seen so far, since the System
 *  injects before advancing the cores for that cycle). */
class InjectionRecorder : public cpu::CoreModel
{
  public:
    double tick() override
    {
        ++ticks_;
        return 0.3;
    }
    const cpu::PerfCounters &counters() const override
    { return counters_; }
    void injectRecoveryStall(std::uint32_t) override {}
    void injectPlatformInterrupt() override
    { injections_.push_back(ticks_); }
    bool finished() const override { return false; }

    const std::vector<Cycles> &injections() const { return injections_; }

  private:
    std::uint64_t ticks_ = 0;
    cpu::PerfCounters counters_;
    std::vector<Cycles> injections_;
};

std::vector<Cycles>
expectedInjectionCycles(std::size_t coreIdx, Cycles interval, Cycles n)
{
    // The documented staggering contract: core i takes its tick on
    // every cycle c with (c + i * 517) % interval == interval - 1.
    std::vector<Cycles> cycles;
    for (Cycles c = 0; c < n; ++c) {
        if ((c + coreIdx * 517) % interval == interval - 1)
            cycles.push_back(c);
    }
    return cycles;
}

} // namespace

TEST(System, OsTickInjectionCyclesMatchStaggerFormula)
{
    // The countdown-counter implementation must inject on exactly the
    // cycles the old per-cycle modulo selected, on both execution
    // paths. 300 is deliberately not a divisor or multiple of the
    // 256-cycle block so injections land mid-block.
    constexpr Cycles kInterval = 300;
    constexpr Cycles kRun = 5000;
    constexpr std::size_t kCores = 4;

    for (const bool blockedPath : {true, false}) {
        SystemConfig cfg;
        cfg.osTickInterval = kInterval;
        cfg.enableBlockedExecution = blockedPath;
        System sys(cfg);
        std::vector<const InjectionRecorder *> recorders;
        for (std::size_t i = 0; i < kCores; ++i) {
            auto core = std::make_unique<InjectionRecorder>();
            recorders.push_back(core.get());
            sys.addCore(std::move(core));
        }
        EXPECT_EQ(sys.blockedExecutionActive(), blockedPath);
        sys.run(kRun);
        for (std::size_t i = 0; i < kCores; ++i) {
            EXPECT_EQ(recorders[i]->injections(),
                      expectedInjectionCycles(i, kInterval, kRun))
                << "core " << i << " blocked=" << blockedPath;
        }
    }
}
