/** @file Tests for the scheduling study machinery. */

#include <gtest/gtest.h>

#include "sched/oracle_matrix.hh"
#include "sched/pass_analysis.hh"
#include "sched/policy.hh"
#include "sched/sliding_window.hh"

using namespace vsmooth;
using namespace vsmooth::sched;

namespace {

/** Small 6-benchmark matrix so the tests run fast. */
const OracleMatrix &
smallMatrix()
{
    static const OracleMatrix matrix = [] {
        std::vector<workload::SpecBenchmark> suite;
        for (const char *name :
             {"hmmer", "povray", "gamess", "sphinx", "mcf", "lbm"})
            suite.push_back(workload::specByName(name));
        OracleConfig cfg;
        cfg.cyclesPerPair = 120'000;
        return OracleMatrix(suite, cfg);
    }();
    return matrix;
}

std::vector<std::size_t>
twoCopiesPool(std::size_t n)
{
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < n; ++i) {
        pool.push_back(i);
        pool.push_back(i);
    }
    return pool;
}

} // namespace

TEST(OracleMatrix, SymmetricByConstruction)
{
    const auto &m = smallMatrix();
    for (std::size_t i = 0; i < m.size(); ++i) {
        for (std::size_t j = 0; j < m.size(); ++j) {
            EXPECT_DOUBLE_EQ(m.pair(i, j).droopsPer1k,
                             m.pair(j, i).droopsPer1k);
        }
    }
}

TEST(OracleMatrix, ProfilesPopulated)
{
    const auto &m = smallMatrix();
    EXPECT_EQ(m.size(), 6u);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_GT(m.single(i).ipc, 0.0);
        EXPECT_GT(m.specRate(i).ipc, m.single(i).ipc);
        EXPECT_GT(m.pair(i, (i + 1) % m.size()).emergencies.cycles, 0u);
    }
}

TEST(OracleMatrix, NoisyPairsDroopMore)
{
    const auto &m = smallMatrix();
    // hmmer (low stall) self-pair vs mcf+sphinx (heavy).
    EXPECT_LT(m.pair(0, 0).droopsPer1k, m.pair(3, 4).droopsPer1k);
}

TEST(OracleMatrix, MeasurePairMatchesTheMatrixCell)
{
    const auto &m = smallMatrix();
    std::vector<workload::SpecBenchmark> suite;
    for (std::size_t i = 0; i < m.size(); ++i)
        suite.push_back(m.benchmark(i));
    for (const auto &[i, j] : std::vector<std::pair<std::size_t,
                                                    std::size_t>>{
             {0, 0}, {1, 4}, {4, 1}, {5, 5}}) {
        const PairProfile p =
            OracleMatrix::measurePair(suite, m.config(), i, j);
        const PairProfile &cell = m.pair(i, j);
        EXPECT_EQ(p.droopsPer1k, cell.droopsPer1k) << i << "," << j;
        EXPECT_EQ(p.ipc, cell.ipc) << i << "," << j;
        EXPECT_EQ(p.emergencies.cycles, cell.emergencies.cycles);
        EXPECT_EQ(p.emergencies.margins, cell.emergencies.margins);
        EXPECT_EQ(p.emergencies.counts, cell.emergencies.counts);
    }
}

TEST(Policy, NamesStable)
{
    EXPECT_EQ(policyName(PolicyKind::Random), "Random");
    EXPECT_EQ(policyName(PolicyKind::Droop), "Droop");
    EXPECT_EQ(policyName(PolicyKind::Ipc), "IPC");
}

TEST(Policy, SchedulePairsEveryJobExactlyOnce)
{
    const auto &m = smallMatrix();
    Rng rng(1);
    for (auto kind : {PolicyKind::Random, PolicyKind::Ipc,
                      PolicyKind::Droop, PolicyKind::IpcOverDroopN}) {
        const auto sched =
            buildSchedule(twoCopiesPool(m.size()), m, kind, rng, 1.0);
        EXPECT_EQ(sched.size(), m.size());
        std::vector<int> uses(m.size(), 0);
        for (const auto &p : sched) {
            ++uses[p.a];
            ++uses[p.b];
        }
        for (int u : uses)
            EXPECT_EQ(u, 2);
    }
}

TEST(Policy, DroopPolicyMinimizesDroops)
{
    const auto &m = smallMatrix();
    Rng rng(2);
    const auto pool = twoCopiesPool(m.size());
    const auto droop_sched =
        buildSchedule(pool, m, PolicyKind::Droop, rng);
    const auto droop = evaluateSchedule(droop_sched, m).meanDroopsPer1k;

    double random_mean = 0.0;
    for (int k = 0; k < 20; ++k) {
        const auto r = buildSchedule(pool, m, PolicyKind::Random, rng);
        random_mean += evaluateSchedule(r, m).meanDroopsPer1k;
    }
    random_mean /= 20.0;
    EXPECT_LT(droop, random_mean);
}

TEST(Policy, IpcPolicyMaximizesThroughput)
{
    const auto &m = smallMatrix();
    Rng rng(3);
    const auto pool = twoCopiesPool(m.size());
    const auto ipc_sched = buildSchedule(pool, m, PolicyKind::Ipc, rng);
    const auto ipc = evaluateSchedule(ipc_sched, m).meanIpc;

    double random_mean = 0.0;
    for (int k = 0; k < 20; ++k) {
        const auto r = buildSchedule(pool, m, PolicyKind::Random, rng);
        random_mean += evaluateSchedule(r, m).meanIpc;
    }
    random_mean /= 20.0;
    EXPECT_GE(ipc, random_mean * 0.998);
}

TEST(Policy, HybridInterpolatesBetweenIpcAndDroop)
{
    const auto &m = smallMatrix();
    Rng rng(4);
    const auto pool = twoCopiesPool(m.size());
    const auto droopish = evaluateSchedule(
        buildSchedule(pool, m, PolicyKind::IpcOverDroopN, rng, 8.0), m);
    const auto ipcish = evaluateSchedule(
        buildSchedule(pool, m, PolicyKind::IpcOverDroopN, rng, 0.01), m);
    const auto pure_ipc = evaluateSchedule(
        buildSchedule(pool, m, PolicyKind::Ipc, rng), m);
    // Heavy exponent behaves like Droop (fewer droops); tiny exponent
    // like IPC.
    EXPECT_LE(droopish.meanDroopsPer1k, ipcish.meanDroopsPer1k + 1e-9);
    EXPECT_NEAR(ipcish.meanIpc, pure_ipc.meanIpc,
                0.15 * pure_ipc.meanIpc);
}

TEST(Policy, SpecRateScheduleSelfPairs)
{
    const auto &m = smallMatrix();
    const auto sched = specRateSchedule(m);
    ASSERT_EQ(sched.size(), m.size());
    for (std::size_t i = 0; i < sched.size(); ++i) {
        EXPECT_EQ(sched[i].a, i);
        EXPECT_EQ(sched[i].b, i);
    }
}

TEST(Policy, NormalizationAgainstSpecRateIsIdentityForSpecRate)
{
    const auto &m = smallMatrix();
    const auto norm = normalizeAgainstSpecRate(
        evaluateSchedule(specRateSchedule(m), m), m);
    EXPECT_NEAR(norm.droops, 1.0, 1e-12);
    EXPECT_NEAR(norm.performance, 1.0, 1e-12);
}

TEST(PolicyDeath, OddPoolRejected)
{
    const auto &m = smallMatrix();
    Rng rng(5);
    EXPECT_EXIT(buildSchedule({0, 1, 2}, m, PolicyKind::Random, rng),
                ::testing::ExitedWithCode(1), "odd");
}

TEST(PassAnalysis, AggregateProfileCoversAllCycles)
{
    const auto &m = smallMatrix();
    const auto agg = aggregateProfile(m);
    // 6 singles + 21 unique pairs, each 120k cycles.
    EXPECT_EQ(agg.cycles, (6 + 21) * 120'000u);
}

TEST(PassAnalysis, TableRowsBehaveLikePaper)
{
    const auto &m = smallMatrix();
    const auto rows = optimalMarginTable(m, {1, 100, 10'000});
    ASSERT_EQ(rows.size(), 3u);
    // Optimal margin relaxes (grows) and expected improvement falls
    // as recovery coarsens.
    EXPECT_LE(rows[0].optimalMargin, rows[2].optimalMargin);
    EXPECT_GE(rows[0].expectedImprovementPercent,
              rows[2].expectedImprovementPercent);
    for (const auto &row : rows) {
        EXPECT_GE(row.passingSpecRate, 0);
        EXPECT_LE(row.passingSpecRate, 6);
    }
}

TEST(PassAnalysis, CountPassingBounded)
{
    const auto &m = smallMatrix();
    const auto rows = optimalMarginTable(m, {100});
    const auto sched = specRateSchedule(m);
    const int n = countPassing(sched, m, rows[0].optimalMargin, 100,
                               rows[0].expectedImprovementPercent);
    EXPECT_EQ(n, rows[0].passingSpecRate);
}

TEST(SlidingWindow, SeriesShapes)
{
    sim::SystemConfig cfg;
    const auto result = slidingWindowExperiment(
        workload::specByName("astar"), workload::specByName("astar"),
        50'000, 400'000, cfg);
    EXPECT_EQ(result.windowCycles, 50'000u);
    EXPECT_GE(result.coScheduled.size(), 7u);
    EXPECT_NEAR(static_cast<double>(result.coScheduled.size()),
                static_cast<double>(result.singleCore.size()), 1.0);
}

TEST(SlidingWindow, CoScheduleIsNoisierOnAverage)
{
    sim::SystemConfig cfg;
    const auto result = slidingWindowExperiment(
        workload::specByName("sphinx"), workload::specByName("sphinx"),
        50'000, 400'000, cfg);
    double co = 0.0, single = 0.0;
    const std::size_t n =
        std::min(result.coScheduled.size(), result.singleCore.size());
    for (std::size_t i = 0; i < n; ++i) {
        co += result.coScheduled[i];
        single += result.singleCore[i];
    }
    EXPECT_GT(co, single);
}
