/**
 * @file
 * Fig 18: batch-schedule outcomes per policy, as (droops, performance)
 * normalized to the SPECrate baseline — the paper's quadrant scatter.
 *
 * Expected placement: Random clusters at (1, 1); IPC improves
 * performance but sits at Random's droop level; Droop minimizes
 * droops with a slight performance gain (quadrant Q1); the hybrid
 * IPC/Droop^n traces the Q1 pareto frontier as n varies.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "sched/pass_analysis.hh"
#include "sched/policy.hh"

using namespace vsmooth;

namespace {

std::vector<std::size_t>
makePool(std::size_t suiteSize, std::size_t copies)
{
    std::vector<std::size_t> pool;
    for (std::size_t c = 0; c < copies; ++c)
        for (std::size_t i = 0; i < suiteSize; ++i)
            pool.push_back(i);
    if (pool.size() % 2 != 0)
        pool.pop_back();
    return pool;
}

} // namespace

int
main()
{
    const sched::OracleMatrix matrix(workload::specCpu2006(),
                                     bench::proc3OracleConfig());

    // Pool sized so one batch is ~50 pairs, like the paper.
    const auto pool = makePool(matrix.size(), 4); // 58 jobs -> 58 pairs

    TextTable table(
        "Fig 18: schedule outcomes relative to SPECrate (Proc3)");
    table.setHeader({"policy", "droops (rel)", "performance (rel)",
                     "quadrant"});

    auto quadrant = [](const sched::NormalizedMetrics &m) {
        if (m.droops <= 1.0 && m.performance >= 1.0)
            return "Q1 (good both)";
        if (m.droops > 1.0 && m.performance >= 1.0)
            return "Q2 (perf only)";
        if (m.droops > 1.0 && m.performance < 1.0)
            return "Q3 (bad both)";
        return "Q4 (droops only)";
    };

    Rng rng(2026);
    auto result = bench::makeResult("fig18_policy_scatter");

    // 100 random schedules, as in the paper.
    double rand_droops = 0.0, rand_perf = 0.0;
    for (int k = 0; k < 100; ++k) {
        const auto sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::Random, rng);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        rand_droops += norm.droops;
        rand_perf += norm.performance;
    }
    sched::NormalizedMetrics rand_mean{rand_droops / 100.0,
                                       rand_perf / 100.0};
    table.addRow({"Random (mean of 100)",
                  TextTable::num(rand_mean.droops, 3),
                  TextTable::num(rand_mean.performance, 3),
                  quadrant(rand_mean)});
    result.metric("droops_rel_random", rand_mean.droops);
    result.metric("performance_rel_random", rand_mean.performance);

    for (auto kind : {sched::PolicyKind::Ipc, sched::PolicyKind::Droop}) {
        const auto sched = sched::buildSchedule(pool, matrix, kind, rng);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        table.addRow({sched::policyName(kind),
                      TextTable::num(norm.droops, 3),
                      TextTable::num(norm.performance, 3),
                      quadrant(norm)});
        const std::string tag = sched::policyName(kind);
        result.metric("droops_rel_" + tag, norm.droops);
        result.metric("performance_rel_" + tag, norm.performance);
    }
    for (double n : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const auto sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::IpcOverDroopN, rng, n);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        table.addRow({"IPC/Droop^" + TextTable::num(n, 2),
                      TextTable::num(norm.droops, 3),
                      TextTable::num(norm.performance, 3),
                      quadrant(norm)});
        result.seriesPoint("hybrid_droops_rel", norm.droops);
        result.seriesPoint("hybrid_performance_rel", norm.performance);
    }
    table.print(std::cout);
    bench::emitResult(result);
    std::cout << "\nPaper: Random ~ SPECrate; IPC boosts performance at"
                 " Random's droop level; Droop minimizes droops (Q1"
                 " with slight perf gain); the hybrid spans the Q1"
                 " pareto frontier.\n";
    return 0;
}
