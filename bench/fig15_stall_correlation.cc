/**
 * @file
 * Fig 15: per-benchmark droop rate and pipeline stall ratio across
 * the 29 CPU2006 workloads (single-core, other core idle).
 *
 * Paper headline: droops per 1K cycles vary widely across the suite
 * and correlate with the VTune stall ratio at r = 0.97 — the
 * observation that makes a software (performance-counter-driven)
 * scheduler feasible.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "common/statistics.hh"
#include "common/table.hh"

using namespace vsmooth;

int
main()
{
    TextTable table("Fig 15: droops/1K cycles and stall ratio");
    table.setHeader({"benchmark", "droops/1K", "stall ratio", "IPC"});

    // One independent run per benchmark; seeds derive from the suite
    // index (the serial loop's `seed += 13` walk), results land in
    // suite order, so the table is identical for any job count. The
    // sweep drains the suite K benchmarks at a time through the
    // scenario-lane engine.
    const auto &suite = workload::specCpu2006();
    std::vector<bench::RunResult> results(suite.size());
    sim::runSweep(
        suite.size(),
        [&](std::size_t k) {
            return bench::prepareSingle(suite[k], 1'000'000, 1.0,
                                        1000 + 13ULL * (k + 1));
        },
        [&](std::size_t k, sim::System &sys) {
            results[k] = bench::resultFrom(sys);
        });

    std::vector<double> droops, stalls;
    for (std::size_t k = 0; k < suite.size(); ++k) {
        const auto &r = results[k];
        droops.push_back(r.droopsPer1k());
        stalls.push_back(r.stallRatio);
        table.addRow({suite[k].name, TextTable::num(r.droopsPer1k(), 1),
                      TextTable::num(r.stallRatio, 2),
                      TextTable::num(r.ipc, 2)});
    }
    table.print(std::cout);

    std::cout << "\nLinear correlation (droops vs stall ratio): "
              << TextTable::num(pearson(droops, stalls), 3)
              << " (paper: 0.97)\n"
              << "Droop range across the suite: "
              << TextTable::num(
                     *std::min_element(droops.begin(), droops.end()), 0)
              << ".."
              << TextTable::num(
                     *std::max_element(droops.begin(), droops.end()), 0)
              << " per 1K cycles (paper: ~40..120)\n";
    auto result = bench::makeResult("fig15_stall_correlation");
    result.metric("pearson_r", pearson(droops, stalls));
    result.metric("droops_per_1k_min",
                  *std::min_element(droops.begin(), droops.end()));
    result.metric("droops_per_1k_max",
                  *std::max_element(droops.begin(), droops.end()));
    result.series("droops_per_1k", droops);
    result.series("stall_ratio", stalls);
    bench::emitResult(result);
    return 0;
}
