/**
 * @file
 * Fig 17: droop spread of every benchmark across all of its
 * co-schedules (boxplot data), with the single-core and SPECrate
 * (self-paired) values as the markers, on the Proc3 future node.
 *
 * Paper points: destructive interference exists (box bottoms at or
 * below single-core), constructive interference is common, and in
 * over half the co-schedules there is room to do better than the
 * SPECrate baseline. libquantum is the famous outlier with almost no
 * spread.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "sched/oracle_matrix.hh"

using namespace vsmooth;

int
main()
{

    const sched::OracleMatrix matrix(workload::specCpu2006(),
                                     bench::proc3OracleConfig());

    TextTable table(
        "Fig 17: droops/1K across co-schedules (Proc3)");
    table.setHeader({"benchmark", "single", "SPECrate", "min", "q1",
                     "median", "q3", "max"});

    auto result = bench::makeResult("fig17_coschedule_spread");
    std::size_t better_than_specrate = 0, total = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        std::vector<double> spread;
        for (std::size_t j = 0; j < matrix.size(); ++j) {
            spread.push_back(matrix.pair(i, j).droopsPer1k);
            if (matrix.pair(i, j).droopsPer1k <
                matrix.specRate(i).droopsPer1k)
                ++better_than_specrate;
            ++total;
        }
        const auto box = boxplot(spread);
        table.addRow({matrix.benchmark(i).name,
                      TextTable::num(matrix.single(i).droopsPer1k, 1),
                      TextTable::num(matrix.specRate(i).droopsPer1k, 1),
                      TextTable::num(box.min, 1),
                      TextTable::num(box.q1, 1),
                      TextTable::num(box.median, 1),
                      TextTable::num(box.q3, 1),
                      TextTable::num(box.max, 1)});
        result.seriesPoint("median_droops_per_1k", box.median);
        result.seriesPoint("single_droops_per_1k",
                           matrix.single(i).droopsPer1k);
        result.seriesPoint("specrate_droops_per_1k",
                           matrix.specRate(i).droopsPer1k);
    }
    table.print(std::cout);

    const double better_pct =
        100.0 * static_cast<double>(better_than_specrate) /
        static_cast<double>(total);
    std::cout << "\nCo-schedules with fewer droops than the SPECrate"
                 " baseline: "
              << TextTable::num(better_pct, 0)
              << "% (paper: over half show room for improvement)\n";
    result.metric("better_than_specrate_pct", better_pct);
    bench::emitResult(result);
    return 0;
}
