/**
 * @file
 * Table I: typical-case design analysis of SPECrate schedules on the
 * Proc3 future node — for each recovery cost, the optimal aggressive
 * margin (derived from the full workload population), the expected
 * improvement at it, and how many of the 29 SPECrate schedules
 * actually meet that expectation.
 *
 * Paper values: margins tighten from 5.3 % (1-cycle recovery) to
 * 8.6 % (100k), expected improvement falls 15.7 % -> 9.7 %, and the
 * passing count collapses 28 -> 9 as recovery coarsens.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "sched/pass_analysis.hh"
#include "sim/calibration.hh"

using namespace vsmooth;

int
main()
{
    const sched::OracleMatrix matrix(workload::specCpu2006(),
                                     bench::proc3OracleConfig());

    const auto rows =
        sched::optimalMarginTable(matrix, sim::recoveryCostSweep(),
                                  /*tolerancePercent=*/1.0);

    TextTable table("Table I: SPECrate typical-case analysis (Proc3)");
    table.setHeader({"recovery cost (cycles)", "optimal margin (%)",
                     "expected improvement (%)", "# schedules that pass",
                     "paper margin (%)", "paper improv (%)",
                     "paper passes"});

    const char *paper[6][3] = {{"5.3", "15.7", "28"}, {"5.6", "15.1", "28"},
                               {"6.4", "13.7", "15"}, {"7.4", "12.2", "12"},
                               {"8.2", "10.8", "9"},  {"8.6", "9.7", "9"}};
    auto result = bench::makeResult("table1_optimal_margins");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        table.addRow({TextTable::num(r.recoveryCost),
                      TextTable::num(r.optimalMargin * 100, 1),
                      TextTable::num(r.expectedImprovementPercent, 1),
                      TextTable::num(r.passingSpecRate),
                      paper[i][0], paper[i][1], paper[i][2]});
        const std::string cost = TextTable::num(r.recoveryCost);
        result.metric("optimal_margin_pct_cost" + cost,
                      r.optimalMargin * 100);
        result.metric("improvement_pct_cost" + cost,
                      r.expectedImprovementPercent);
        result.metric("passes_cost" + cost,
                      static_cast<double>(r.passingSpecRate));
    }
    table.print(std::cout);
    bench::emitResult(result);
    std::cout << "\nShape targets: margins relax and improvement falls"
                 " as recovery coarsens; the passing count collapses"
                 " beyond ~10-cycle recovery.\n";
    return 0;
}
