/**
 * @file
 * Fig 13: chip-wide peak-to-peak swing when both cores run event
 * microbenchmarks simultaneously — the 5x5 interference matrix,
 * relative to an idling machine.
 *
 * Paper headline: dual-core worst case 2.42x versus 1.7x single-core
 * (a 42 % increase); the magnitude depends strongly on the event
 * pairing (constructive vs destructive interference).
 */

#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "cpu/detailed_core.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"

using namespace vsmooth;

namespace {

constexpr Cycles kSweepCycles = 1'500'000;

sim::Scenario
prepareSingleCell(workload::MicrobenchKind a)
{
    sim::Scenario cell{sim::System(sim::SystemConfig{}), kSweepCycles};
    cell.streams.push_back(workload::makeMicrobenchmark(a, 7));
    cell.system.addCore(std::make_unique<cpu::DetailedCore>(
        cpu::DetailedCoreParams{}, *cell.streams[0]));
    cell.system.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    return cell;
}

sim::Scenario
preparePairCell(workload::MicrobenchKind a, workload::MicrobenchKind b)
{
    sim::Scenario cell{sim::System(sim::SystemConfig{}), kSweepCycles};
    cell.streams.push_back(workload::makeMicrobenchmark(a, 7));
    cell.streams.push_back(workload::makeMicrobenchmark(b, 99));
    for (const auto &stream : cell.streams) {
        cell.system.addCore(std::make_unique<cpu::DetailedCore>(
            cpu::DetailedCoreParams{}, *stream));
    }
    return cell;
}

/**
 * Run `total` cells through the sweep driver and return each cell's
 * p2p swing relative to idle.
 */
std::vector<double>
p2pSweep(std::size_t total,
         const std::function<sim::Scenario(std::size_t)> &prepare,
         double idle)
{
    std::vector<double> rel(total);
    sim::runSweep(total, prepare, [&](std::size_t t, sim::System &sys) {
        rel[t] = sys.scope().visualPeakToPeak() / idle;
    });
    return rel;
}

} // namespace

int
main()
{
    // Idle baseline.
    double idle;
    {
        sim::SystemConfig cfg;
        sim::System sys(cfg);
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), 42));
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), 43));
        sys.run(1'500'000);
        idle = sys.scope().visualPeakToPeak();
    }

    const auto &kinds = workload::kEventMicrobenchmarks;
    const std::size_t nk = kinds.size();

    // Single-core max (for the +42 % comparison); every cell is an
    // independent simulation, so the sweeps fan out over the pool
    // and each worker steps K cells in SIMD lockstep.
    const auto singles = p2pSweep(
        nk, [&](std::size_t k) { return prepareSingleCell(kinds[k]); },
        idle);
    const double single_max =
        *std::max_element(singles.begin(), singles.end());

    // The 5x5 dual-core interference grid, row-major.
    const auto grid = p2pSweep(
        nk * nk,
        [&](std::size_t t) {
            return preparePairCell(kinds[t / nk], kinds[t % nk]);
        },
        idle);

    TextTable table(
        "Fig 13: dual-core p2p swing relative to idle (Core0 x Core1)");
    std::vector<std::string> header = {"Core0 \\ Core1"};
    for (auto k : kinds)
        header.emplace_back(workload::microbenchName(k));
    table.setHeader(header);

    double pair_max = 0.0;
    for (std::size_t r = 0; r < nk; ++r) {
        std::vector<std::string> row = {
            std::string(workload::microbenchName(kinds[r]))};
        for (std::size_t c = 0; c < nk; ++c) {
            const double rel = grid[r * nk + c];
            pair_max = std::max(pair_max, rel);
            row.push_back(TextTable::num(rel, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nSingle-core max: " << TextTable::num(single_max, 2)
              << "x   dual-core max: " << TextTable::num(pair_max, 2)
              << "x   increase: "
              << TextTable::num((pair_max / single_max - 1.0) * 100, 0)
              << "%\nPaper: 1.7x single vs 2.42x dual (+42%), worst"
                 " case when both cores run the same heavyweight"
                 " event.\n";
    auto result = bench::makeResult("fig13_interference");
    result.metric("single_core_max_rel", single_max);
    result.metric("dual_core_max_rel", pair_max);
    result.metric("increase_pct", (pair_max / single_max - 1.0) * 100);
    result.series("grid_rel", grid);
    bench::emitResult(result);
    return 0;
}
