/**
 * @file
 * Fig 14: voltage-noise phases — droops per 1K cycles over time for
 * three representative benchmarks:
 *   482.sphinx: no phases (stable near the top of the range),
 *   416.gamess: four clean phases between ~60 and ~100,
 *   465.tonto: strong oscillation between ~60 and ~100.
 *
 * Like the paper's Sec IV characterization, the droop margin is
 * 2.3 % (everything an idling machine does stays inside it) and the
 * counts come from the scope-histogram sample metric.
 */

#include <iostream>
#include <memory>
#include <utility>

#include "bench_util.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "noise/timeline.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

int
main()
{
    auto result = bench::makeResult("fig14_noise_phases");
    for (const char *name : {"sphinx", "gamess", "tonto"}) {
        const auto &bench = workload::specByName(name);

        sim::SystemConfig cfg;
        cfg.enableTimeline = true;
        cfg.timelineInterval = 100'000; // the paper's 60 s, scaled
        // The series is exact: this figure stamps no sampling bounds.
        cfg.sampling.mode = sim::SamplingConfig::Mode::Off;
        sim::System sys(cfg);
        auto schedule = workload::scheduleFor(bench, 2'000'000);
        const Cycles known = schedule.totalDuration();
        sys.addCore(std::make_unique<cpu::FastCore>(std::move(schedule),
                                                    11));
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), 43));
        // Core 0 cannot finish before tick known + 1, so the block
        // pipeline runs the schedule and per-cycle ticks the drain.
        sys.run(known);
        while (!sys.core(0).finished())
            sys.tick();

        const auto &series = sys.timelineSeries();
        TextTable table("Fig 14: droops/1K cycles over time - " +
                        bench.name);
        table.setHeader({"interval", "droops/1K", ""});
        for (std::size_t i = 0; i < series.size(); ++i) {
            table.addRow({TextTable::num(static_cast<int>(i)),
                          TextTable::num(series[i], 1),
                          std::string(
                              static_cast<std::size_t>(series[i] / 2.5),
                              '#')});
        }
        table.print(std::cout);

        const auto phases = noise::detectPhases(series, 12.0);
        std::cout << "Detected phases: " << phases.size() << " (";
        for (std::size_t p = 0; p < phases.size(); ++p) {
            if (p)
                std::cout << ", ";
            std::cout << TextTable::num(phases[p].meanDroopsPer1k, 0);
        }
        std::cout << " droops/1K)\n\n";
        result.metric(std::string("phases_") + name,
                      static_cast<double>(phases.size()));
        result.series(std::string("droops_per_1k_") + name, series);
    }
    std::cout << "Paper: sphinx flat (~100), gamess four phases"
                 " (60..100), tonto oscillating (60..100).\n";
    bench::emitResult(result);
    return 0;
}
