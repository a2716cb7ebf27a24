#include "sliding_window.hh"

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "cpu/fast_core.hh"
#include "workload/microbench.hh"

namespace vsmooth::sched {

namespace {

/** Truncate a schedule to its first `cycles` cycles and loop it. */
cpu::PhaseSchedule
windowLoop(const cpu::PhaseSchedule &full, Cycles cycles)
{
    cpu::PhaseSchedule out;
    out.loop = true;
    Cycles remaining = cycles;
    for (const auto &phase : full.phases) {
        if (remaining == 0)
            break;
        cpu::ActivityPhase p = phase;
        p.duration = std::min(p.duration, remaining);
        remaining -= p.duration;
        out.phases.push_back(p);
    }
    if (out.phases.empty())
        fatal("windowLoop: empty window");
    return out;
}

std::vector<double>
runOnce(const workload::SpecBenchmark &progX,
        const cpu::PhaseSchedule &coSchedule, Cycles windowCycles,
        Cycles baseLength, const sim::SystemConfig &cfgIn,
        std::uint64_t seed)
{
    sim::SystemConfig cfg = cfgIn;
    cfg.enableTimeline = true;
    cfg.timelineInterval = windowCycles;
    // The series is exact: the result carries no sampling bounds.
    cfg.sampling.mode = sim::SamplingConfig::Mode::Off;

    sim::System sys(cfg);
    auto schedule = workload::scheduleFor(progX, baseLength,
                                          /*loop=*/false);
    const Cycles known = schedule.totalDuration();
    sys.addCore(std::make_unique<cpu::FastCore>(std::move(schedule),
                                                seed + 1));
    sys.addCore(std::make_unique<cpu::FastCore>(coSchedule, seed + 2));

    // Run until X completes (core 1 loops forever). X cannot finish
    // before tick known + 1, so the block pipeline runs the schedule
    // and per-cycle ticks the drain.
    sys.run(known);
    while (!sys.core(0).finished())
        sys.tick();
    return sys.timelineSeries();
}

} // namespace

SlidingWindowResult
slidingWindowExperiment(const workload::SpecBenchmark &progX,
                        const workload::SpecBenchmark &progY,
                        Cycles windowCycles, Cycles baseLength,
                        const sim::SystemConfig &cfg, std::uint64_t seed)
{
    SlidingWindowResult result;
    result.windowCycles = windowCycles;

    const cpu::PhaseSchedule y_window = windowLoop(
        workload::scheduleFor(progY, baseLength, /*loop=*/false),
        windowCycles);

    // The co-scheduled and single-core sweeps are independent full
    // runs of X; fan them out and collect by index.
    auto series = parallelMap<std::vector<double>>(2, [&](std::size_t k) {
        return k == 0
            ? runOnce(progX, y_window, windowCycles, baseLength, cfg,
                      seed)
            : runOnce(progX, workload::idleSchedule(1000), windowCycles,
                      baseLength, cfg, seed + 100);
    });
    result.coScheduled = std::move(series[0]);
    result.singleCore = std::move(series[1]);
    return result;
}

} // namespace vsmooth::sched
