#include "parsec.hh"

#include "workload/spec_suite.hh"

namespace vsmooth::workload {

const std::vector<ParsecBenchmark> &
parsecSuite()
{
    static const std::vector<ParsecBenchmark> suite = {
        {"blackscholes", 0.30, 0.25, 1.9, 0.10},
        {"bodytrack", 0.45, 0.40, 1.5, 0.25},
        {"canneal", 0.75, 0.92, 0.6, 0.40},
        {"dedup", 0.55, 0.60, 1.1, 0.30},
        {"facesim", 0.50, 0.55, 1.3, 0.20},
        {"ferret", 0.52, 0.50, 1.2, 0.35},
        {"fluidanimate", 0.48, 0.55, 1.4, 0.15},
        {"freqmine", 0.42, 0.40, 1.5, 0.25},
        {"streamcluster", 0.72, 0.90, 0.7, 0.45},
        {"swaptions", 0.26, 0.12, 2.1, 0.05},
        {"x264", 0.38, 0.35, 1.7, 0.30},
    };
    return suite;
}

cpu::PhaseSchedule
parsecThreadSchedule(const ParsecBenchmark &bench, std::size_t threadIndex,
                     Cycles baseLength)
{
    // Parallel sections alternate with (brief) serial/sync sections;
    // worker threads see the same pattern skewed in time.
    constexpr int kSections = 8;
    const Cycles per = std::max<Cycles>(1, baseLength / (kSections * 2));

    cpu::PhaseSchedule schedule;
    // Thread skew: a leading partial section.
    if (threadIndex > 0 && bench.threadSkew > 0.0) {
        const auto skew = static_cast<Cycles>(
            bench.threadSkew * static_cast<double>(per) *
            static_cast<double>(threadIndex));
        if (skew > 0) {
            schedule.phases.push_back(makeSpecPhase(
                bench.stallRatio * 0.3, bench.memoryBoundness,
                bench.ipcRunning * 0.5, skew));
        }
    }
    for (int s = 0; s < kSections; ++s) {
        // Parallel compute section.
        schedule.phases.push_back(makeSpecPhase(
            bench.stallRatio, bench.memoryBoundness, bench.ipcRunning,
            per));
        // Synchronization/serial section: mostly waiting.
        schedule.phases.push_back(makeSpecPhase(
            std::min(0.9, bench.stallRatio * 1.5), bench.memoryBoundness,
            bench.ipcRunning * 0.4, per));
    }
    return schedule;
}

} // namespace vsmooth::workload
