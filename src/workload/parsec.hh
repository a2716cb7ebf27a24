/**
 * @file
 * Synthetic PARSEC multi-threaded workloads.
 *
 * The paper's 881-run characterization includes 11 PARSEC programs
 * run multi-threaded (Sec III-A). Each program here yields one phase
 * schedule per thread; threads share the workload's character but
 * run phase-shifted, which is what creates the cross-core current
 * interference multi-threaded programs exhibit.
 */

#ifndef VSMOOTH_WORKLOAD_PARSEC_HH
#define VSMOOTH_WORKLOAD_PARSEC_HH

#include <string>
#include <vector>

#include "cpu/fast_core.hh"

namespace vsmooth::workload {

/** Descriptor of one PARSEC program. */
struct ParsecBenchmark
{
    std::string name;
    double stallRatio;
    double memoryBoundness;
    double ipcRunning;
    /** Fraction of a phase by which worker threads are offset. */
    double threadSkew;
};

/** The 11 PARSEC programs the paper ran. */
const std::vector<ParsecBenchmark> &parsecSuite();

/**
 * Build the schedule for one thread of a PARSEC program.
 *
 * @param bench the program
 * @param threadIndex which thread (0-based)
 * @param baseLength run length in cycles
 */
cpu::PhaseSchedule parsecThreadSchedule(const ParsecBenchmark &bench,
                                        std::size_t threadIndex,
                                        Cycles baseLength);

} // namespace vsmooth::workload

#endif // VSMOOTH_WORKLOAD_PARSEC_HH
