/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary prints the paper's rows or series through
 * TextTable so the reproduction output is uniform; this header holds
 * the run plumbing they share (single runs, pair runs, population
 * aggregation over the 29 + 11 + pairs workload set, the Proc3 oracle
 * configuration).
 */

#ifndef VSMOOTH_BENCH_BENCH_UTIL_HH
#define VSMOOTH_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "common/result.hh"
#include "cpu/fast_core.hh"
#include "noise/scope.hh"
#include "resilience/perf_model.hh"
#include "sched/oracle_matrix.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/parsec.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::bench {

/** Outcome of one measured run. */
struct RunResult
{
    noise::Scope scope;
    resilience::EmergencyProfile emergencies;
    double stallRatio = 0.0;
    double ipc = 0.0;
    Cycles cycles = 0;

    /** Droops (samples below margin) per 1K cycles. */
    double
    droopsPer1k(double margin = sim::kIdleMargin) const
    {
        return 1000.0 * scope.fractionBelow(-margin);
    }
};

/** Collect a RunResult from a completed simulation. */
RunResult resultFrom(sim::System &sys);

/** Build (but do not run) one benchmark with the second core idle. */
sim::Scenario prepareSingle(const workload::SpecBenchmark &bench,
                            Cycles cycles, double decapFraction = 1.0,
                            std::uint64_t seed = 1);

/** Build (but do not run) a benchmark pair (multi-program). */
sim::Scenario preparePair(const workload::SpecBenchmark &a,
                          const workload::SpecBenchmark &b, Cycles cycles,
                          double decapFraction = 1.0,
                          std::uint64_t seed = 1);

/** Build (but do not run) one PARSEC program with two threads. Its
 *  schedules are finite; the run still lasts `cycles` (the cores idle
 *  once they finish), so run weights stay comparable. */
sim::Scenario prepareParsec(const workload::ParsecBenchmark &bench,
                            Cycles cycles, double decapFraction = 1.0,
                            std::uint64_t seed = 1);

/**
 * Aggregate population statistics over the paper's 881-run set
 * (29 single-threaded + 11 multi-threaded + 29x29 multi-program),
 * sub-sampled: all singles, all PARSEC, and every pair combination
 * (unordered, which is statistically equivalent to the full ordered
 * sweep on symmetric cores).
 */
struct Population
{
    noise::Scope scope;
    resilience::EmergencyProfile emergencies;
    /** Per-run fraction of samples below -4 % (typical-case tail). */
    std::vector<double> tailFractions;
    std::size_t runs = 0;
    /** Merged sampled-execution report over all runs (inactive when
     *  every run executed exactly — the default). */
    sim::SamplingReport sampling;
};

Population runPopulation(Cycles cyclesPerRun, double decapFraction,
                         std::uint64_t seed = 1);

/**
 * The oracle pre-run of the paper's Proc3 scheduling study (fig17-19,
 * Table I): 3 % of the decap, 800K cycles per pair, and droops counted
 * below the Proc3 margin.
 */
sched::OracleConfig proc3OracleConfig();

/**
 * Start a structured Result for one experiment, stamped with the
 * primary RNG seed, the effective worker-thread count (VSMOOTH_JOBS /
 * --jobs), and the git revision of the producing build.
 */
Result makeResult(std::string experiment, std::uint64_t seed = 1);

/**
 * Attach sampled-execution metadata to a Result when the report says
 * sampling was active (a no-op otherwise, so default exact runs keep
 * their goldens byte-stable): the mode, the realized simulated
 * fraction, and the caller-supplied (metric-name, absolute-bound)
 * annotations mapping the report's generic bounds onto the
 * experiment's own metric/series names and units.
 */
void stampSampling(Result &r, const sim::SamplingReport &report,
                   std::vector<std::pair<std::string, double>> bounds);

/**
 * Emit a Result as JSON alongside the text tables. The destination
 * comes from the environment so interactive runs stay file-free:
 *   VSMOOTH_RESULT_FILE=<path>  write exactly there;
 *   VSMOOTH_RESULT_DIR=<dir>    write <dir>/<experiment>.json;
 * neither set: no file is written. `vsmooth verify` sets the former
 * for each experiment it re-runs and diffs against bench/golden/.
 */
void emitResult(const Result &r);

} // namespace vsmooth::bench

#endif // VSMOOTH_BENCH_BENCH_UTIL_HH
