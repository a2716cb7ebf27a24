/**
 * @file
 * Oracle co-schedule profiles (paper Sec IV-C).
 *
 * The paper's scheduling study is oracle-based: a pre-run phase
 * measures, for every pair of CPU2006 benchmarks, the droop rate and
 * throughput of running them together on the two cores (the 29x29
 * sweep). Policies then select pairs from a job pool using this
 * matrix. OracleMatrix performs that pre-run phase with the full
 * simulation stack and caches the results.
 */

#ifndef VSMOOTH_SCHED_ORACLE_MATRIX_HH
#define VSMOOTH_SCHED_ORACLE_MATRIX_HH

#include <cstdint>
#include <vector>

#include "resilience/perf_model.hh"
#include "sim/system.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::sched {

/** Measured profile of one co-scheduled benchmark pair. */
struct PairProfile
{
    /** Droops (samples below the idle margin) per 1000 cycles. */
    double droopsPer1k = 0.0;
    /** Combined throughput: sum of both cores' IPC. */
    double ipc = 0.0;
    /** Emergency events per watched margin, for the perf model. */
    resilience::EmergencyProfile emergencies;
};

/** Configuration of the oracle pre-run phase. */
struct OracleConfig
{
    sim::SystemConfig system;
    /** Cycles simulated per pair. */
    Cycles cyclesPerPair = 600'000;
    /** Droop-counting margin (the paper's 2.3 %). */
    double droopMargin = sim::kIdleMargin;
    std::uint64_t seed = 12345;
    /**
     * Model self-pairs (i, i) as phase-aligned: both copies get the
     * same stream seed and run in lockstep, the worst case a
     * SPECrate-style simultaneous launch produces on real hardware.
     * Off by default — the classic matrix treats the two copies as
     * independently phased.
     */
    bool alignedSelfPairs = false;
};

/** The NxN pair-profile matrix over a benchmark suite. */
class OracleMatrix
{
  public:
    /**
     * Run the pre-run measurement phase over all pairs (i <= j; the
     * matrix is symmetric by construction since core order does not
     * matter).
     */
    OracleMatrix(const std::vector<workload::SpecBenchmark> &suite,
                 const OracleConfig &cfg);

    std::size_t size() const { return n_; }
    const workload::SpecBenchmark &benchmark(std::size_t i) const
    { return suite_[i]; }

    /** Profile of co-scheduling benchmarks i and j. */
    const PairProfile &pair(std::size_t i, std::size_t j) const;

    /** Profile of benchmark i running with the other core idle. */
    const PairProfile &single(std::size_t i) const
    { return singles_.at(i); }

    /** SPECrate profile: two copies of benchmark i (= pair(i, i)). */
    const PairProfile &specRate(std::size_t i) const
    { return pair(i, i); }

    const OracleConfig &config() const { return cfg_; }

    /**
     * Measure the single cell pair(i, j) of the matrix over `suite`,
     * bit-identical to building the whole matrix and reading that
     * cell, at the cost of one run.
     */
    static PairProfile
    measurePair(const std::vector<workload::SpecBenchmark> &suite,
                const OracleConfig &cfg, std::size_t i, std::size_t j);

  private:
    /** Construct (but do not run) the System for one measurement. */
    static sim::System
    buildMeasure(const std::vector<workload::SpecBenchmark> &suite,
                 const OracleConfig &cfg, std::size_t i, std::size_t j,
                 bool idleSecond);
    /** Extract the profile from a completed measurement run. */
    static PairProfile
    profileFrom(const std::vector<workload::SpecBenchmark> &suite,
                const OracleConfig &cfg, sim::System &sys, std::size_t i,
                std::size_t j, bool idleSecond);

    std::vector<workload::SpecBenchmark> suite_;
    OracleConfig cfg_;
    std::size_t n_;
    std::vector<PairProfile> pairs_;   // upper triangle, row-major
    std::vector<PairProfile> singles_;
};

} // namespace vsmooth::sched

#endif // VSMOOTH_SCHED_ORACLE_MATRIX_HH
