/**
 * @file
 * Structured experiment results and golden-baseline comparison.
 *
 * Every bench binary reduces its paper observables (Fig 7's 0.06 %
 * tail, Fig 15's r = 0.97, Table I's pass counts, ...) to a Result:
 * named scalar metrics plus named numeric series, stamped with the
 * experiment name, RNG seed, worker-thread count, and the source
 * git revision. Results serialize to JSON; `vsmooth verify` re-runs
 * experiments and diffs their Results against checked-in goldens
 * under per-metric absolute/relative tolerances, so a silent change
 * to any calibration constant or model fails CI with a named metric
 * instead of shipping unnoticed.
 */

#ifndef VSMOOTH_COMMON_RESULT_HH
#define VSMOOTH_COMMON_RESULT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json.hh"

namespace vsmooth {

/**
 * Sampled-execution metadata attached to a Result: how the run was
 * produced ("auto"), what fraction of its cycles were simulated at
 * full fidelity, and per-metric absolute error bounds. A bounds entry
 * names a metric (or series) of the same Result; compareResults
 * treats bound-annotated names as tolerance-checked (abs = bound,
 * rel = 0) instead of exact, and fails structurally on a bound that
 * is non-finite or names nothing.
 */
struct ResultSampling
{
    std::string mode = "auto";
    double simulatedFraction = 1.0;
    std::vector<std::pair<std::string, double>> bounds;
};

/** One experiment's machine-readable outcome. */
class Result
{
  public:
    Result() = default;
    explicit Result(std::string experiment)
        : experiment_(std::move(experiment))
    {
    }

    const std::string &experiment() const { return experiment_; }

    /** git-describe string of the producing build ("unknown" if
     *  built outside a checkout). */
    const std::string &gitDescribe() const { return git_; }
    void setGitDescribe(std::string g) { git_ = std::move(g); }

    std::uint64_t seed() const { return seed_; }
    void setSeed(std::uint64_t s) { seed_ = s; }

    /** Worker-thread count the run used (VSMOOTH_JOBS / --jobs). */
    std::uint64_t jobs() const { return jobs_; }
    void setJobs(std::uint64_t j) { jobs_ = j; }

    /** SIMD path stamp, e.g. "avx2x8" (empty = not recorded).
     *  Informational, like seed/jobs/git: runs must be bit-identical
     *  across kernel levels, so it is never compared. */
    const std::string &simd() const { return simd_; }
    void setSimd(std::string s) { simd_ = std::move(s); }

    /** Sampled-execution metadata (absent unless the producing run
     *  used sampling; absent results serialize without the key, so
     *  pre-existing goldens stay byte-stable). */
    bool hasSampling() const { return hasSampling_; }
    const ResultSampling &sampling() const { return sampling_; }
    void
    setSampling(ResultSampling s)
    {
        sampling_ = std::move(s);
        hasSampling_ = true;
    }

    /** Append (or overwrite) a named scalar metric. */
    void metric(std::string_view name, double value);
    /**
     * Append (or overwrite) a named exact integer count metric: cycle
     * totals, histogram masses, event counts. Serializes as an
     * integer JSON token (lossless above 2^53, where a double metric
     * silently rounds) and compares exactly in compareResults unless
     * an explicit tolerance or sampling bound widens it. Also visible
     * through metricValue()/metrics() as a (possibly rounded) double.
     */
    void metricCount(std::string_view name, std::uint64_t value);
    /** Append (or overwrite) a named numeric series. */
    void series(std::string_view name, std::vector<double> values);
    /** Append one point to a named series (creating it on first use). */
    void seriesPoint(std::string_view name, double value);

    bool hasMetric(std::string_view name) const;
    /** Value of a metric; panics if absent. */
    double metricValue(std::string_view name) const;
    /** True when `name` is an exact integer count metric. */
    bool hasCount(std::string_view name) const;
    /** Exact value of a count metric; panics if absent. */
    std::uint64_t countValue(std::string_view name) const;

    const std::vector<std::pair<std::string, double>> &
    metrics() const { return metrics_; }
    const std::vector<std::pair<std::string, std::vector<double>>> &
    allSeries() const { return series_; }

    Json toJson() const;
    /** Parse a Result; returns false (with *error set) on schema
     *  violations. */
    static bool fromJson(const Json &j, Result &out, std::string *error);

  private:
    std::string experiment_;
    std::string git_ = "unknown";
    std::string simd_;
    std::uint64_t seed_ = 1;
    std::uint64_t jobs_ = 1;
    bool hasSampling_ = false;
    ResultSampling sampling_;
    std::vector<std::pair<std::string, double>> metrics_;
    /** Exact values of the metrics that are integer counts (each name
     *  also appears in metrics_ with the rounded double). */
    std::vector<std::pair<std::string, std::uint64_t>> counts_;
    std::vector<std::pair<std::string, std::vector<double>>> series_;
};

/** Absolute/relative acceptance band for one metric or series. A
 *  value passes when |actual - golden| <= abs + rel * |golden|. */
struct Tolerance
{
    double abs = 1e-9;
    double rel = 1e-6;
};

/** One diverging metric (or series element) in a comparison. */
struct MetricDiff
{
    std::string name;      ///< metric name, or "series[idx]"
    double golden = 0.0;
    double actual = 0.0;
    /** Structural problems (missing metric, length mismatch) carry a
     *  message instead of values. */
    std::string note;
};

/** Outcome of diffing an actual Result against a golden one. */
struct CompareReport
{
    bool pass = true;
    std::vector<MetricDiff> diffs;
    /** Metrics/series checked (for the pass/fail report). */
    std::size_t checked = 0;
};

/**
 * Diff `actual` against `golden`. Tolerances come from
 * `goldenTolerances` (the golden file's optional "tolerances" object,
 * keyed by metric/series name), falling back to `fallback`. Metrics
 * present in one Result but not the other fail the comparison; seed,
 * jobs, and git stamps are informational and never compared (runs
 * must be bit-identical across job counts — that is the point).
 *
 * A metric that is an exact count on both sides is compared as 64-bit
 * integers: equal or fail, with no fallback tolerance (rel = 1e-6 on
 * a 1e9-cycle counter would silently allow a drift of 1000 events).
 * An explicit golden tolerance entry or a sampled-execution bound
 * still widens a count comparison, applied to the exact integer
 * difference.
 */
CompareReport compareResults(const Result &golden, const Result &actual,
                             const Json *goldenTolerances = nullptr,
                             Tolerance fallback = {});

} // namespace vsmooth

#endif // VSMOOTH_COMMON_RESULT_HH
