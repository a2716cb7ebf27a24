/**
 * @file
 * Batch items: the unit of work `vsmooth serve` executes.
 *
 * A batch item is an experiment kind plus a `simtest` scenario config
 * (the same FuzzConfig JSON the fuzzer replays), and for some kinds a
 * few kind-specific parameters. Six kinds cover the paper's serving
 * workloads:
 *
 *   - "summary":     one full-stack run, every observable reduced to
 *                    a Result (counts exact, doubles bit-stable);
 *   - "population":  N index-seeded runs of the same scenario merged
 *                    into one voltage-CDF Result (Fig 7/9 points);
 *   - "oracle_cell": one co-schedule cell of the paper's oracle
 *                    matrix (Sec IV-C) — droops/1k and combined IPC
 *                    for a benchmark pair;
 *   - "fuzz":        the property registry checked against the
 *                    config (a fuzz-campaign cell);
 *   - "adaptive_margin": the config run with the closed-loop margin
 *                    controller coerced on (the fixed fail-safe is
 *                    dropped — one margin authority), reporting the
 *                    controller's margin trajectory observables;
 *   - "fault_sweep": the fault-injection rig swept across a margin
 *                    list, reporting per-structure fault/miss counts
 *                    at each margin.
 *
 * Every simulating kind runs its scenario for the config's full
 * `cycles`: a `"loop": false` config's cores finish their schedules
 * and idle for the rest of the run, so a summary reports rates over
 * the same span whatever the schedule.
 *
 * Execution is deterministic by construction: every seed is derived
 * from the item's config and the run index, never from server state,
 * so any sharding of a batch — across connections, executor threads,
 * or repeated submissions — produces bit-identical Result JSON to
 * running the same item offline (`vsmooth client --local`).
 */

#ifndef VSMOOTH_SERVE_BATCH_HH
#define VSMOOTH_SERVE_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/result.hh"
#include "simtest/gen.hh"

namespace vsmooth::serve {

/** One parsed batch item. */
struct BatchItem
{
    /** Client-chosen tag echoed back in responses (defaults to the
     *  item's index in the batch). */
    std::string id;
    std::string kind = "summary";
    /** Scenario for summary/population/fuzz kinds. */
    simtest::FuzzConfig cfg;

    // --- population --------------------------------------------------
    /** Number of index-seeded runs merged into the CDF. */
    std::uint64_t population = 8;

    // --- oracle_cell -------------------------------------------------
    std::string benchA;
    std::string benchB;
    std::uint64_t cyclesPerPair = 60'000;
    double decapFraction = 1.0;
    std::uint64_t oracleSeed = 12345;

    // --- fuzz --------------------------------------------------------
    /** Property names to check (empty = whole registry). */
    std::vector<std::string> properties;

    // --- fault_sweep -------------------------------------------------
    /** Margins the fault rig is swept across (descending default
     *  covers safe down to deep undervolt). */
    std::vector<double> faultMargins{0.05, 0.04, 0.03, 0.02, 0.01};

    /**
     * Parse one item from a batch request. Unknown kinds, invalid
     * configs, unknown benchmark or property names all fail here with
     * a message — a bad item must become a structured error response,
     * never take down the daemon inside the executor.
     */
    static bool fromJson(const Json &j, BatchItem &out,
                         std::string *error);

    /**
     * Canonical cache key: the kind plus every parameter that affects
     * the Result, serialized without default omission in fixed field
     * order. Two requests describing the same scenario produce the
     * same key regardless of request-JSON field order or spelled-out
     * defaults. The item id is deliberately excluded.
     *
     * Serialized once per item and memoized: lookup, hashing, the
     * executor's cache insert, and logging all reuse the same bytes
     * instead of re-walking the config JSON. Not thread-safe on first
     * call — callers populate it on the submission thread before the
     * item is shared with executor tasks (the fields are const
     * thereafter, so later concurrent reads are safe).
     */
    const std::string &canonicalKey() const;

  private:
    /** Lazily built canonicalKey() bytes ("" = not built yet; no
     *  valid key is empty — every key at least carries the kind). */
    mutable std::string canonicalKey_;
};

/** Execute one item. Deterministic: equal canonicalKey() implies
 *  bit-identical serialized Result. */
Result runBatchItem(const BatchItem &item);

/** Serialized form used for responses and cache payloads (compact,
 *  single line — NDJSON-safe). */
std::string serializeResult(const Result &r);

} // namespace vsmooth::serve

#endif // VSMOOTH_SERVE_BATCH_HH
