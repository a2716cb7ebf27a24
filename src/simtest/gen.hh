/**
 * @file
 * Property-based-testing generators for the simulator stack.
 *
 * The golden harness and the differential unit tests pin behaviour at
 * a handful of hand-picked configurations; the fuzzing layer explores
 * the space *between* them. `fuzzConfigGen()` draws, from one Rng,
 * random-but-valid whole-simulator scenarios (FuzzConfig):
 * core count and workload mix, decap fraction, PDN R/L scaling
 * inside the mid-frequency resonance band, OS-tick and trace/timeline
 * periods at arbitrary (deliberately non-256-aligned) boundaries,
 * mitigation baselines, run lengths, and sweep job counts.
 *
 * FuzzConfig round-trips through JSON so a failing draw can be
 * written out by the shrinker and replayed verbatim with
 * `vsmooth fuzz --repro <file>`.
 */

#ifndef VSMOOTH_SIMTEST_GEN_HH
#define VSMOOTH_SIMTEST_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/units.hh"

namespace vsmooth::simtest {

/** Log-uniform double in [lo, hi) — for scale-free quantities like
 *  run lengths and periods, where each decade should be equally
 *  likely. */
double logUniformGen(Rng &rng, double lo, double hi);

/** Uniformly one of the given values. */
template <typename T>
T
elementGen(Rng &rng, const std::vector<T> &values)
{
    return values[static_cast<std::size_t>(
        rng.uniformInt(0, values.size() - 1))];
}

/** One simulated core's workload assignment. */
struct FuzzCore
{
    /** Index into workload::specCpu2006(). */
    std::uint32_t bench = 0;
    /** Collapse the benchmark's phase pattern to a single flat phase
     *  (the shrinker's "flatten phases" move). */
    bool flat = false;

    bool operator==(const FuzzCore &) const = default;
};

/**
 * One randomized whole-simulator scenario. Every field has a benign
 * default, and the JSON form omits default-valued fields, so shrunk
 * repro files stay short and readable.
 */
struct FuzzConfig
{
    /** Base seed for the per-core RNG streams. */
    std::uint64_t seed = 1;
    /** Cycles to run. */
    Cycles cycles = 20'000;
    /** Phase-schedule base length (phase boundaries land at
     *  fractions of this, independent of `cycles`, so block/phase
     *  edges rarely align). */
    Cycles baseLength = 20'000;
    /** Cores and their workloads (>= 1). */
    std::vector<FuzzCore> cores{FuzzCore{}};
    /** Looping schedules vs finite ones. Either way the run lasts
     *  `cycles`: a finite schedule finishes and its core idles for
     *  the rest of the run. */
    bool loop = true;

    // --- PDN ------------------------------------------------------------
    /** Package decap fraction (the paper's ProcN knob), in [0, 1]. */
    double decapFraction = 1.0;
    /** Package loop inductance scale: with decapFraction this moves
     *  the tank resonance across the measured 100-200 MHz band. */
    double lScale = 1.0;
    /** Package loop resistance scale (damping). */
    double rScale = 1.0;
    /** One-sided VRM ripple amplitude / Vdd. */
    double rippleFraction = 0.009;

    // --- Periodic boundaries (deliberately not 256-aligned) -------------
    /** OS timer-tick interval in cycles (0 disables). */
    Cycles osTickInterval = 25'000;
    bool enableTrace = false;
    std::uint64_t traceCapacity = 4096;
    bool enableTimeline = false;
    Cycles timelineInterval = 10'000;

    // --- Mitigations / fail-safe (disable the blocked fast path) --------
    /** Operating margin fraction (0 disables the fail-safe). */
    double emergencyMargin = 0.0;
    /** Recovery cost in cycles (>= 1 when emergencyMargin > 0). */
    std::uint32_t recoveryCost = 0;
    bool predictor = false;
    bool damper = false;
    bool split = false;

    // --- Adaptive margin controller (disables the blocked fast path) ----
    /** Closed-loop PI margin trimming (mutually exclusive with
     *  emergencyMargin — one margin authority per chip). */
    bool controller = false;
    double ctrlInitialMargin = 0.08;
    double ctrlMinMargin = 0.02;
    double ctrlMaxMargin = 0.14;
    /** Margin widening per violated droop (0 disables widening). */
    double ctrlWidenStep = 0.01;
    /** Recovery cost in cycles for controller-detected violations
     *  (>= 1 when controller is set). */
    std::uint32_t ctrlRecoveryCost = 200;

    // --- Undervolt fault model (fault_injection_determinism) ------------
    /** Margin the fault model sees; at the default (= the model's safe
     *  margin) the fault probability is exactly zero. */
    double faultMargin = 0.05;
    /** Per-access fault probability at margin 0. */
    double faultRate = 1e-3;

    // --- Sweep parallelism ----------------------------------------------
    /** Worker threads for the parallel==serial property. */
    std::uint64_t jobs = 2;

    // --- Scenario-lane engine (laned_vs_scalar) --------------------------
    /** Lane width for the laned property, 1..simd::kMaxLanes
     *  (0 = derive from the seed, the historical behaviour). */
    std::uint32_t laneWidth = 0;
    /** SIMD level pinned while checking: "", "scalar", "avx2", or
     *  "avx512" ("" = the ambient active level). Clamped
     *  to the host's maximum at check time, so repro files written on
     *  a wide host still replay — at the narrower level — anywhere. */
    std::string simdLevel;

    // --- Sampled execution (sampled_within_bounds) ----------------------
    /** Blocks per stationarity-detector window. */
    std::uint32_t samplingWindow = 8;
    /** Consecutive similar windows before a skip. */
    std::uint32_t samplingStable = 2;
    /** Maximum window replays per skip. */
    std::uint32_t samplingSkip = 128;
    /** Droop-detector guard band (absolute deviation units). */
    double samplingGuard = 0.002;

    bool operator==(const FuzzConfig &) const = default;

    /**
     * Serialize; with omitDefaults, fields equal to their
     * default-constructed value are skipped (shrunk repros stay under
     * ~20 lines).
     */
    Json toJson(bool omitDefaults = false) const;

    /** Parse (missing fields keep defaults); false + *error on
     *  schema/validity violations. */
    static bool fromJson(const Json &j, FuzzConfig &out,
                         std::string *error);

    /** Structural validity (what fromJson enforces); false + *why on
     *  violation. */
    bool valid(std::string *why = nullptr) const;
};

/** A random-but-valid FuzzConfig (the fuzzer's top-level draw). All
 *  randomness flows through `rng`, so a draw sequence is reproducible
 *  from one seed. */
FuzzConfig fuzzConfigGen(Rng &rng);

} // namespace vsmooth::simtest

#endif // VSMOOTH_SIMTEST_GEN_HH
