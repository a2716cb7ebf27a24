/**
 * @file
 * The top-level simulated system: N cores, their current models, the
 * shared PDN, and the measurement instrumentation (scope, droop
 * detector bank, timeline) — the software twin of the paper's probed
 * Core 2 Duo platform.
 *
 * Every cycle:
 *   1. each core advances and reports its activity,
 *   2. the current models convert activity to amps,
 *   3. the summed current steps the PDN and yields the die voltage,
 *   4. the instrumentation records the voltage deviation,
 *   5. if an operating margin and recovery cost are configured, a
 *      violation triggers a *chip-wide* rollback stall on all cores
 *      (a shared supply means a global recovery — Sec III-C).
 */

#ifndef VSMOOTH_SIM_SYSTEM_HH
#define VSMOOTH_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/core_model.hh"
#include "noise/droop_detector.hh"
#include "resilience/emergency_predictor.hh"
#include "resilience/margin_controller.hh"
#include "resilience/resonance_damper.hh"
#include "noise/scope.hh"
#include "noise/timeline.hh"
#include "noise/trace_writer.hh"
#include "pdn/package_config.hh"
#include "pdn/second_order.hh"
#include "power/current_model.hh"
#include "sim/calibration.hh"
#include "sim/sampler.hh"

namespace vsmooth::sim {

/** Configuration of a System. */
struct SystemConfig
{
    pdn::PackageConfig package = pdn::PackageConfig::core2duo();
    Hertz clockFrequency{kClockHz};
    power::CurrentModelParams coreCurrent{};

    /**
     * Split per-core supplies instead of one connected rail. The
     * paper's footnote 3 (and James et al., ISSCC 2007 [1]) reports
     * that split supplies see *larger* swings: each rail gets only
     * its share of the decap and loses the cross-core averaging of a
     * shared rail. Modeled by giving each core its own tank with
     * 1/numCores of the capacitance.
     */
    bool splitSupplies = false;

    /**
     * Online resiliency: when emergencyMargin > 0, a droop past it
     * triggers a recovery of recoveryCostCycles on every core.
     */
    double emergencyMargin = 0.0;
    std::uint32_t recoveryCostCycles = 0;

    /**
     * Hardware noise-mitigation baselines (the schemes the paper's
     * software scheduler is positioned against). When enabled, a
     * throttle request scales every core's activity for that cycle,
     * smoothing the current transient.
     */
    bool enableEmergencyPredictor = false;
    bool enableResonanceDamper = false;
    resilience::ResonanceDamperParams damperParams{};
    /** Activity multiplier applied while a mitigation throttles. */
    double throttleFactor = 0.6;

    /**
     * Closed-loop adaptive margin: a PI controller reads the simulated
     * ring-oscillator slack at the OS-tick cadence and trims the
     * operating margin toward the thinnest level the observed noise
     * supports; a droop violating the *current* margin triggers the
     * same chip-wide recovery as the fixed-margin engine and widens
     * the margin. Mutually exclusive with emergencyMargin (one margin
     * authority per chip) and requires recoveryCostCycles > 0. A
     * marginControllerParams.updateInterval of 0 resolves to
     * osTickInterval.
     */
    bool enableMarginController = false;
    resilience::MarginControllerParams marginControllerParams{};

    /**
     * OS timer-tick interval in cycles (0 disables). Every interval,
     * all cores take a synchronized platform interrupt — the source
     * of rare chip-wide deep droops. Defaults to the real 1 kHz tick
     * at 1.86 GHz; time-compressed population studies shorten it so
     * a scaled-down run sees a representative number of ticks
     * (kCompressedOsTick).
     */
    Cycles osTickInterval = 1'860'000;

    /** Optional waveform trace (ring buffer of recent cycles). */
    bool enableTrace = false;
    std::size_t traceCapacity = 65536;

    /** Optional droop-rate timeline (Fig 14-style series). */
    bool enableTimeline = false;
    Cycles timelineInterval = 100'000;
    double timelineMargin = kIdleMargin;

    /**
     * Batched block-wise execution of run() when no per-cycle
     * feedback consumer is active (see DESIGN.md "Batched
     * execution"). Results are bit-identical either way;
     * this switch (and the VSMOOTH_SCALAR_TICK environment variable)
     * exists so the differential tests and golden cross-checks can
     * force the cycle-at-a-time path.
     */
    bool enableBlockedExecution = true;

    /**
     * Sampled execution of run(): fast-forward stationary stretches
     * by extrapolating the sinks with explicit error bounds (see
     * DESIGN.md "Sampled execution"). Off (the Env default with no
     * VSMOOTH_SAMPLING set) is bit-identical to exact execution;
     * Auto engages only when the System is eligible (blocked
     * pipeline active, no trace).
     */
    SamplingConfig sampling;
};

/** Multi-core system simulation. */
class System
{
  public:
    /**
     * Cycles per batched fast-path block: long enough to amortize
     * virtual dispatch and cross-component call overhead, short
     * enough that the scratch buffers stay cache-resident.
     */
    static constexpr Cycles kBlockCycles = 256;

    explicit System(const SystemConfig &cfg);

    /**
     * Attach a core. All cores must be added before the first tick.
     * @return the core's index
     */
    std::size_t addCore(std::unique_ptr<cpu::CoreModel> core);

    /** Advance the whole system one clock cycle. */
    void tick();

    /** Advance n cycles. Every run is a fixed span: a core whose
     *  finite schedule finishes mid-run idles for the rest of it. */
    void run(Cycles n);

    std::size_t numCores() const { return cores_.size(); }
    cpu::CoreModel &core(std::size_t i) { return *cores_.at(i); }
    const cpu::CoreModel &core(std::size_t i) const
    { return *cores_.at(i); }

    Cycles cycles() const { return cycles_; }
    /** Die voltage after the last tick. */
    double dieVoltage() const { return pdn_.voltage(); }
    /** Signed deviation of die voltage from nominal. */
    double deviation() const { return pdn_.voltageDeviation(); }
    /** Total chip current of the last tick. */
    double totalCurrent() const { return lastCurrent_; }

    const noise::Scope &scope() const { return scope_; }
    const noise::DroopDetectorBank &droopBank() const { return bank_; }
    /** Timeline series (only if enabled; finishes the last interval). */
    const std::vector<double> &timelineSeries();

    /** Waveform trace (only if enabled; fatal otherwise). */
    noise::TraceWriter &trace();

    /** Emergencies triggered at the configured operating margin. */
    std::uint64_t emergencies() const { return emergencies_; }

    /** The signature predictor, if enabled (nullptr otherwise). */
    const resilience::EmergencyPredictor *predictor() const
    { return predictor_ ? &*predictor_ : nullptr; }
    /** The resonance damper, if enabled (nullptr otherwise). */
    const resilience::ResonanceDamper *damper() const
    { return damper_ ? &*damper_ : nullptr; }
    /** The adaptive margin controller, if enabled (nullptr otherwise). */
    const resilience::MarginController *marginController() const
    { return marginController_ ? &*marginController_ : nullptr; }

    const SystemConfig &config() const { return cfg_; }

    /**
     * True when run() executes through the batched block pipeline
     * (no per-cycle feedback consumer configured).
     */
    bool blockedExecutionActive() const { return blockEligible_; }

    /**
     * True when run() executes through the sampled-execution engine
     * (resolved sampling mode Auto and the System is eligible).
     * Resolved at the first tick.
     */
    bool samplingActive() const { return sampler_ != nullptr; }

    /**
     * Realized sampling statistics and error bounds; a default
     * (inactive) report when sampling never engaged.
     */
    SamplingReport samplingReport() const
    { return sampler_ ? sampler_->report() : SamplingReport{}; }

  private:
    /** The scenario-lane engine steps K Systems in lockstep: it plans
     *  and gathers and commits through the stages below, and runs
     *  the lanes' chains and PDNs in one cross-lane kernel. */
    friend class LaneGroup;
    /** The sampled-execution engine plans and steps through the
     *  stages below and applies extrapolated sink updates. */
    friend class PhaseSampler;

    /** One-time start-of-simulation initialization (PDN settling,
     *  per-rail construction, OS-tick countdowns, block buffers). */
    void start();

    /** True when start() will engage the sampled-execution engine:
     *  the resolved sampling mode is Auto and the System is eligible
     *  (blocked pipeline, no trace). Valid before start() — all the
     *  inputs are fixed at construction — so LaneGroup can route
     *  sampling runs through the solo path, where run() samples. */
    bool samplingWanted() const;

    // The block step (DESIGN.md "Batched execution"). Every executor
    // — run(), LaneGroup, PhaseSampler — plans with stepLimit() and
    // advances through step()/tickBlock() or, for fused lanes,
    // gather() + lane kernel + commit(); none keeps its own copy of a
    // stage.

    /**
     * The step planner: the largest admissible block not exceeding
     * `want` — capped by kBlockCycles and by the nearest pending
     * OS-tick injection. 0 means the next cycle must go through
     * per-cycle tick() (always, when blocked execution is off).
     * Requires start().
     */
    Cycles stepLimit(Cycles want) const;

    /** Execute a planned step: one tick() when blk is 0, else
     *  tickBlock(blk). @return the cycles advanced */
    Cycles step(Cycles blk);

    /** min(want, ticks before the next OS-tick injection is due). */
    Cycles untilOsTick(Cycles want) const;

    /**
     * Run one batched block of n cycles (1 <= n <= stepLimit()):
     * gather -> the cores' smoothing chains summed -> PDN stepBlock ->
     * commit. Bit-identical to n tick() calls.
     */
    void tickBlock(Cycles n);

    /**
     * Gather stage: each core fills n cycles of activity into its
     * column (core c at cols + c * coreStride), converted in place
     * to steady current.
     */
    void gather(double *cols, std::size_t coreStride, std::size_t n);

    /**
     * Commit stage: record a finished block's chip current and feed
     * its deviation to the scope, bank, timeline and trace sinks,
     * then advance() the clock by n.
     */
    void commit(const double *dev, const double *total, std::size_t n);

    /** Move the clock and the OS-tick countdowns n cycles on. */
    void advance(Cycles n);

    SystemConfig cfg_;
    pdn::SecondOrderPdn pdn_;
    /** Per-core rails when splitSupplies is set (built lazily at the
     *  first tick, once the core count is known). */
    std::vector<pdn::SecondOrderPdn> rails_;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
    std::vector<power::CurrentModel> currents_;
    noise::Scope scope_;
    noise::DroopDetectorBank bank_;
    std::optional<noise::DroopDetector> emergencyDetector_;
    std::optional<noise::NoiseTimeline> timeline_;
    std::optional<noise::TraceWriter> trace_;
    std::optional<resilience::EmergencyPredictor> predictor_;
    std::optional<resilience::ResonanceDamper> damper_;
    std::optional<resilience::MarginController> marginController_;
    /** Last-seen per-core event counts (for predictor event feed). */
    std::vector<std::array<std::uint64_t, cpu::PerfCounters::kNumCauses>>
        lastEventCounts_;
    std::uint64_t emergencies_ = 0;
    Cycles cycles_ = 0;
    std::vector<double> coreCurrents_;
    double lastCurrent_ = 0.0;
    bool started_ = false;
    /** Fast-path eligibility, fixed at construction. */
    bool blockEligible_ = false;
    /** Per-core ticks until the next OS-tick injection (0 = the next
     *  tick injects); empty when osTickInterval is 0. */
    std::vector<Cycles> osTickCountdown_;
    /** Block-pipeline scratch (kBlockCycles each, allocated once). */
    std::vector<double> blockActivity_;
    std::vector<double> blockTotal_;
    std::vector<double> blockDeviation_;
    /** Sampled-execution engine (only when the resolved sampling
     *  mode is Auto and the System is eligible). */
    std::unique_ptr<PhaseSampler> sampler_;
};

} // namespace vsmooth::sim

#endif // VSMOOTH_SIM_SYSTEM_HH
