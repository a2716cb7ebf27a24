/**
 * @file
 * Phase-sampled execution: error-bounded fast-forward of stationary
 * stretches.
 *
 * Long-horizon population sweeps spend most of their cycles inside
 * phase-stable execution where the PDN output is statistically
 * stationary (the paper's "voltage noise phases", Sec IV-A). The
 * PhaseSampler detects such stretches online — per-core activity and
 * PDN deviation statistics over windows of 256-cycle blocks —
 * simulates a representative window of each at full fidelity, then
 * extrapolates an integer number of window replays into the sinks
 * (histogram mass, droop-event counts, timeline intervals, core
 * counters) with explicit per-metric error bounds. Anything the
 * extrapolation cannot cover soundly falls back to exact block
 * execution: guard-banded proximity to an armed detector margin,
 * phase/OS-tick boundaries, workload completion, an active trace.
 * See DESIGN.md "Sampled execution".
 */

#ifndef VSMOOTH_SIM_SAMPLER_HH
#define VSMOOTH_SIM_SAMPLER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/units.hh"
#include "cpu/core_model.hh"

namespace vsmooth::sim {

class System;

/** Configuration of the sampled-execution engine. */
struct SamplingConfig
{
    /**
     * Off — always exact (bit-identical to pre-sampling behavior).
     * Auto — sample when the System is eligible (blocked pipeline
     * active, no trace). Env — the default — defers to the
     * VSMOOTH_SAMPLING environment variable ("auto"/"on"/"1" enables;
     * unset or anything else is Off), read at System start.
     */
    enum class Mode : std::uint8_t { Env, Off, Auto };
    Mode mode = Mode::Env;

    /** Blocks (of System::kBlockCycles) per detector window. */
    std::uint32_t windowBlocks = 8;
    /** Consecutive reference-similar windows before skipping. */
    std::uint32_t stableWindows = 2;
    /** Maximum window replays per skip (the multiple doubles from
     *  kInitialSkipWindows up to this on consecutive confirms). The
     *  accumulated error bounds scale with the total number of
     *  replayed windows, not the per-skip stride, so a longer stride
     *  costs no accuracy — it only reduces how often a confirmed
     *  phase pays the one-window re-simulation between jumps. */
    std::uint32_t maxSkipWindows = 128;
    /**
     * Guard band (absolute deviation units): a skip is postponed when
     * the boundary deviation sample lies within this band of any
     * armed droop-detector threshold or release level, so detector
     * hysteresis state is never ambiguous across a fast-forward.
     */
    double guardBand = 0.002;
};

/** Realized sampling statistics and error bounds for one System run.
 *  All bounds are absolute, calibrated statistical constructions
 *  (window-to-window dispersion scaled by skip multiples, plus
 *  realization-divergence slack) — see DESIGN.md for the derivation.
 *  The `sampled_within_bounds` fuzz property checks them, in the
 *  all-properties `vsmooth fuzz` pass of tools/ci.sh. */
struct SamplingReport
{
    /** True when the sampled-execution engine drove run(). */
    bool active = false;
    Cycles simulatedCycles = 0;
    Cycles extrapolatedCycles = 0;
    /** Number of fast-forward jumps taken. */
    std::uint64_t skips = 0;

    double maxDroopBound = 0.0;
    double maxOvershootBound = 0.0;
    /** Uniform bound on any per-margin droop-event count. */
    double eventCountBound = 0.0;
    /** Bound on any per-margin deepest-event depth. When only one
     *  realization records an event at a margin, the bound instead
     *  covers how far past the armed margin that lone event reaches
     *  (||depth| - margin| <= bound) — a depth-vs-zero delta is a
     *  full event depth, which no dispersion bound can cover. */
    double deepestEventBound = 0.0;
    /** Bound on any timeline series element (droops per 1K). */
    double timelineElementBound = 0.0;
    /** Bound on any per-core committed-instruction total. */
    double coreInstructionBound = 0.0;
    /** Bound on any per-core total-stall-cycle count. */
    double coreStallCycleBound = 0.0;
    /** Bound on any histogram CDF fraction query. */
    double histFractionBound = 0.0;

    /** Fraction of the run's cycles simulated at full fidelity
     *  (1.0 when nothing was extrapolated). */
    double simulatedFraction() const;

    /** The bounds as (metric-name, value) pairs, in a fixed order —
     *  the "bounds" object stamped into Result metadata. */
    std::vector<std::pair<std::string, double>> namedBounds() const;

    /** Fold another System's report into this one (population
     *  aggregation): cycles and skips add; extreme-value and
     *  fraction bounds take the max (a merged extreme or
     *  mass-weighted fraction is covered by its worst contributor);
     *  count bounds add (summed counts sum their errors). */
    void merge(const SamplingReport &other);
};

/**
 * Drives a System's run() with online stationarity detection and
 * error-bounded extrapolation. Constructed by System::start() when
 * the resolved sampling mode is Auto and the System is eligible;
 * uses the System's private block pipeline (friend access).
 */
class PhaseSampler
{
  public:
    PhaseSampler(System &sys, const SamplingConfig &cfg);

    /** Advance the System by exactly n cycles (sampled). */
    void run(Cycles n);

    /** Statistics and bounds covering all run() calls so far. */
    SamplingReport report() const;

  private:
    /** Statistics of one completed detector window. */
    struct WindowStats
    {
        double devMean = 0.0;
        double devMin = 0.0;
        double devMax = 0.0;
        /** Per-margin droop-event starts within the window. */
        std::vector<std::uint64_t> bankDelta;
        /** Below-margin timeline samples within the window. */
        std::uint64_t timelineDroops = 0;
        /** Per-core counter deltas over the window. */
        std::vector<cpu::SkipCounters> coreDelta;
        std::vector<std::uint64_t> coreInstr;
        std::vector<std::uint64_t> coreStall;
    };

    void beginWindow();
    void abortWindow();
    void accumulateBlock(const double *dev, std::size_t n);
    WindowStats closeWindow();

    /** Ref/consecutive bookkeeping; true when a skip may follow. */
    bool classify(const WindowStats &w);
    bool similarToRef(const WindowStats &w) const;
    void resetPhase(const WindowStats &w);
    void extendPhase(const WindowStats &w);

    /** Cycles to fast-forward right now (0 = keep simulating). */
    Cycles planSkip(Cycles remaining) const;
    bool nearGuardBand(double deviation) const;
    void applySkip(const WindowStats &w, Cycles skipCycles);

    System &sys_;
    SamplingConfig cfg_;
    Cycles windowCycles_;

    // Window under accumulation.
    std::uint32_t winBlocks_ = 0;
    double winDevSum_ = 0.0;
    double winDevMin_ = 0.0;
    double winDevMax_ = 0.0;
    Histogram winHist_;
    std::vector<std::uint64_t> snapBankEvents_;
    std::uint64_t snapTimelineDroops_ = 0;
    std::vector<cpu::PerfCounters> snapCounters_;

    // Stability state.
    bool hasRef_ = false;
    WindowStats ref_;
    /** The reference window's deviation histogram (the yardstick for
     *  the Kolmogorov-Smirnov dispersion the CDF bound is built
     *  from). */
    Histogram refHist_;
    std::uint32_t consecutive_ = 0;
    Cycles skipWindows_;

    // Current-phase dispersion (reset whenever the reference moves).
    double phaseDevMin_ = 0.0;
    double phaseDevMax_ = 0.0;
    /** Envelope of the per-window extremes: the highest window
     *  minimum and lowest window maximum seen this phase. Their gaps
     *  to phaseDevMin_/phaseDevMax_ measure how much the deepest
     *  window differs from the shallowest — the dispersion that
     *  bounds what an unsimulated stretch could have added. */
    double phaseMinHi_ = 0.0;
    double phaseMaxLo_ = 0.0;
    /** Largest Kolmogorov-Smirnov distance between any window of this
     *  phase and the reference window's histogram. */
    double phaseKsMax_ = 0.0;
    std::vector<std::uint64_t> phaseBankMin_;
    std::vector<std::uint64_t> phaseBankMax_;
    std::uint64_t phaseTlMin_ = 0;
    std::uint64_t phaseTlMax_ = 0;
    std::vector<std::uint64_t> phaseInstrMin_;
    std::vector<std::uint64_t> phaseInstrMax_;
    std::vector<std::uint64_t> phaseStallMin_;
    std::vector<std::uint64_t> phaseStallMax_;

    // Realized totals and accumulated bound terms.
    Cycles simulated_ = 0;
    Cycles extrapolated_ = 0;
    std::uint64_t skips_ = 0;
    double evBound_ = 0.0;
    double instrBound_ = 0.0;
    double stallBound_ = 0.0;
    /** Worst per-window extreme dispersion among phases that actually
     *  fast-forwarded (shallow-vs-deep window minima and maxima). */
    double droopSpreadMax_ = 0.0;
    double overshootSpreadMax_ = 0.0;
    /** Worst window-to-reference Kolmogorov-Smirnov distance among
     *  phases that actually fast-forwarded. */
    double ksSkipMax_ = 0.0;
    double tlSpreadMax_ = 0.0;
};

} // namespace vsmooth::sim

#endif // VSMOOTH_SIM_SAMPLER_HH
