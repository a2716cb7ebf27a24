#include "sampler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "sim/system.hh"

namespace vsmooth::sim {

namespace {

/** First skip jumps this many window replays; doubles per confirmed
 *  skip up to SamplingConfig::maxSkipWindows. */
constexpr Cycles kInitialSkipWindows = 4;

// Window-similarity tolerances: a candidate window matches the
// reference when its mean deviation, deviation envelope, and per-core
// work totals agree within a fraction of the reference's own spread
// plus an absolute floor (the floor keeps near-constant phases from
// demanding exact equality of noisy statistics).
constexpr double kMeanTolFrac = 0.25;
constexpr double kMeanTolAbs = 5e-4;
constexpr double kEnvTolFrac = 0.5;
constexpr double kEnvTolAbs = 1.5e-3;
constexpr double kInstrTolFrac = 0.30;
constexpr double kInstrTolAbs = 64.0;
constexpr double kStallTolFrac = 0.40;
constexpr double kStallTolAbs = 96.0;

// Error-bound construction constants. Each extrapolated quantity gets
// a drift term — the within-phase window-to-window dispersion, scaled
// by the number of replayed windows — plus a realization term covering
// the divergence of the exact and sampled runs' stochastic streams
// after the first skip (CLT-style, sqrt of the observed total). The
// factors were tuned against the `sampled_within_bounds` differential
// fuzz property, but the bounds do not always hold: that property
// fails on 9 of seeds 1-12 at 2000 iterations (ROADMAP item 1 names
// the causes). See DESIGN.md "Sampled execution".
constexpr double kEvSlackFrac = 0.5;
constexpr double kEvSlackAbs = 4.0;
constexpr double kEvFloor = 16.0;
constexpr double kEvRealiz = 8.0;
constexpr double kInstrSlackFrac = 0.10;
constexpr double kInstrSlackAbs = 64.0;
constexpr double kInstrFloor = 256.0;
constexpr double kInstrRealiz = 16.0;
constexpr double kStallSlackFrac = 0.25;
constexpr double kStallSlackAbs = 96.0;
constexpr double kStallFloor = 256.0;
constexpr double kStallRealiz = 16.0;
// Extreme-value terms: the deepest droop the unsimulated stretches
// (and the post-divergence realization of the simulated ones) could
// have added beyond the observed extreme scales with the dispersion
// of per-window extremes, not the full intra-window swing — a phase
// whose windows all bottom out within a hair of each other cannot
// hide a much deeper minimum (Gumbel-type extreme spacing).
constexpr double kExtremeFrac = 2.0;
constexpr double kExtremeAbs = 0.005;
// OS-tick restart surges produce the global extremes; both runs
// simulate every surge but as different realizations once the
// streams diverge, and surge windows reset the reference so their
// depth dispersion is not captured by droopSpreadMax_.
constexpr double kTickTailSlack = 0.03;
constexpr double kTlFrac = 2.0;
constexpr double kTlFloorAbs = 20.0;
constexpr double kTlFloorScale = 30000.0;
// CDF-fraction terms: replayed mass is drawn from distributions
// within the phase's observed window-to-reference Kolmogorov-Smirnov
// distance of the truth, so any CDF query moves by at most the
// extrapolated fraction times that distance (plus estimation slack
// for it having been measured on finitely many windows). KS — the
// sup of the CDF gap — is the right dispersion here: it bounds every
// fraction query directly and its sampling noise is O(1/sqrt(n)),
// where per-bin total variation would drown in multinomial noise.
constexpr double kKsEstSlack = 0.02;
constexpr double kFracRealiz = 6.0;
constexpr double kFracFloor = 0.002;

/** Kolmogorov-Smirnov distance between two single-window deviation
 *  histograms (largest CDF gap over bin edges and tails), in [0, 1]. */
double
ksDistance(const Histogram &a, const Histogram &b)
{
    const auto na = static_cast<double>(a.totalCount());
    const auto nb = static_cast<double>(b.totalCount());
    if (na == 0.0 || nb == 0.0)
        return na == nb ? 0.0 : 1.0;
    double ca = static_cast<double>(a.underflowCount()) / na;
    double cb = static_cast<double>(b.underflowCount()) / nb;
    double d = std::abs(ca - cb);
    for (std::size_t i = 0; i < a.numBins(); ++i) {
        ca += static_cast<double>(a.binCount(i)) / na;
        cb += static_cast<double>(b.binCount(i)) / nb;
        d = std::max(d, std::abs(ca - cb));
    }
    return d;
}

std::uint64_t
maxOf(const std::vector<std::uint64_t> &v)
{
    std::uint64_t m = 0;
    for (std::uint64_t x : v)
        m = std::max(m, x);
    return m;
}

} // namespace

double
SamplingReport::simulatedFraction() const
{
    const Cycles total = simulatedCycles + extrapolatedCycles;
    if (total == 0)
        return 1.0;
    return static_cast<double>(simulatedCycles) /
        static_cast<double>(total);
}

std::vector<std::pair<std::string, double>>
SamplingReport::namedBounds() const
{
    return {
        {"max_droop", maxDroopBound},
        {"max_overshoot", maxOvershootBound},
        {"event_count", eventCountBound},
        {"deepest_event", deepestEventBound},
        {"timeline_element", timelineElementBound},
        {"core_instructions", coreInstructionBound},
        {"core_stall_cycles", coreStallCycleBound},
        {"hist_fraction", histFractionBound},
    };
}

void
SamplingReport::merge(const SamplingReport &other)
{
    active = active || other.active;
    simulatedCycles += other.simulatedCycles;
    extrapolatedCycles += other.extrapolatedCycles;
    skips += other.skips;
    // Extreme-value bounds (deepest droop/overshoot seen anywhere in
    // the population) and fraction bounds (mass-weighted averages of
    // per-run fractions) are covered by the worst contributing run.
    maxDroopBound = std::max(maxDroopBound, other.maxDroopBound);
    maxOvershootBound =
        std::max(maxOvershootBound, other.maxOvershootBound);
    deepestEventBound =
        std::max(deepestEventBound, other.deepestEventBound);
    timelineElementBound =
        std::max(timelineElementBound, other.timelineElementBound);
    histFractionBound =
        std::max(histFractionBound, other.histFractionBound);
    // Count bounds cover *summed* counts, so per-run errors add.
    eventCountBound += other.eventCountBound;
    coreInstructionBound += other.coreInstructionBound;
    coreStallCycleBound += other.coreStallCycleBound;
}

PhaseSampler::PhaseSampler(System &sys, const SamplingConfig &cfg)
    : sys_(sys), cfg_(cfg),
      windowCycles_(static_cast<Cycles>(cfg.windowBlocks) *
                    System::kBlockCycles),
      winHist_(sys.scope_.histogram().lowerEdge(),
               sys.scope_.histogram().upperEdge(),
               sys.scope_.histogram().numBins()),
      refHist_(winHist_),
      skipWindows_(std::min<Cycles>(kInitialSkipWindows,
                                    cfg.maxSkipWindows))
{
    if (cfg_.windowBlocks == 0)
        fatal("PhaseSampler: windowBlocks must be positive");
    if (cfg_.stableWindows == 0)
        fatal("PhaseSampler: stableWindows must be positive");
    if (cfg_.maxSkipWindows == 0)
        fatal("PhaseSampler: maxSkipWindows must be positive");
    if (!(cfg_.guardBand >= 0.0))
        fatal("PhaseSampler: guardBand must be non-negative");
    snapBankEvents_.resize(sys_.bank_.size());
    snapCounters_.resize(sys_.cores_.size());
}

void
PhaseSampler::beginWindow()
{
    winDevSum_ = 0.0;
    winDevMin_ = 1e9;
    winDevMax_ = -1e9;
    winHist_.clear();
    for (std::size_t i = 0; i < sys_.bank_.size(); ++i)
        snapBankEvents_[i] = sys_.bank_.eventCountAt(i);
    snapTimelineDroops_ =
        sys_.timeline_ ? sys_.timeline_->totalDroops() : 0;
    for (std::size_t i = 0; i < sys_.cores_.size(); ++i)
        snapCounters_[i] = sys_.cores_[i]->counters();
}

void
PhaseSampler::abortWindow()
{
    winBlocks_ = 0;
}

void
PhaseSampler::accumulateBlock(const double *dev, std::size_t n)
{
    double sum = 0.0;
    double mn = winDevMin_;
    double mx = winDevMax_;
    for (std::size_t j = 0; j < n; ++j) {
        const double d = dev[j];
        sum += d;
        mn = d < mn ? d : mn;
        mx = d > mx ? d : mx;
    }
    winDevSum_ += sum;
    winDevMin_ = mn;
    winDevMax_ = mx;
    winHist_.addBlock(dev, n);
}

PhaseSampler::WindowStats
PhaseSampler::closeWindow()
{
    WindowStats w;
    w.devMean = winDevSum_ / static_cast<double>(windowCycles_);
    w.devMin = winDevMin_;
    w.devMax = winDevMax_;
    w.bankDelta.resize(sys_.bank_.size());
    for (std::size_t i = 0; i < sys_.bank_.size(); ++i)
        w.bankDelta[i] = sys_.bank_.eventCountAt(i) - snapBankEvents_[i];
    w.timelineDroops = sys_.timeline_
        ? sys_.timeline_->totalDroops() - snapTimelineDroops_
        : 0;
    const std::size_t nCores = sys_.cores_.size();
    w.coreDelta.resize(nCores);
    w.coreInstr.resize(nCores);
    w.coreStall.resize(nCores);
    for (std::size_t i = 0; i < nCores; ++i) {
        const cpu::PerfCounters &now = sys_.cores_[i]->counters();
        const cpu::PerfCounters &then = snapCounters_[i];
        cpu::SkipCounters &d = w.coreDelta[i];
        d.instructions = now.instructions() - then.instructions();
        std::uint64_t stallTotal = 0;
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses; ++c) {
            const auto cause = static_cast<cpu::StallCause>(c);
            d.stallCycles[c] =
                now.stallCycles(cause) - then.stallCycles(cause);
            d.events[c] = now.eventCount(cause) - then.eventCount(cause);
            stallTotal += d.stallCycles[c];
        }
        w.coreInstr[i] = d.instructions;
        w.coreStall[i] = stallTotal;
    }
    return w;
}

bool
PhaseSampler::similarToRef(const WindowStats &w) const
{
    const double width = ref_.devMax - ref_.devMin;
    if (std::abs(w.devMean - ref_.devMean) >
        kMeanTolFrac * width + kMeanTolAbs)
        return false;
    const double envTol = kEnvTolFrac * width + kEnvTolAbs;
    if (w.devMin < ref_.devMin - envTol ||
        w.devMax > ref_.devMax + envTol)
        return false;
    for (std::size_t i = 0; i < w.coreInstr.size(); ++i) {
        const auto refInstr = static_cast<double>(ref_.coreInstr[i]);
        const auto dInstr = std::abs(
            static_cast<double>(w.coreInstr[i]) - refInstr);
        if (dInstr > kInstrTolFrac * refInstr + kInstrTolAbs)
            return false;
        const auto refStall = static_cast<double>(ref_.coreStall[i]);
        const auto dStall = std::abs(
            static_cast<double>(w.coreStall[i]) - refStall);
        if (dStall > kStallTolFrac * refStall + kStallTolAbs)
            return false;
    }
    return true;
}

void
PhaseSampler::resetPhase(const WindowStats &w)
{
    ref_ = w;
    refHist_ = winHist_;
    hasRef_ = true;
    consecutive_ = 0;
    skipWindows_ =
        std::min<Cycles>(kInitialSkipWindows, cfg_.maxSkipWindows);
    phaseDevMin_ = w.devMin;
    phaseDevMax_ = w.devMax;
    phaseMinHi_ = w.devMin;
    phaseMaxLo_ = w.devMax;
    phaseKsMax_ = 0.0;
    phaseBankMin_ = w.bankDelta;
    phaseBankMax_ = w.bankDelta;
    phaseTlMin_ = w.timelineDroops;
    phaseTlMax_ = w.timelineDroops;
    phaseInstrMin_ = w.coreInstr;
    phaseInstrMax_ = w.coreInstr;
    phaseStallMin_ = w.coreStall;
    phaseStallMax_ = w.coreStall;
}

void
PhaseSampler::extendPhase(const WindowStats &w)
{
    phaseDevMin_ = std::min(phaseDevMin_, w.devMin);
    phaseDevMax_ = std::max(phaseDevMax_, w.devMax);
    phaseMinHi_ = std::max(phaseMinHi_, w.devMin);
    phaseMaxLo_ = std::min(phaseMaxLo_, w.devMax);
    phaseKsMax_ =
        std::max(phaseKsMax_, ksDistance(winHist_, refHist_));
    for (std::size_t i = 0; i < w.bankDelta.size(); ++i) {
        phaseBankMin_[i] = std::min(phaseBankMin_[i], w.bankDelta[i]);
        phaseBankMax_[i] = std::max(phaseBankMax_[i], w.bankDelta[i]);
    }
    phaseTlMin_ = std::min(phaseTlMin_, w.timelineDroops);
    phaseTlMax_ = std::max(phaseTlMax_, w.timelineDroops);
    for (std::size_t i = 0; i < w.coreInstr.size(); ++i) {
        phaseInstrMin_[i] = std::min(phaseInstrMin_[i], w.coreInstr[i]);
        phaseInstrMax_[i] = std::max(phaseInstrMax_[i], w.coreInstr[i]);
        phaseStallMin_[i] = std::min(phaseStallMin_[i], w.coreStall[i]);
        phaseStallMax_[i] = std::max(phaseStallMax_[i], w.coreStall[i]);
    }
}

bool
PhaseSampler::classify(const WindowStats &w)
{
    if (!hasRef_ || !similarToRef(w)) {
        // First window ever, or a phase change: this window becomes
        // the new reference and stability restarts from scratch.
        resetPhase(w);
        return false;
    }
    extendPhase(w);
    ++consecutive_;
    return consecutive_ >= cfg_.stableWindows;
}

bool
PhaseSampler::nearGuardBand(double deviation) const
{
    const double g = cfg_.guardBand;
    for (std::size_t i = 0; i < sys_.bank_.size(); ++i) {
        const noise::DroopDetector &d = sys_.bank_.detector(i);
        if (std::abs(deviation + d.margin()) < g ||
            std::abs(deviation - d.releaseLevel()) < g)
            return true;
    }
    if (sys_.timeline_ &&
        std::abs(deviation + sys_.timeline_->margin()) < g)
        return true;
    return false;
}

Cycles
PhaseSampler::planSkip(Cycles remaining) const
{
    // Never jump an OS-tick injection: the injection cycle must be
    // simulated.
    Cycles cap = sys_.untilOsTick(remaining);
    // Never jump a per-core behavioral boundary (phase change,
    // workload completion). A core that does not support skipping
    // reports 0 and disables fast-forward entirely.
    for (const auto &core : sys_.cores_)
        cap = std::min(cap, core->skippableCycles());
    const Cycles m = std::min<Cycles>(skipWindows_, cap / windowCycles_);
    if (m == 0)
        return 0;
    // Guard band: with the boundary sample close to an armed
    // threshold or release level, the detectors' hysteresis state
    // after the skipped stretch would be ambiguous — postpone and
    // keep simulating until the state is clear-cut.
    if (nearGuardBand(sys_.deviation()))
        return 0;
    return m * windowCycles_;
}

void
PhaseSampler::applySkip(const WindowStats &w, Cycles skipCycles)
{
    const Cycles m = skipCycles / windowCycles_;

    // Sinks: m exact integer replays of the representative window.
    // The histogram gains exactly m * windowCycles_ of mass (mass
    // conservation is bit-exact); the detectors gain m times the
    // window's event starts with hysteresis state untouched; the
    // timeline advances with proportionally allocated droops; each
    // core advances its clock exactly and its work counters by the
    // scaled window deltas. PDN state and core RNG streams stay put —
    // the resumed stretch is a valid sample of the stationary state.
    sys_.scope_.recordExtrapolated(winHist_, m);
    for (std::size_t i = 0; i < sys_.bank_.size(); ++i)
        sys_.bank_.addExtrapolatedEvents(i, w.bankDelta[i] * m);
    if (sys_.timeline_)
        sys_.timeline_->feedExtrapolated(skipCycles, w.timelineDroops * m);
    for (std::size_t i = 0; i < sys_.cores_.size(); ++i) {
        cpu::SkipCounters scaled = w.coreDelta[i];
        scaled.instructions *= m;
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses; ++c) {
            scaled.stallCycles[c] *= m;
            scaled.events[c] *= m;
        }
        sys_.cores_[i]->skipAhead(skipCycles, scaled);
    }
    sys_.advance(skipCycles);

    // Bound accounting: each replayed window can drift from the truth
    // by at most the phase's observed window-to-window spread plus
    // slack proportional to the window total (the spread estimate
    // itself comes from a handful of windows).
    const auto md = static_cast<double>(m);
    double evSpread = 0.0;
    for (std::size_t i = 0; i < phaseBankMax_.size(); ++i) {
        evSpread = std::max(
            evSpread,
            static_cast<double>(phaseBankMax_[i] - phaseBankMin_[i]));
    }
    const auto evMax = static_cast<double>(maxOf(phaseBankMax_));
    evBound_ += md * (evSpread + kEvSlackFrac * evMax + kEvSlackAbs);

    double instrSpread = 0.0;
    for (std::size_t i = 0; i < phaseInstrMax_.size(); ++i) {
        instrSpread = std::max(
            instrSpread,
            static_cast<double>(phaseInstrMax_[i] - phaseInstrMin_[i]));
    }
    const auto instrMax = static_cast<double>(maxOf(phaseInstrMax_));
    instrBound_ +=
        md * (instrSpread + kInstrSlackFrac * instrMax + kInstrSlackAbs);

    double stallSpread = 0.0;
    for (std::size_t i = 0; i < phaseStallMax_.size(); ++i) {
        stallSpread = std::max(
            stallSpread,
            static_cast<double>(phaseStallMax_[i] - phaseStallMin_[i]));
    }
    const auto stallMax = static_cast<double>(maxOf(phaseStallMax_));
    stallBound_ +=
        md * (stallSpread + kStallSlackFrac * stallMax + kStallSlackAbs);

    droopSpreadMax_ =
        std::max(droopSpreadMax_, phaseMinHi_ - phaseDevMin_);
    overshootSpreadMax_ =
        std::max(overshootSpreadMax_, phaseDevMax_ - phaseMaxLo_);
    ksSkipMax_ = std::max(ksSkipMax_, phaseKsMax_);
    if (sys_.timeline_) {
        const double spreadRate =
            static_cast<double>(phaseTlMax_ - phaseTlMin_) * 1000.0 /
            static_cast<double>(windowCycles_);
        tlSpreadMax_ = std::max(tlSpreadMax_, spreadRate);
    }

    extrapolated_ += skipCycles;
    ++skips_;
    skipWindows_ =
        std::min<Cycles>(skipWindows_ * 2, cfg_.maxSkipWindows);
}

void
PhaseSampler::run(Cycles n)
{
    // Windows must be contiguous full blocks; a fresh run() call may
    // follow arbitrary external stepping, so restart accumulation.
    abortWindow();
    Cycles remaining = n;
    while (remaining > 0) {
        const Cycles blk = sys_.stepLimit(remaining);
        if (blk < System::kBlockCycles) {
            // OS-tick injection due (blk == 0), an injection landing
            // inside the next full block, or end-of-run truncation:
            // execute exactly and restart the window.
            abortWindow();
            const Cycles done = sys_.step(blk);
            simulated_ += done;
            remaining -= done;
            continue;
        }
        if (winBlocks_ == 0)
            beginWindow();
        sys_.tickBlock(blk);
        simulated_ += blk;
        remaining -= blk;
        accumulateBlock(sys_.blockDeviation_.data(),
                        static_cast<std::size_t>(blk));
        if (++winBlocks_ < cfg_.windowBlocks)
            continue;
        const WindowStats w = closeWindow();
        winBlocks_ = 0;
        if (!classify(w))
            continue;
        const Cycles skip = planSkip(remaining);
        if (skip > 0) {
            applySkip(w, skip);
            remaining -= skip;
        }
    }
}

SamplingReport
PhaseSampler::report() const
{
    SamplingReport r;
    r.active = true;
    r.simulatedCycles = simulated_;
    r.extrapolatedCycles = extrapolated_;
    r.skips = skips_;
    if (extrapolated_ == 0)
        return r; // bit-exact run: all bounds stay 0
    const Cycles total = simulated_ + extrapolated_;
    const double extFrac = static_cast<double>(extrapolated_) /
        static_cast<double>(total);
    // Realization slack: after the first skip the exact and sampled
    // runs consume their stochastic streams differently, so even the
    // simulated stretches differ as independent realizations — a
    // CLT-scale sqrt(total) term per counting metric, and a
    // heavy-tail term for the extremes when OS-tick restart surges
    // (exponential-tail magnitudes) are in play.
    std::uint64_t evTotalMax = 0;
    for (std::size_t i = 0; i < sys_.bank_.size(); ++i)
        evTotalMax = std::max(evTotalMax, sys_.bank_.eventCountAt(i));
    std::uint64_t instrTotalMax = 0;
    std::uint64_t stallTotalMax = 0;
    for (const auto &core : sys_.cores_) {
        const cpu::PerfCounters &c = core->counters();
        instrTotalMax = std::max(instrTotalMax, c.instructions());
        stallTotalMax = std::max(stallTotalMax, c.totalStallCycles());
    }
    const bool ticks = sys_.cfg_.osTickInterval > 0;

    r.eventCountBound = evBound_ + kEvFloor +
        kEvRealiz * std::sqrt(static_cast<double>(evTotalMax) + 1.0);
    r.coreInstructionBound = instrBound_ + kInstrFloor +
        kInstrRealiz *
            std::sqrt(static_cast<double>(instrTotalMax) + 1.0);
    r.coreStallCycleBound = stallBound_ + kStallFloor +
        kStallRealiz *
            std::sqrt(static_cast<double>(stallTotalMax) + 1.0);
    r.maxDroopBound = kExtremeFrac * droopSpreadMax_ + cfg_.guardBand +
        kExtremeAbs + (ticks ? kTickTailSlack : 0.0);
    r.maxOvershootBound = kExtremeFrac * overshootSpreadMax_ +
        cfg_.guardBand + kExtremeAbs + (ticks ? kTickTailSlack : 0.0);
    r.deepestEventBound = r.maxDroopBound;
    if (sys_.timeline_) {
        const auto interval =
            static_cast<double>(sys_.cfg_.timelineInterval);
        r.timelineElementBound = std::min(
            1000.0, kTlFrac * tlSpreadMax_ + kTlFloorAbs +
                kTlFloorScale / std::sqrt(interval));
    }
    r.histFractionBound = extFrac * (ksSkipMax_ + kKsEstSlack) +
        kFracFloor + kFracRealiz / std::sqrt(static_cast<double>(total));
    return r;
}

} // namespace vsmooth::sim
