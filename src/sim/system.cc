#include "system.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/logging.hh"
#include "dsp/primitives.hh"

namespace vsmooth::sim {

namespace {

/** Environment escape hatch forcing the per-cycle scalar path, so
 *  golden runs can cross-check blocked vs scalar end to end. */
bool
scalarTickForced()
{
    static const bool forced = [] {
        const char *e = std::getenv("VSMOOTH_SCALAR_TICK");
        return e && *e && *e != '0';
    }();
    return forced;
}

/** Resolve the Env sampling mode from VSMOOTH_SAMPLING. Read per
 *  System start (not cached): benchmarks toggle it between runs
 *  within one process. */
bool
samplingEnvAuto()
{
    const char *e = std::getenv("VSMOOTH_SAMPLING");
    if (!e || !*e)
        return false;
    const std::string_view v(e);
    return v == "auto" || v == "on" || v == "1";
}

} // namespace

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      pdn_(cfg.package, toPeriod(cfg.clockFrequency)),
      bank_(defaultMarginSweep())
{
    if (cfg.emergencyMargin > 0.0) {
        emergencyDetector_.emplace(cfg.emergencyMargin);
        if (cfg.recoveryCostCycles == 0)
            fatal("System: emergency margin set but recovery cost is 0");
    }
    if (cfg.enableTimeline)
        timeline_.emplace(cfg.timelineInterval, cfg.timelineMargin);
    if (cfg.enableTrace)
        trace_.emplace(cfg.traceCapacity);
    if (cfg.enableEmergencyPredictor)
        predictor_.emplace();
    if (cfg.enableResonanceDamper)
        damper_.emplace(cfg.damperParams);
    if (cfg.enableMarginController) {
        if (cfg.emergencyMargin > 0.0)
            fatal("System: margin controller and fixed emergency margin "
                  "are mutually exclusive (one margin authority)");
        if (cfg.recoveryCostCycles == 0)
            fatal("System: margin controller set but recovery cost is 0");
        auto params = cfg.marginControllerParams;
        if (params.updateInterval == 0) {
            params.updateInterval =
                cfg.osTickInterval ? cfg.osTickInterval : Cycles(10'000);
        }
        marginController_.emplace(
            params, pdn::secondOrderEquivalent(cfg.package).vdd);
    }

    // The batched fast path is sound only when nothing feeds a
    // per-cycle observation back into execution: the emergency
    // detector and margin controller inject recovery stalls, the
    // predictor and damper throttle, and split rails need per-cycle
    // per-core currents. OS-tick injections are handled by truncating
    // blocks at the injection cycle, so they do not disqualify the
    // fast path.
    blockEligible_ = cfg_.enableBlockedExecution && !scalarTickForced() &&
        !emergencyDetector_ && !predictor_ && !damper_ &&
        !marginController_ && !cfg_.splitSupplies;
}

std::size_t
System::addCore(std::unique_ptr<cpu::CoreModel> core)
{
    if (started_)
        fatal("System: cores must be added before the first tick");
    cores_.push_back(std::move(core));
    currents_.emplace_back(cfg_.coreCurrent);
    lastEventCounts_.emplace_back();
    return cores_.size() - 1;
}

void
System::start()
{
    if (started_)
        return;
    const std::size_t nCores = cores_.size();
    if (nCores == 0)
        fatal("System: no cores attached");
    started_ = true;
    coreCurrents_.resize(nCores);
    // Settle the PDN at the initial combined idle current so the
    // first samples are not a spurious power-on transient.
    double idle = 0.0;
    for (auto &cm : currents_)
        idle += cm.idleCurrent();
    pdn_.reset(idle);
    if (cfg_.splitSupplies) {
        // Each rail owns an equal share of the decap (and of the
        // parallel delivery paths, so L and R scale up).
        auto params = pdn::secondOrderEquivalent(cfg_.package);
        const double n = static_cast<double>(nCores);
        params.c = params.c / n;
        params.l = params.l * n;
        params.rSeries = params.rSeries * n;
        params.rDamp = params.rDamp * n;
        rails_.clear();
        for (std::size_t i = 0; i < nCores; ++i) {
            rails_.emplace_back(params,
                                toPeriod(cfg_.clockFrequency),
                                cfg_.package.rippleFraction,
                                cfg_.package.rippleFrequency);
            rails_.back().reset(currents_[i].idleCurrent());
        }
    }
    if (cfg_.osTickInterval > 0) {
        // Per-core countdowns to the staggered OS-tick injection
        // cycles, replacing a per-core modulo in the per-cycle hot
        // loop. Core i injects on every cycle c with
        // (c + i * 517) % interval == interval - 1; the countdown
        // holds the number of ticks before the next such cycle
        // (0 = the next tick injects).
        const Cycles interval = cfg_.osTickInterval;
        osTickCountdown_.resize(nCores);
        for (std::size_t i = 0; i < nCores; ++i) {
            osTickCountdown_[i] =
                interval - 1 - (cycles_ + i * 517) % interval;
        }
    }
    if (blockEligible_) {
        // One activity lane per core: the cores fill their lanes
        // block-wise, then the fused loop walks all lanes in step.
        blockActivity_.resize(nCores * kBlockCycles);
        blockTotal_.resize(kBlockCycles);
        blockDeviation_.resize(kBlockCycles);
    }
    if (samplingWanted())
        sampler_ = std::make_unique<PhaseSampler>(*this, cfg_.sampling);
}

bool
System::samplingWanted() const
{
    // Sampled execution engages only with the block pipeline active
    // (its windows are built from full blocks) and no trace consumer
    // (a waveform trace cannot be extrapolated soundly — skipped
    // cycles have no waveform).
    const bool wantSampling =
        cfg_.sampling.mode == SamplingConfig::Mode::Auto ||
        (cfg_.sampling.mode == SamplingConfig::Mode::Env &&
         samplingEnvAuto());
    return wantSampling && blockEligible_ && !trace_;
}

void
System::tick()
{
    // tick() runs hundreds of millions of times per sweep: hoist the
    // core count, mitigation handles, and config flags into locals so
    // the loop bodies stay tight.
    start();
    const std::size_t nCores = cores_.size();

    resilience::EmergencyPredictor *const predictor =
        predictor_ ? &*predictor_ : nullptr;
    resilience::ResonanceDamper *const damper =
        damper_ ? &*damper_ : nullptr;
    const bool split = cfg_.splitSupplies;

    if (cfg_.osTickInterval > 0) {
        // Interrupt delivery is staggered across cores (IPI latency,
        // per-core APIC timers), so one core's restart surge lands
        // while the other is still running its workload — their
        // superposition is what couples deep droops to the
        // co-runner's noise.
        for (std::size_t i = 0; i < nCores; ++i) {
            if (osTickCountdown_[i] == 0) {
                cores_[i]->injectPlatformInterrupt();
                osTickCountdown_[i] = cfg_.osTickInterval;
            }
        }
    }

    // Mitigation throttle decision for this cycle (evaluated before
    // the cores advance, from last cycle's observations).
    bool throttle = predictor && predictor->shouldThrottle();
    if (damper && damper->feed(pdn_.voltageDeviation()))
        throttle = true;

    double total = 0.0;
    const double throttleFactor = cfg_.throttleFactor;
    for (std::size_t i = 0; i < nCores; ++i) {
        double activity = cores_[i]->tick();
        if (throttle)
            activity *= throttleFactor;
        coreCurrents_[i] = currents_[i].currentFor(activity);
        total += coreCurrents_[i];
    }
    lastCurrent_ = total;

    // Feed newly started events to the signature predictor: a tight
    // diff of the per-cause counters against the last-seen snapshot.
    if (predictor) {
        for (std::size_t i = 0; i < nCores; ++i) {
            const auto &ctr = cores_[i]->counters();
            auto &last = lastEventCounts_[i];
            for (std::size_t c = 1;
                 c < cpu::PerfCounters::kNumCauses; ++c) {
                const auto cause = static_cast<cpu::StallCause>(c);
                const std::uint64_t n = ctr.eventCount(cause);
                if (n != last[c]) {
                    last[c] = n;
                    predictor->observeEvent(i, cause);
                }
            }
        }
    }

    double dev;
    if (split) {
        // Step each rail with its own core's current; the chip-level
        // deviation sample is the worst rail (a violation anywhere
        // forces a global recovery).
        double worst = 1e9;
        for (std::size_t i = 0; i < nCores; ++i) {
            rails_[i].step(coreCurrents_[i]);
            worst = std::min(worst, rails_[i].voltageDeviation());
        }
        pdn_.step(total); // keep the shared-rail view in sync too
        dev = worst;
    } else {
        pdn_.step(total);
        dev = pdn_.voltageDeviation();
    }

    scope_.record(dev);
    bank_.feed(dev);
    if (timeline_)
        timeline_->feed(dev);
    if (trace_)
        trace_->record(cycles_, dev, total);

    if (emergencyDetector_ && emergencyDetector_->feed(dev)) {
        ++emergencies_;
        if (predictor)
            predictor->observeEmergency();
        for (auto &core : cores_)
            core->injectRecoveryStall(cfg_.recoveryCostCycles);
    }

    // A violation of the controller's dynamic margin is an emergency
    // like any other: same chip-wide rollback, same counter. The
    // controller itself widens its margin before returning.
    if (marginController_ && marginController_->feed(dev)) {
        ++emergencies_;
        if (predictor)
            predictor->observeEmergency();
        for (auto &core : cores_)
            core->injectRecoveryStall(cfg_.recoveryCostCycles);
    }

    advance(1);
}

Cycles
System::stepLimit(Cycles want) const
{
    if (!blockEligible_)
        return 0;
    return untilOsTick(std::min<Cycles>(want, kBlockCycles));
}

Cycles
System::untilOsTick(Cycles want) const
{
    // Countdown k means core i injects on the k-th tick from now, so
    // any stretch of length <= min(k) is injection-free. A countdown
    // of 0 leaves the injection to a per-cycle tick().
    for (const Cycles cd : osTickCountdown_)
        want = std::min(want, cd);
    return want;
}

Cycles
System::step(Cycles blk)
{
    if (blk == 0) {
        tick();
        return 1;
    }
    tickBlock(blk);
    return blk;
}

namespace {

/**
 * The smoothing/slew chains of cores [0, K), summed in core order
 * onto a 0.0 seed through the dsp K-column fused primitive, so the K
 * carried chains overlap in the out-of-order window instead of
 * running one whole block after the other. Core k's steady-current
 * column is cols + k * stride.
 */
template <std::size_t K>
void
sumColumns(power::CurrentModel *currents, const double *cols,
           std::size_t stride, double *total, std::size_t n)
{
    dsp::SmoothSlew chains[K];
    const double *in[K];
    for (std::size_t k = 0; k < K; ++k) {
        const auto c = currents[k].cursor();
        chains[k] = {c.tau, c.alpha, c.slew, c.prev};
        in[k] = cols + k * stride;
    }
    dsp::processSumColumns(chains, in, total, n);
    for (std::size_t k = 0; k < K; ++k) {
        auto c = currents[k].cursor();
        c.prev = chains[k].prev;
        currents[k].commit(c);
    }
}

} // namespace

void
System::tickBlock(Cycles n)
{
    // Each stage performs exactly the arithmetic the per-cycle path
    // performs, in the same order — see DESIGN.md "Batched execution"
    // for the bit-identity argument.
    const std::size_t nCores = cores_.size();
    const auto nn = static_cast<std::size_t>(n);
    const auto stride = static_cast<std::size_t>(kBlockCycles);
    double *const act = blockActivity_.data();
    double *const total = blockTotal_.data();
    double *const dev = blockDeviation_.data();

    gather(act, stride, nn);
    // The one- and two-core shapes dominate; wider systems add their
    // remaining cores' chains onto the two-core sum one at a time,
    // which keeps the scalar path's core-order summation.
    if (nCores == 1) {
        sumColumns<1>(currents_.data(), act, stride, total, nn);
    } else {
        sumColumns<2>(currents_.data(), act, stride, total, nn);
        for (std::size_t i = 2; i < nCores; ++i) {
            auto c = currents_[i].cursor();
            const double *const col = act + i * stride;
            for (std::size_t j = 0; j < nn; ++j)
                total[j] += c.smooth(col[j]);
            currents_[i].commit(c);
        }
    }
    pdn_.stepBlock(total, dev, nn);
    commit(dev, total, nn);
}

void
System::gather(double *cols, std::size_t coreStride, std::size_t n)
{
    // One virtual dispatch per core and block instead of one per
    // cycle; the steady conversion is elementwise, so it runs
    // (vectorizably) over each column in place. Only the smoothing
    // chains downstream carry state.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        double *const col = cols + i * coreStride;
        cores_[i]->tickBlock(col, n);
        currents_[i].steadyBlock(col, col, n);
    }
}

void
System::commit(const double *dev, const double *total, std::size_t n)
{
    lastCurrent_ = total[n - 1];
    scope_.recordBlock(dev, n);
    bank_.feedBlock(dev, n);
    if (timeline_)
        timeline_->feedBlock(dev, n);
    if (trace_)
        trace_->recordBlock(cycles_, dev, total, n);
    advance(static_cast<Cycles>(n));
}

void
System::advance(Cycles n)
{
    for (Cycles &cd : osTickCountdown_)
        cd -= n;
    cycles_ += n;
}

void
System::run(Cycles n)
{
    if (n == 0)
        return;
    start();
    if (sampler_) {
        sampler_->run(n);
        return;
    }
    for (Cycles left = n; left > 0;)
        left -= step(stepLimit(left));
}

const std::vector<double> &
System::timelineSeries()
{
    if (!timeline_)
        fatal("System: timeline was not enabled");
    return timeline_->finish();
}

noise::TraceWriter &
System::trace()
{
    if (!trace_)
        fatal("System: trace was not enabled");
    return *trace_;
}

} // namespace vsmooth::sim
