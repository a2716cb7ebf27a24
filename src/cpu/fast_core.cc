#include "fast_core.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace vsmooth::cpu {

StallCause
eventClassCause(std::size_t index)
{
    switch (index) {
      case 0: return StallCause::L1Miss;
      case 1: return StallCause::L2Miss;
      case 2: return StallCause::TlbMiss;
      case 3: return StallCause::BranchMispredict;
      case 4: return StallCause::Exception;
      default:
        panic("eventClassCause: index %zu out of range", index);
    }
}

double
ActivityPhase::expectedStallRatio() const
{
    // The event process only advances while the core is Running, so
    // the steady-state cycle budget per event is gap + blocked +
    // surge with gap = 1 / totalRate. Expected stall ratio is the
    // blocked share of that budget.
    double total_rate = 0.0;
    double mean_blocked = 0.0;
    double mean_surge = 0.0;
    for (std::size_t c = 0; c < kNumEventClasses; ++c) {
        const StallCause cause = eventClassCause(c);
        const EventTiming &t = defaultTiming(cause);
        const double r = eventRatesPer1k[c] / 1000.0;
        double stall = static_cast<double>(t.stallCycles);
        double surge = static_cast<double>(t.surgeCycles);
        if (cause == StallCause::L2Miss) {
            stall = std::max(1.0, stall * l2StallScale);
            surge = std::max(4.0, surge * l2StallScale);
        }
        total_rate += r;
        mean_blocked += r * (static_cast<double>(t.rampDownCycles) + stall);
        mean_surge += r * surge;
    }
    if (total_rate <= 0.0)
        return 0.0;
    mean_blocked /= total_rate;
    mean_surge /= total_rate;
    const double gap = 1.0 / total_rate;
    return mean_blocked / (gap + mean_blocked + mean_surge);
}

Cycles
PhaseSchedule::totalDuration() const
{
    Cycles total = 0;
    for (const auto &p : phases)
        total += p.duration;
    return total;
}

FastCore::FastCore(PhaseSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule)), rng_(seed)
{
    if (schedule_.phases.empty())
        fatal("FastCore needs at least one phase");
    for (const auto &p : schedule_.phases) {
        if (p.duration == 0)
            fatal("FastCore: zero-length phase");
    }
    enterPhase(0);
}

void
FastCore::enterPhase(std::size_t idx)
{
    phaseIdx_ = idx;
    cyclesIntoPhase_ = 0;
    phaseDuration_ = phase().duration;
    phaseIpc_ = phase().ipcWhenRunning;
    phaseJitter_ = phase().activityJitter;
    engine_.setRunningActivity(phase().baseActivity);
    totalEventRate_ = 0.0;
    for (double r : phase().eventRatesPer1k)
        totalEventRate_ += r / 1000.0;
    // The geometric inter-arrival denominator only changes with the
    // phase; hoisting it here halves the libm work per event draw.
    eventLogQ_ = (totalEventRate_ > 0.0 && totalEventRate_ < 1.0)
        ? std::log1p(-totalEventRate_)
        : 0.0;
    scheduleNextEvent();
}

void
FastCore::scheduleNextEvent()
{
    if (totalEventRate_ <= 0.0) {
        cyclesToNextEvent_ = ~Cycles(0);
        return;
    }
    cyclesToNextEvent_ = rng_.geometric(totalEventRate_, eventLogQ_);
}

double
FastCore::tick()
{
    if (done_) {
        // Even a finished workload's core still services recovery
        // stalls and platform interrupts (the OS keeps running).
        if (engine_.inEvent())
            return engine_.tick(counters_);
        counters_.tickCycle(StallCause::None);
        return 0.12; // idle loop
    }

    // Phase bookkeeping.
    if (++cyclesIntoPhase_ > phaseDuration_) {
        if (phaseIdx_ + 1 < schedule_.phases.size()) {
            enterPhase(phaseIdx_ + 1);
        } else if (schedule_.loop) {
            enterPhase(0);
        } else {
            done_ = true;
            counters_.tickCycle(StallCause::None);
            return 0.12;
        }
        ++cyclesIntoPhase_;
    }

    // Event process: only running cycles draw the next event closer
    // (a stalled pipeline is not generating new misses).
    if (!engine_.inEvent()) {
        if (cyclesToNextEvent_ == 0 || --cyclesToNextEvent_ == 0) {
            // Pick the class proportionally to its rate.
            double pick = rng_.uniform() * totalEventRate_;
            std::size_t cls = 0;
            for (; cls + 1 < kNumEventClasses; ++cls) {
                pick -= phase().eventRatesPer1k[cls] / 1000.0;
                if (pick <= 0.0)
                    break;
            }
            const StallCause cause = eventClassCause(cls);
            counters_.recordEvent(cause);
            if (cause == StallCause::L2Miss &&
                phase().l2StallScale != 1.0) {
                EventTiming t = defaultTiming(cause);
                const double scale = phase().l2StallScale;
                t.stallCycles = static_cast<std::uint32_t>(
                    std::max(1.0,
                             static_cast<double>(t.stallCycles) * scale));
                // A shorter observed stall drains less state, so the
                // bursty refill is proportionally shorter too.
                t.surgeCycles = static_cast<std::uint32_t>(
                    std::max(4.0,
                             static_cast<double>(t.surgeCycles) * scale));
                engine_.beginEvent(cause, t);
            } else {
                engine_.beginEvent(cause);
            }
            scheduleNextEvent();
        }
    }

    double activity = engine_.tick(counters_);

    if (!engine_.blocked()) {
        // Commit instructions and apply activity dither while issuing.
        ipcAccumulator_ += phaseIpc_;
        if (ipcAccumulator_ >= 1.0) {
            const auto whole = static_cast<std::uint64_t>(ipcAccumulator_);
            counters_.commitInstructions(whole);
            ipcAccumulator_ -= static_cast<double>(whole);
        }
        if (engine_.state() == EngineState::Surge) {
            // Refill is dependence-limited and erratic: wide activity
            // noise rides on the surge. Rare cross-core coincidences
            // of this noise are what produce the deep (5-10 %) droop
            // tail of the paper's Fig 7, and they scale with event
            // rate, preserving the stall-ratio coupling.
            activity += rng_.uniform(-0.3, 0.3);
        } else {
            const double jitter = phaseJitter_;
            if (jitter > 0.0)
                activity += rng_.uniform(-jitter, jitter);
        }
    }
    return activity;
}

void
FastCore::tickBlock(double *activity, std::size_t n)
{
    // Run-length fast path over the common case: the core is Running
    // with no phase boundary and no event due. Over such a stretch,
    // tick() reduces to "activity = running (+ jitter); advance the
    // IPC accumulator; bump integer counters" — the counters, the
    // phase position, and the event countdown are integer state that
    // one batched add updates to exactly the per-cycle totals, the
    // IPC accumulator is carried through the same per-cycle FP
    // updates in a local, and the RNG consumes exactly one uniform
    // per cycle (when the phase jitters), in the same sequence as n
    // external tick() calls. Every other cycle — event waveforms,
    // phase changes, the done_ idle loop — falls back to tick().
    std::size_t j = 0;
    while (j < n) {
        if (!done_ && engine_.inEvent() &&
            cyclesIntoPhase_ < phaseDuration_) {
            // Constant-activity stretch of an event waveform: a stall
            // at the floor, or a non-bursty refill surge. The event
            // countdown is frozen while in an event (tick() only
            // advances it when the engine is idle), phase time keeps
            // passing, and a stalled pipeline commits nothing while a
            // surging one keeps the IPC accumulator and the surge
            // noise running — all exactly as tick() does per cycle.
            Cycles run = std::min<Cycles>(
                n - j, phaseDuration_ - cyclesIntoPhase_);
            run = std::min<Cycles>(run, engine_.constantRunCycles());
            if (run > 0) {
                const double base = engine_.constantRunActivity();
                const std::size_t end =
                    j + static_cast<std::size_t>(run);
                if (engine_.state() == EngineState::Stalled) {
                    std::fill(activity + j, activity + end, base);
                    j = end;
                } else {
                    const double ipc = phaseIpc_;
                    double acc = ipcAccumulator_;
                    std::uint64_t insns = 0;
                    auto rng = rng_;
                    for (; j < end; ++j) {
                        acc += ipc;
                        if (acc >= 1.0) {
                            const auto whole =
                                static_cast<std::uint64_t>(acc);
                            insns += whole;
                            acc -= static_cast<double>(whole);
                        }
                        activity[j] = base + rng.uniform(-0.3, 0.3);
                    }
                    rng_ = rng;
                    ipcAccumulator_ = acc;
                    counters_.commitInstructions(insns);
                }
                engine_.advanceConstantRun(
                    static_cast<std::uint32_t>(run), counters_);
                cyclesIntoPhase_ += run;
                continue;
            }
        }
        if (done_ || engine_.inEvent() || cyclesToNextEvent_ < 2 ||
            cyclesIntoPhase_ >= phaseDuration_) {
            activity[j++] = FastCore::tick();
            continue;
        }
        // Longest stretch with no phase boundary (the boundary tick is
        // the one entered with cyclesIntoPhase_ == duration) and no
        // event firing (the firing tick is the one that decrements the
        // countdown to zero; a rate-free core's ~0 sentinel still
        // decrements per cycle, exactly as tick() does).
        Cycles run = std::min<Cycles>(
            n - j, phaseDuration_ - cyclesIntoPhase_);
        run = std::min(run, cyclesToNextEvent_ - 1);

        const double base = engine_.runningActivity();
        const double jit = phaseJitter_;
        const double ipc = phaseIpc_;
        double acc = ipcAccumulator_;
        std::uint64_t insns = 0;
        auto rng = rng_;
        const std::size_t end = j + static_cast<std::size_t>(run);
        if (jit > 0.0) {
            for (; j < end; ++j) {
                acc += ipc;
                if (acc >= 1.0) {
                    const auto whole = static_cast<std::uint64_t>(acc);
                    insns += whole;
                    acc -= static_cast<double>(whole);
                }
                activity[j] = base + rng.uniform(-jit, jit);
            }
        } else {
            for (; j < end; ++j) {
                acc += ipc;
                if (acc >= 1.0) {
                    const auto whole = static_cast<std::uint64_t>(acc);
                    insns += whole;
                    acc -= static_cast<double>(whole);
                }
                activity[j] = base;
            }
        }
        rng_ = rng;
        ipcAccumulator_ = acc;
        counters_.commitInstructions(insns);
        counters_.tickCycles(run);
        cyclesIntoPhase_ += run;
        cyclesToNextEvent_ -= run;
    }
}

Cycles
FastCore::skippableCycles() const
{
    if (done_)
        return 0;
    if (schedule_.loop && schedule_.phases.size() == 1) {
        // A single looping phase is statistically self-similar across
        // its own boundary: re-entering it resets no observable state
        // beyond redrawing the (memoryless) event countdown, so the
        // sampler may skip arbitrarily far.
        return ~Cycles(0);
    }
    // Stay strictly inside the current phase: the boundary tick (the
    // one entered with cyclesIntoPhase_ == duration) changes the
    // activity process and must be simulated exactly.
    return phaseDuration_ - cyclesIntoPhase_;
}

void
FastCore::skipAhead(Cycles n, const SkipCounters &c)
{
    if (done_ || n == 0)
        return;
    if (cyclesIntoPhase_ + n <= phaseDuration_) {
        cyclesIntoPhase_ += n;
    } else {
        // Only reachable for a single looping phase (see
        // skippableCycles): positions repeat with period `duration`,
        // the re-entry tick mapping to position 1. The phase's cached
        // scalars are already current and the RNG stream is left
        // untouched — the stretch the skip replays already consumed
        // its draws.
        cyclesIntoPhase_ = (cyclesIntoPhase_ + n - 1) % phaseDuration_ + 1;
    }
    counters_.addExtrapolated(n, c.instructions, c.stallCycles, c.events);
}

void
FastCore::injectRecoveryStall(std::uint32_t cycles)
{
    engine_.beginRecovery(cycles, counters_);
}

void
FastCore::injectPlatformInterrupt()
{
    counters_.recordEvent(StallCause::Exception);
    // The interrupt's restart burst scales with how hard the core was
    // running (an idle core's tick handler barely registers) and its
    // magnitude varies per tick with a long exponential tail: how
    // much state the handler displaced, what the scheduler ran, DMA
    // behind it. That heavy tail is what populates the deep end of
    // the droop distribution (the paper's 9.6 % extreme over 881
    // full-length runs).
    EventTiming t = platformInterruptTiming();
    const double magnitude = 1.0 + 0.5 * rng_.exponential(1.0);
    const double busy =
        std::min(engine_.runningActivity() * 1.55, 1.25);
    t.surgeActivity = std::clamp(busy * magnitude, 0.30, 2.40);
    engine_.beginEvent(StallCause::Exception, t);
}

bool
FastCore::finished() const
{
    return done_ && !engine_.inEvent();
}

} // namespace vsmooth::cpu
