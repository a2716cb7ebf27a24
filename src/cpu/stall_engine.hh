/**
 * @file
 * Activity-waveform state machine shared by the core models.
 *
 * The paper's central microarchitectural observation (Sec III-C) is
 * that *stall events shape the current waveform*: when the pipeline
 * stalls, activity (and current) collapses; when the stall resolves,
 * functional units all wake at once and current surges. The shape —
 * how fast activity falls, how deep, for how long, and how hard it
 * surges back — differs per event type and determines the voltage
 * swing it excites.
 *
 * StallEngine turns discrete stall events into that per-cycle activity
 * waveform:
 *
 *   Running --(event)--> RampDown --> Stalled --> Surge --> Running
 *
 * RampDown models out-of-order drain (L2 misses let the window issue a
 * little longer; branch flushes squash instantly). Surge models the
 * refill burst where issue runs at full width.
 */

#ifndef VSMOOTH_CPU_STALL_ENGINE_HH
#define VSMOOTH_CPU_STALL_ENGINE_HH

#include <array>
#include <cstdint>

#include "cpu/perf_counters.hh"
#include "dsp/primitives.hh"

namespace vsmooth::cpu {

/** Per-event activity-waveform shape. */
struct EventTiming
{
    /** Cycles for activity to drain from running level to the floor. */
    std::uint32_t rampDownCycles = 0;
    /** Cycles spent stalled at the floor. */
    std::uint32_t stallCycles = 0;
    /** Activity floor while stalled (clock-gated residual). */
    double stallActivity = 0.05;
    /** Cycles of refill burst after the stall resolves. */
    std::uint32_t surgeCycles = 0;
    /** Activity during the refill burst (can exceed steady state). */
    double surgeActivity = 1.0;
    /**
     * Bursty refill: after a long stall the drained window refills in
     * dependence-limited waves, so the surge alternates between full
     * tilt and a trough every wavePeriod cycles instead of holding one
     * level. Longer stalls drain more state and take proportionally
     * more waves to refill — the mechanism that couples below-margin
     * residence time to stall time (the paper's Fig 15 correlation).
     */
    bool burstySurge = false;
    std::uint32_t wavePeriod = 6;
    double waveLowActivity = 0.45;
};

/**
 * Default event timings for the modeled Core 2-class machine
 * (latencies in core cycles at 1.86 GHz).
 *
 * - L1 (L2-hit) miss: short, shallow — OOO hides most of it.
 * - L2 (memory) miss: long drain to a deep floor, big refill surge.
 * - TLB miss: hardware page walk, deep stall of medium length.
 * - Branch mispredict: instantaneous squash (no ramp) + fast refill;
 *   the sharpest di/dt edges, which is why the paper measures it as
 *   the largest single-core swing (Fig 12).
 * - Exception: pipeline drain, long microcode service, hard restart.
 */
const EventTiming &defaultTiming(StallCause cause);

/**
 * Waveform of a platform interrupt (OS timer tick): a hard
 * synchronous drain on every core followed by an aggressive restart.
 * Because all cores take it near-simultaneously, it is the main
 * source of the rare deep droops in the population tail (Fig 7's
 * -9.6 % extreme); accounted as an Exception.
 */
const EventTiming &platformInterruptTiming();

/** The stall engine's coarse execution state. */
enum class EngineState : std::uint8_t { Running, RampDown, Stalled, Surge };

/**
 * Converts stall events into a per-cycle activity waveform and keeps
 * the per-cause cycle accounting.
 */
class StallEngine
{
  public:
    /** @param runningActivity steady-state activity while issuing */
    explicit StallEngine(double runningActivity = 0.9);

    /**
     * Begin a stall event. Ignored (except for counting) if an event
     * of equal or deeper remaining impact is already in flight —
     * matching a blocking pipeline, a new miss under a flush does not
     * deepen the flush.
     *
     * @param cause event type (must not be None)
     * @param timing waveform shape for this event
     */
    void beginEvent(StallCause cause, const EventTiming &timing);

    /** Convenience: begin an event with its default timing. */
    void beginEvent(StallCause cause);

    /**
     * Begin a fail-safe recovery stall of `cycles` and count it as a
     * Recovery event in `counters` (what both core models do on an
     * injected recovery).
     */
    void beginRecovery(std::uint32_t cycles, PerfCounters &counters);

    /**
     * Advance one cycle; returns the activity level in [0, ~1.2] for
     * this cycle and updates the given counters (cycle + stall
     * attribution; the caller accounts instructions). Defined inline
     * below: this runs once per core per simulated cycle, and keeping
     * it header-visible lets core models fold it into their tick loop.
     */
    double tick(PerfCounters &counters);

    /** True while any event waveform is in flight. */
    bool inEvent() const { return state_ != EngineState::Running; }

    /** True while the pipeline cannot commit (ramp-down or stalled). */
    bool blocked() const
    {
        return state_ == EngineState::RampDown ||
               state_ == EngineState::Stalled;
    }

    EngineState state() const { return state_; }
    StallCause currentCause() const { return cause_; }

    /**
     * Length of the stretch of upcoming cycles over which tick()
     * would output a constant activity level without leaving the
     * current waveform segment (zero when the next tick could change
     * state or activity — Running, ramp-down, or a bursty surge).
     * Always leaves the segment's final cycle for tick() so the state
     * transition runs through the one per-cycle implementation.
     */
    std::uint32_t
    constantRunCycles() const
    {
        switch (state_) {
          case EngineState::Stalled:
            return phaseLeft_ - 1;
          case EngineState::Surge:
            return timing_.burstySurge ? 0 : phaseLeft_ - 1;
          default:
            return 0;
        }
    }

    /** The constant activity level of that stretch. */
    double
    constantRunActivity() const
    {
        return state_ == EngineState::Stalled ? timing_.stallActivity
                                              : timing_.surgeActivity;
    }

    /**
     * Advance n <= constantRunCycles() cycles at once: exactly n
     * tick() calls of the current segment (cycle accounting batched
     * through the integer counters, which is exact).
     */
    void
    advanceConstantRun(std::uint32_t n, PerfCounters &counters)
    {
        phaseLeft_ -= n;
        counters.tickCycles(state_ == EngineState::Stalled
                                ? cause_
                                : StallCause::None,
                            n);
    }

    /** Update the steady running activity level (phase changes). */
    void setRunningActivity(double activity) { running_ = activity; }
    double runningActivity() const { return running_; }

  private:
    double running_;
    EngineState state_ = EngineState::Running;
    StallCause cause_ = StallCause::None;
    EventTiming timing_{};
    std::uint32_t phaseLeft_ = 0;
    double rampStartActivity_ = 0.0;
    std::uint32_t rampTotal_ = 0;
    std::uint32_t surgeTotal_ = 0;
};

inline double
StallEngine::tick(PerfCounters &counters)
{
    double activity = running_;
    StallCause accounted = StallCause::None;

    switch (state_) {
      case EngineState::Running:
        break;

      case EngineState::RampDown: {
        // Linear drain from the running level to the stall floor;
        // the first ramp cycle already moves below the running level
        // (phaseLeft_ == rampTotal_ then, and the dsp ramp divides by
        // rampTotal_ + 1).
        activity = dsp::linearRampAt(phaseLeft_, rampTotal_,
                                     rampStartActivity_,
                                     timing_.stallActivity);
        accounted = cause_;
        if (--phaseLeft_ == 0) {
            if (timing_.stallCycles > 0) {
                state_ = EngineState::Stalled;
                phaseLeft_ = timing_.stallCycles;
            } else if (timing_.surgeCycles > 0) {
                state_ = EngineState::Surge;
                phaseLeft_ = timing_.surgeCycles;
            } else {
                state_ = EngineState::Running;
                cause_ = StallCause::None;
            }
        }
        break;
      }

      case EngineState::Stalled:
        activity = timing_.stallActivity;
        accounted = cause_;
        if (--phaseLeft_ == 0) {
            if (timing_.surgeCycles > 0) {
                state_ = EngineState::Surge;
                phaseLeft_ = timing_.surgeCycles;
                surgeTotal_ = timing_.surgeCycles;
            } else {
                state_ = EngineState::Running;
                cause_ = StallCause::None;
            }
        }
        break;

      case EngineState::Surge: {
        activity = timing_.surgeActivity;
        if (timing_.burstySurge) {
            // Dependence-limited refill waves: alternate between the
            // surge level and a trough every wavePeriod cycles.
            const std::uint32_t elapsed = surgeTotal_ - phaseLeft_;
            const std::uint32_t wave = elapsed / timing_.wavePeriod;
            if (wave % 2 == 1)
                activity = timing_.waveLowActivity;
        }
        // The refill burst is productive work, not a stall: no cause
        // accounting.
        if (--phaseLeft_ == 0) {
            state_ = EngineState::Running;
            cause_ = StallCause::None;
        }
        break;
      }
    }

    counters.tickCycle(accounted);
    return activity;
}

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_STALL_ENGINE_HH
