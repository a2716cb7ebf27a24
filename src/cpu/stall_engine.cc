#include "stall_engine.hh"

#include "common/logging.hh"

namespace vsmooth::cpu {

const EventTiming &
defaultTiming(StallCause cause)
{
    // Shapes chosen against the paper's Fig 12 swing ordering (BR
    // largest at ~1.7x idle). Effective blocked durations are short
    // and roughly uniform across causes: out-of-order execution and
    // memory-level parallelism overlap most of a miss's latency, so
    // what reaches the current waveform is a dense train of short
    // drops rather than rare full-latency drains. This is what makes
    // the *rate* of waveform edges (and hence voltage-noise power)
    // scale with the stall ratio, the paper's Fig 15 observation.
    static const EventTiming l1{0, 10, 0.62, 3, 1.02, false, 6, 0.45};
    static const EventTiming l2{2, 18, 0.48, 8, 1.05, false, 6, 0.40};
    static const EventTiming tlb{1, 16, 0.55, 5, 1.05, false, 6, 0.45};
    // A flush squashes the window instantly (sharpest edge) but the
    // frontend keeps running, so the floor is comparatively high.
    static const EventTiming br{0, 13, 0.50, 5, 1.10, false, 6, 0.45};
    static const EventTiming excp{2, 24, 0.35, 10, 1.05, true, 6, 0.40};
    static const EventTiming recovery{0, 0, 0.05, 0, 1.0, false, 6, 0.45};

    switch (cause) {
      case StallCause::L1Miss: return l1;
      case StallCause::L2Miss: return l2;
      case StallCause::TlbMiss: return tlb;
      case StallCause::BranchMispredict: return br;
      case StallCause::Exception: return excp;
      case StallCause::Recovery: return recovery;
      default:
        panic("defaultTiming: no timing for cause %d",
              static_cast<int>(cause));
    }
}

const EventTiming &
platformInterruptTiming()
{
    static const EventTiming tick{1, 45, 0.02, 48, 1.40, true, 12, 0.10};
    return tick;
}

StallEngine::StallEngine(double runningActivity)
    : running_(runningActivity)
{
}

void
StallEngine::beginEvent(StallCause cause, const EventTiming &timing)
{
    if (cause == StallCause::None)
        panic("StallEngine::beginEvent with cause None");

    if (inEvent()) {
        // An event is already shaping the waveform. Take the new one
        // only if it would stall for longer than what remains of the
        // current event; otherwise it is absorbed (still counted by
        // the caller via PerfCounters::recordEvent if desired).
        std::uint64_t remaining = phaseLeft_;
        if (state_ == EngineState::RampDown)
            remaining += timing_.stallCycles; // the stall still to come
        const std::uint64_t incoming =
            timing.rampDownCycles + timing.stallCycles;
        if (incoming <= remaining)
            return;
    }

    cause_ = cause;
    timing_ = timing;
    rampStartActivity_ = running_;
    if (timing.rampDownCycles > 0) {
        state_ = EngineState::RampDown;
        phaseLeft_ = timing.rampDownCycles;
        rampTotal_ = timing.rampDownCycles;
    } else if (timing.stallCycles > 0) {
        state_ = EngineState::Stalled;
        phaseLeft_ = timing.stallCycles;
    } else if (timing.surgeCycles > 0) {
        state_ = EngineState::Surge;
        phaseLeft_ = timing.surgeCycles;
        surgeTotal_ = timing.surgeCycles;
    } else {
        state_ = EngineState::Running;
        cause_ = StallCause::None;
    }
}

void
StallEngine::beginEvent(StallCause cause)
{
    beginEvent(cause, defaultTiming(cause));
}

void
StallEngine::beginRecovery(std::uint32_t cycles, PerfCounters &counters)
{
    counters.recordEvent(StallCause::Recovery);
    EventTiming timing;
    timing.rampDownCycles = 0;
    timing.stallCycles = cycles;
    timing.stallActivity = 0.05;
    // Checkpoint restore ramps execution back up in a controlled way
    // (an aggressive restart right after an emergency would risk
    // re-triggering it — the recovery-storm failure mode).
    timing.surgeCycles = 16;
    timing.surgeActivity = 0.95;
    beginEvent(StallCause::Recovery, timing);
}

} // namespace vsmooth::cpu
