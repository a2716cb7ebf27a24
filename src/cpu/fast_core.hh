/**
 * @file
 * Fast core: a phase-based stochastic activity process.
 *
 * Full-suite studies (29 benchmarks x 29 benchmarks of co-schedules,
 * Figs 15-19) need billions of simulated cycles; executing discrete
 * instructions through cache structures is unnecessary there because
 * what reaches the PDN is only the *activity waveform*. FastCore
 * samples stall events from per-phase rates and shapes the waveform
 * with the same StallEngine the DetailedCore uses, so both models
 * produce statistically compatible current traces (verified by an
 * integration test).
 *
 * Phases are the paper's "voltage noise phases" (Sec IV-A): recurring
 * levels of stall activity that the noise-aware scheduler exploits.
 */

#ifndef VSMOOTH_CPU_FAST_CORE_HH
#define VSMOOTH_CPU_FAST_CORE_HH

#include <array>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "cpu/core_model.hh"
#include "cpu/stall_engine.hh"

namespace vsmooth::cpu {

/** Number of stochastic event classes a phase parameterizes. */
constexpr std::size_t kNumEventClasses = 5;

/** Map an event-class index (0..4) to its StallCause. */
StallCause eventClassCause(std::size_t index);

/** One execution phase of a workload. */
struct ActivityPhase
{
    /** Phase length in cycles. */
    Cycles duration = 0;
    /** Steady activity level while issuing. */
    double baseActivity = 0.9;
    /** Half-width of uniform per-cycle activity dither. */
    double activityJitter = 0.03;
    /** Committed IPC while the pipeline is not blocked. */
    double ipcWhenRunning = 1.6;
    /** Stall-event rates per 1000 cycles: L1, L2, TLB, BR, EXCP. */
    std::array<double, kNumEventClasses> eventRatesPer1k{};
    /**
     * Memory-level-parallelism model: memory-bound phases overlap
     * their L2 misses, so each *observed* stall event is shorter than
     * one full memory round trip. Scales the L2 stall duration.
     */
    double l2StallScale = 1.0;

    /**
     * Expected stall ratio this phase produces, from the rates and
     * the default event timings (used to design benchmark profiles).
     */
    double expectedStallRatio() const;
};

/** A workload as a sequence of phases. */
struct PhaseSchedule
{
    std::vector<ActivityPhase> phases;
    /** Restart from the first phase when the last one ends. */
    bool loop = false;

    /** Sum of phase durations (one pass). */
    Cycles totalDuration() const;
};

/** Stochastic phase-driven core model. */
class FastCore : public CoreModel
{
  public:
    /**
     * @param schedule the workload's phase sequence (copied)
     * @param seed RNG seed (every core gets an independent stream)
     */
    FastCore(PhaseSchedule schedule, std::uint64_t seed);

    double tick() override;
    void tickBlock(double *activity, std::size_t n) override;
    const PerfCounters &counters() const override { return counters_; }
    void injectRecoveryStall(std::uint32_t cycles) override;
    void injectPlatformInterrupt() override;
    bool finished() const override;
    Cycles skippableCycles() const override;
    void skipAhead(Cycles n, const SkipCounters &c) override;

    /** Index of the phase currently executing. */
    std::size_t currentPhaseIndex() const { return phaseIdx_; }

    /**
     * True once the schedule has been consumed, even if a transient
     * event (recovery, platform interrupt) is still draining —
     * finished() additionally waits for the drain. Schedulers use
     * this to reap jobs without racing periodic interrupts.
     */
    bool workloadComplete() const { return done_; }

    const StallEngine &engine() const { return engine_; }

  private:
    const ActivityPhase &phase() const
    { return schedule_.phases[phaseIdx_]; }
    void enterPhase(std::size_t idx);
    void scheduleNextEvent();

    PhaseSchedule schedule_;
    Rng rng_;
    StallEngine engine_;
    PerfCounters counters_;

    std::size_t phaseIdx_ = 0;
    Cycles cyclesIntoPhase_ = 0;
    bool done_ = false;

    /** Hot fields of the current phase, cached as scalars at
     *  enterPhase() so tick() avoids re-chasing the phases vector
     *  (three loads per cycle on the steady-state path). */
    Cycles phaseDuration_ = 0;
    double phaseIpc_ = 0.0;
    double phaseJitter_ = 0.0;

    double totalEventRate_ = 0.0; // per cycle
    double eventLogQ_ = 0.0;      // log1p(-totalEventRate_), hoisted
    Cycles cyclesToNextEvent_ = 0;
    double ipcAccumulator_ = 0.0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_FAST_CORE_HH
