/**
 * @file
 * Hardware-performance-counter model.
 *
 * The paper's scheduler reads exactly two derived quantities from
 * VTune: the *stall ratio* (cycles the pipeline is waiting / total
 * cycles — Sec IV-A) and IPC. We keep full per-cause accounting so the
 * characterization benches (Fig 12/13/15) can attribute noise to
 * specific microarchitectural events.
 */

#ifndef VSMOOTH_CPU_PERF_COUNTERS_HH
#define VSMOOTH_CPU_PERF_COUNTERS_HH

#include <array>
#include <cstdint>

namespace vsmooth::cpu {

/** Microarchitectural stall causes tracked by the counters. */
enum class StallCause : std::uint8_t
{
    None = 0,
    L1Miss,
    L2Miss,
    TlbMiss,
    BranchMispredict,
    Exception,
    Recovery, // rollback/recovery stall injected by the fail-safe
    NumCauses
};

/** Per-core event and cycle counters. */
class PerfCounters
{
  public:
    static constexpr std::size_t kNumCauses =
        static_cast<std::size_t>(StallCause::NumCauses);

    /** Account one cycle; cause == None means the core was issuing. */
    void
    tickCycle(StallCause cause)
    {
        ++cycles_;
        if (cause != StallCause::None)
            ++stallCycles_[static_cast<std::size_t>(cause)];
    }

    /**
     * Account n consecutive issuing cycles at once; exactly n
     * tickCycle(StallCause::None) calls (cycle counts are integers,
     * so one batched add produces the same totals).
     */
    void tickCycles(std::uint64_t n) { cycles_ += n; }

    /** Account n consecutive cycles attributed to one cause at once;
     *  exactly n tickCycle(cause) calls. */
    void
    tickCycles(StallCause cause, std::uint64_t n)
    {
        cycles_ += n;
        if (cause != StallCause::None)
            stallCycles_[static_cast<std::size_t>(cause)] += n;
    }

    /** Account committed instructions for this cycle. */
    void commitInstructions(std::uint64_t n) { instructions_ += n; }

    /** Account the *start* of a stall event of the given cause. */
    void recordEvent(StallCause cause)
    {
        if (cause != StallCause::None)
            ++events_[static_cast<std::size_t>(cause)];
    }

    /**
     * Account an extrapolated fast-forward (sampled execution): the
     * core really advances `cycles` clock cycles, while the work done
     * in them — instructions, per-cause stall cycles and event starts
     * — is credited from a scaled representative window rather than
     * simulated. Cycle totals stay exact; the credited quantities
     * carry the sampler's error bounds.
     */
    void
    addExtrapolated(std::uint64_t cycles, std::uint64_t instructions,
                    const std::array<std::uint64_t, kNumCauses> &stalls,
                    const std::array<std::uint64_t, kNumCauses> &events)
    {
        cycles_ += cycles;
        instructions_ += instructions;
        for (std::size_t c = 0; c < kNumCauses; ++c) {
            stallCycles_[c] += stalls[c];
            events_[c] += events[c];
        }
    }

    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }

    /** Total cycles stalled for any cause. */
    std::uint64_t totalStallCycles() const;

    /** Stall cycles attributed to one cause. */
    std::uint64_t
    stallCycles(StallCause cause) const
    {
        return stallCycles_[static_cast<std::size_t>(cause)];
    }

    /** Number of stall events of one cause. */
    std::uint64_t
    eventCount(StallCause cause) const
    {
        return events_[static_cast<std::size_t>(cause)];
    }

    /** Committed instructions per cycle. */
    double ipc() const;

    /**
     * The paper's stall-ratio metric: fraction of cycles the pipeline
     * was waiting (Sec IV-A; VTune's "stall ratio" event).
     */
    double stallRatio() const;

  private:
    std::uint64_t cycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::array<std::uint64_t, kNumCauses> stallCycles_{};
    std::array<std::uint64_t, kNumCauses> events_{};
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_PERF_COUNTERS_HH
