/**
 * @file
 * Abstract per-cycle core model.
 *
 * A core model advances one clock cycle at a time and reports its
 * activity level, which the power model converts to current draw.
 * Two implementations exist (the gem5 atomic-vs-detailed split):
 *
 *  - DetailedCore: executes a synthetic instruction stream through
 *    real cache/TLB/predictor structures (microbenchmark studies).
 *  - FastCore: phase-based stochastic activity process (full-suite
 *    sweeps, 10-100x faster).
 */

#ifndef VSMOOTH_CPU_CORE_MODEL_HH
#define VSMOOTH_CPU_CORE_MODEL_HH

#include <cstddef>
#include <cstdint>

#include "common/units.hh"
#include "cpu/perf_counters.hh"

namespace vsmooth::cpu {

/** Extrapolated work credited to a core by a sampled-execution skip:
 *  counter deltas measured over a representative window, scaled by
 *  the number of skipped window replays. */
struct SkipCounters
{
    std::uint64_t instructions = 0;
    std::array<std::uint64_t, PerfCounters::kNumCauses> stallCycles{};
    std::array<std::uint64_t, PerfCounters::kNumCauses> events{};
};

/** Abstract cycle-stepped core. */
class CoreModel
{
  public:
    virtual ~CoreModel() = default;

    /**
     * Advance one cycle.
     * @return activity level for the cycle, nominally in [0, ~1.2]
     *         (refill bursts can exceed the steady-state level)
     */
    virtual double tick() = 0;

    /**
     * Advance n cycles, writing each cycle's activity level to
     * activity[0..n). Semantically identical to n tick() calls — the
     * base implementation is exactly that loop — but concrete models
     * override it so virtual dispatch and per-call overhead are paid
     * once per block instead of once per cycle. The System's batched
     * pipeline guarantees no interrupt/recovery injection lands
     * inside a block, so overrides need not re-check for them
     * mid-block.
     */
    virtual void
    tickBlock(double *activity, std::size_t n)
    {
        for (std::size_t j = 0; j < n; ++j)
            activity[j] = tick();
    }

    /**
     * How many future cycles the sampled-execution engine may skip
     * over without this core crossing a behavioral boundary (phase
     * change, workload completion). 0 — the default — means the core
     * does not support skipping, which disables sampling-driven
     * fast-forward whenever such a core is present. The all-ones
     * Cycles means unbounded (statistically self-similar forever).
     */
    virtual Cycles skippableCycles() const { return 0; }

    /**
     * Fast-forward `n` cycles (n <= skippableCycles() at the time of
     * the call), crediting the extrapolated counter deltas in `c`.
     * Internal stochastic state (RNG streams, in-flight stall events)
     * must be left untouched — the core resumes from a valid sample
     * of its stationary state. Only called on cores that advertise a
     * nonzero skippableCycles(), so the default need not support it.
     */
    virtual void
    skipAhead(Cycles n, const SkipCounters &c)
    {
        (void)n;
        (void)c;
    }

    /** Performance counters accumulated so far. */
    virtual const PerfCounters &counters() const = 0;

    /**
     * Stall this core for `cycles` while the chip-wide fail-safe
     * rolls back and recovers from a voltage emergency (Sec IV).
     */
    virtual void injectRecoveryStall(std::uint32_t cycles) = 0;

    /**
     * Deliver a platform interrupt (OS timer tick). The System raises
     * it on every core in the same cycle — the synchronized stall +
     * restart is a chip-wide di/dt event.
     */
    virtual void injectPlatformInterrupt() = 0;

    /** True once the workload has run to completion. */
    virtual bool finished() const = 0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_CORE_MODEL_HH
