/**
 * @file
 * Detailed core: executes a synthetic instruction stream through
 * cache/TLB/branch-predictor structures; stall events fall out of the
 * structures and the StallEngine shapes the activity waveform.
 */

#ifndef VSMOOTH_CPU_DETAILED_CORE_HH
#define VSMOOTH_CPU_DETAILED_CORE_HH

#include <cstdint>
#include <memory>

#include "cpu/branch_predictor.hh"
#include "cpu/cache.hh"
#include "cpu/core_model.hh"
#include "cpu/fault_injector.hh"
#include "cpu/instruction.hh"
#include "cpu/stall_engine.hh"
#include "cpu/tlb.hh"

namespace vsmooth::cpu {

/** Microarchitectural parameters of the detailed core. */
struct DetailedCoreParams
{
    std::uint32_t issueWidth = 4;
    CacheGeometry l1d = core2L1dGeometry();
    CacheGeometry l2 = core2L2Geometry();
    std::uint32_t tlbEntries = 256;
    std::uint32_t pageBytes = 4096;
    std::uint32_t predictorBits = 14;
    /** Activity contribution floor when no instruction issues. */
    double idleActivity = 0.12;
    /** Activity contribution of a full-width issue cycle. */
    double fullIssueActivity = 1.0;
    /** Undervolt fault injection into the core's own L1D/L2/TLB
     *  (disabled by default; a shared L2 is never attached — give it a
     *  shared injector via Cache::attachFaultInjector if wanted). */
    bool enableFaultInjection = false;
    FaultModelParams faultModel{};
    /** Operating margin the fault model sees. */
    double faultMargin = 0.05;
    std::uint64_t faultSeed = 1;
};

/**
 * A simplified Core 2-class core: in-order issue of up to issueWidth
 * synthetic instructions per cycle; the first event-producing
 * instruction ends the issue group and begins its stall waveform.
 *
 * The shared L2 may be external (multi-core systems pass the same
 * Cache instance to both cores, modeling the E6300's shared L2).
 */
class DetailedCore : public CoreModel
{
  public:
    /**
     * @param params microarchitecture configuration
     * @param source dynamic instruction stream (not owned)
     * @param sharedL2 optional shared L2 (not owned); when null the
     *        core builds a private L2 from params
     */
    DetailedCore(const DetailedCoreParams &params,
                 InstructionSource &source, Cache *sharedL2 = nullptr);

    double tick() override;
    const PerfCounters &counters() const override { return counters_; }
    void injectRecoveryStall(std::uint32_t cycles) override;
    void injectPlatformInterrupt() override;
    bool finished() const override;

    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return *l2_; }
    const Tlb &tlb() const { return tlb_; }
    const StallEngine &engine() const { return engine_; }

  private:
    DetailedCoreParams params_;
    InstructionSource &source_;
    Cache l1d_;
    std::unique_ptr<Cache> ownedL2_;
    Cache *l2_;
    Tlb tlb_;
    BranchPredictor predictor_;
    StallEngine engine_;
    PerfCounters counters_;
    std::unique_ptr<FaultInjector> faultInjector_;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_DETAILED_CORE_HH
