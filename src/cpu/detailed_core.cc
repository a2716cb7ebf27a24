#include "detailed_core.hh"

#include <algorithm>

namespace vsmooth::cpu {

DetailedCore::DetailedCore(const DetailedCoreParams &params,
                           InstructionSource &source, Cache *sharedL2)
    : params_(params),
      source_(source),
      l1d_(params.l1d),
      tlb_(params.tlbEntries, params.pageBytes),
      predictor_(params.predictorBits),
      engine_(params.fullIssueActivity)
{
    if (sharedL2 != nullptr) {
        l2_ = sharedL2;
    } else {
        ownedL2_ = std::make_unique<Cache>(params.l2);
        l2_ = ownedL2_.get();
    }
    if (params.enableFaultInjection) {
        faultInjector_ = std::make_unique<FaultInjector>(params.faultModel,
                                                         params.faultSeed);
        l1d_.attachFaultInjector(faultInjector_.get(),
                                 faultInjector_->registerStructure());
        // A shared L2 belongs to several cores; attaching this core's
        // injector would make its fault stream depend on which core
        // constructed last. Only the private L2 is covered here.
        if (ownedL2_) {
            ownedL2_->attachFaultInjector(
                faultInjector_.get(),
                faultInjector_->registerStructure());
        }
        tlb_.attachFaultInjector(faultInjector_.get(),
                                 faultInjector_->registerStructure());
        faultInjector_->setMargin(params.faultMargin);
    }
}

double
DetailedCore::tick()
{
    if (source_.finished()) {
        // Drain any in-flight event (recovery / platform interrupt)
        // before settling into the idle loop.
        if (engine_.inEvent())
            return engine_.tick(counters_);
        counters_.tickCycle(StallCause::None);
        return params_.idleActivity;
    }

    if (engine_.blocked()) {
        // The waveform engine owns the cycle while draining/stalled.
        return engine_.tick(counters_);
    }

    // Running (or refill surge): issue up to width instructions. The
    // first instruction that produces a stall event closes the group.
    std::uint32_t issued = 0;
    while (issued < params_.issueWidth && !source_.finished()) {
        const SyntheticInstruction instr = source_.next();
        ++issued;

        StallCause event = StallCause::None;

        if (instr.raisesException) {
            event = StallCause::Exception;
        } else if (instr.isMemory) {
            if (!tlb_.access(instr.memAddr)) {
                event = StallCause::TlbMiss;
            }
            // The cache access proceeds after the walk completes; model
            // the lookups unconditionally to keep contents warm.
            if (!l1d_.access(instr.memAddr)) {
                if (!l2_->access(instr.memAddr)) {
                    if (event == StallCause::None)
                        event = StallCause::L2Miss;
                } else if (event == StallCause::None) {
                    event = StallCause::L1Miss;
                }
            }
        } else if (instr.isBranch) {
            if (!predictor_.predictAndTrain(instr.pc, instr.branchTaken))
                event = StallCause::BranchMispredict;
        }

        if (event != StallCause::None) {
            counters_.recordEvent(event);
            engine_.beginEvent(event);
            break;
        }
    }

    counters_.commitInstructions(issued);

    // Map this cycle's issue occupancy onto the engine's running
    // level so partially filled groups draw proportionally less.
    const double frac = static_cast<double>(issued) /
        static_cast<double>(params_.issueWidth);
    engine_.setRunningActivity(
        params_.idleActivity +
        (params_.fullIssueActivity - params_.idleActivity) * frac);

    return engine_.tick(counters_);
}

void
DetailedCore::injectRecoveryStall(std::uint32_t cycles)
{
    engine_.beginRecovery(cycles, counters_);
}

void
DetailedCore::injectPlatformInterrupt()
{
    counters_.recordEvent(StallCause::Exception);
    // The interrupt's restart burst scales with how hard the core was
    // running: an idle core's tick handler barely registers, a busy
    // core restarts everything at once.
    EventTiming t = platformInterruptTiming();
    t.surgeActivity = std::clamp(engine_.runningActivity() * 1.80,
                                 0.30, 1.70); // deterministic model
    engine_.beginEvent(StallCause::Exception, t);
}

bool
DetailedCore::finished() const
{
    return source_.finished() && !engine_.inEvent();
}

} // namespace vsmooth::cpu
