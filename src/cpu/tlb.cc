#include "tlb.hh"

#include <bit>

#include "common/logging.hh"
#include "cpu/fault_injector.hh"

namespace vsmooth::cpu {

Tlb::Tlb(std::uint32_t entries, std::uint32_t pageBytes)
    : entries_(entries), pageBytes_(pageBytes)
{
    if (entries == 0)
        fatal("TLB needs at least one entry");
    if (pageBytes == 0 || !std::has_single_bit(pageBytes))
        fatal("page size must be a power of two (got %u)", pageBytes);
    pageShift_ = static_cast<std::uint32_t>(std::countr_zero(pageBytes));
}

bool
Tlb::access(Addr addr)
{
    const Addr vpn = addr >> pageShift_;
    // Same index-derived fault draw as Cache::access: a flipped entry
    // is dropped before the lookup, forcing a page walk.
    if (injector_ && injector_->shouldFault(structureId_, hits_ + misses_)) {
        for (auto &e : entries_) {
            if (e.valid && e.vpn == vpn) {
                e.valid = false;
                break;
            }
        }
    }
    ++useClock_;
    Entry *victim = &entries_.front();
    for (auto &e : entries_) {
        if (e.valid && e.vpn == vpn) {
            e.lastUse = useClock_;
            ++hits_;
            return true;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lastUse = useClock_;
    ++misses_;
    return false;
}

void
Tlb::attachFaultInjector(FaultInjector *injector, std::size_t structureId)
{
    injector_ = injector;
    structureId_ = structureId;
}

std::uint64_t
Tlb::faults() const
{
    return injector_ ? injector_->faultCount(structureId_) : 0;
}

} // namespace vsmooth::cpu
