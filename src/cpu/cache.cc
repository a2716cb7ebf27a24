#include "cache.hh"

#include <bit>

#include "common/logging.hh"
#include "cpu/fault_injector.hh"

namespace vsmooth::cpu {

Cache::Cache(const CacheGeometry &geom) : geom_(geom)
{
    if (geom.lineBytes == 0 || !std::has_single_bit(geom.lineBytes))
        fatal("cache line size must be a power of two (got %u)",
              geom.lineBytes);
    if (geom.associativity == 0)
        fatal("cache associativity must be positive");
    const std::uint64_t lines = geom.sizeBytes / geom.lineBytes;
    if (lines == 0 || lines % geom.associativity != 0)
        fatal("cache size %llu not divisible into %u-way sets",
              (unsigned long long)geom.sizeBytes, geom.associativity);
    numSets_ = static_cast<std::uint32_t>(lines / geom.associativity);
    if (!std::has_single_bit(numSets_))
        fatal("cache set count must be a power of two (got %u)", numSets_);
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(geom.lineBytes));
    lines_.resize(static_cast<std::size_t>(numSets_) * geom.associativity);
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr >> lineShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

void
Cache::invalidate(Addr addr)
{
    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) *
                         geom_.associativity];
    for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].valid = false;
            return;
        }
    }
}

bool
Cache::access(Addr addr)
{
    // The fault decision keys on this structure's own access count, so
    // identical runs replay identical fault sequences regardless of
    // job or lane partitioning. A flipped line is caught by parity and
    // dropped, turning the access below into a refetch miss.
    if (injector_ && injector_->shouldFault(structureId_, hits_ + misses_))
        invalidate(addr);

    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) *
                         geom_.associativity];
    ++useClock_;

    Line *victim = base;
    for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            ++hits_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    ++misses_;
    return false;
}

void
Cache::attachFaultInjector(FaultInjector *injector,
                           std::size_t structureId)
{
    injector_ = injector;
    structureId_ = structureId;
}

std::uint64_t
Cache::faults() const
{
    return injector_ ? injector_->faultCount(structureId_) : 0;
}

CacheGeometry
core2L1dGeometry()
{
    return {32 * 1024, 8, 64};
}

CacheGeometry
core2L2Geometry()
{
    return {2 * 1024 * 1024, 8, 64};
}

} // namespace vsmooth::cpu
