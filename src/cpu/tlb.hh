/**
 * @file
 * Fully-associative translation lookaside buffer with LRU replacement.
 * A TLB miss triggers a hardware page walk, which is one of the stall
 * events the paper's microbenchmarks isolate (Fig 11: TLB misses
 * produce recurring voltage overshoots).
 */

#ifndef VSMOOTH_CPU_TLB_HH
#define VSMOOTH_CPU_TLB_HH

#include <cstdint>
#include <vector>

#include "cpu/cache.hh"

namespace vsmooth::cpu {

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param entries number of TLB entries (Core 2 DTLB: 256)
     * @param pageBytes page size (4 KiB)
     */
    explicit Tlb(std::uint32_t entries = 256,
                 std::uint32_t pageBytes = 4096);

    /**
     * Translate an address; fills the entry on miss.
     * @return true on hit
     */
    bool access(Addr addr);

    /** Route translations through an undervolt fault model (see
     *  Cache::attachFaultInjector); a fault drops the addressed entry
     *  before the lookup, forcing a page walk. */
    void attachFaultInjector(FaultInjector *injector,
                             std::size_t structureId);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Bit-flip faults this TLB has taken (0 without an injector). */
    std::uint64_t faults() const;
    std::uint32_t pageBytes() const { return pageBytes_; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> entries_;
    std::uint32_t pageBytes_;
    std::uint32_t pageShift_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    FaultInjector *injector_ = nullptr;
    std::size_t structureId_ = 0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_TLB_HH
