/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Used by the DetailedCore to derive L1/L2 miss events from the
 * synthetic address streams the microbenchmarks and workloads
 * generate — misses *happen* in the structure rather than being drawn
 * from a rate, mirroring how the paper's hand-crafted microbenchmarks
 * stimulated the real machine.
 */

#ifndef VSMOOTH_CPU_CACHE_HH
#define VSMOOTH_CPU_CACHE_HH

#include <cstdint>
#include <vector>

namespace vsmooth::cpu {

class FaultInjector;

/** Physical/virtual address type for the synthetic streams. */
using Addr = std::uint64_t;

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes;
    std::uint32_t associativity;
    std::uint32_t lineBytes;
};

/** One level of set-associative cache, true LRU. */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geom);

    /**
     * Access an address; allocates on miss.
     * @return true on hit
     */
    bool access(Addr addr);

    /**
     * Route this cache's accesses through an undervolt fault model
     * (non-owned; nullptr detaches). @p structureId must come from
     * injector->registerStructure(). A fault on access `hits + misses`
     * invalidates the addressed line before the lookup, so the access
     * takes a parity-forced miss.
     */
    void attachFaultInjector(FaultInjector *injector,
                             std::size_t structureId);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Bit-flip faults this cache has taken (0 without an injector). */
    std::uint64_t faults() const;

    std::uint32_t numSets() const { return numSets_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    void invalidate(Addr addr);

    CacheGeometry geom_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::vector<Line> lines_; // numSets * associativity, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    FaultInjector *injector_ = nullptr;
    std::size_t structureId_ = 0;
};

/** Core 2 (Conroe)-class L1D: 32 KiB, 8-way, 64 B lines. */
CacheGeometry core2L1dGeometry();
/** Core 2 (E6300)-class shared L2: 2 MiB, 8-way, 64 B lines. */
CacheGeometry core2L2Geometry();

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_CACHE_HH
