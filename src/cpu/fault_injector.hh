/**
 * @file
 * Margin-dependent SRAM bit-flip injection.
 *
 * Soyturk et al. (arXiv 1912.00154) measure that undervolted SRAM
 * arrays fail with a bit-flip rate that grows steeply as the supply
 * guard band thins. This injector gives "margin too thin" that
 * functional cost: each cache/TLB access draws a fault decision, and
 * a fault invalidates the addressed entry (the parity/ECC machinery
 * detects the flip and forces a refetch), so thin margins cost real
 * misses rather than just detector counts.
 *
 * Determinism is load-bearing. The decision for access `i` of
 * structure `s` is a pure function of (seed, s, i): a splitmix64-style
 * hash compared against a margin-derived threshold. Because the access
 * index is the structure's own access count — not a global clock or an
 * address — identical runs produce identical fault sequences at any
 * `--jobs` or lane count, and because the threshold is monotone in the
 * margin, the fault sets at two margins are exactly nested (every
 * access that faults at the wider margin also faults at any thinner
 * one, per seed).
 */

#ifndef VSMOOTH_CPU_FAULT_INJECTOR_HH
#define VSMOOTH_CPU_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

namespace vsmooth::cpu {

/** Shape of the margin-to-fault-rate curve. */
struct FaultModelParams
{
    /** Margin at or above which the per-access fault probability is
     *  exactly zero — the nominal guard band the model calibrates to. */
    double safeMargin = 0.05;
    /** Per-access fault probability at margin 0 (guard band fully
     *  consumed). */
    double rateAtZeroMargin = 1e-3;
    /** Growth exponent of the rate as the margin thins below safe:
     *  p(m) = rate * ((safe - m) / safe)^exponent. */
    double exponent = 2.0;
};

/** Deterministic per-access bit-flip oracle with per-structure
 *  counters. Attach one per core; structures register once and query
 *  with their own access index. */
class FaultInjector
{
  public:
    FaultInjector(const FaultModelParams &params, std::uint64_t seed);
    std::uint64_t seed() const { return seed_; }

    /** Register a structure (l1d, l2, tlb, ...); the returned id, its
     *  registration index, scopes its fault decisions and counter. */
    std::size_t registerStructure();

    /** Set the operating margin the model sees (recomputes the hash
     *  threshold). */
    void setMargin(double margin);
    double margin() const { return margin_; }

    /** Per-access fault probability at the current margin. */
    double faultProbability() const { return probability_; }
    /** The margin-to-rate curve itself (pure, for tests/plots). */
    static double faultProbabilityAt(const FaultModelParams &params,
                                     double margin);

    /**
     * Draw the fault decision for one access. @p accessIndex must be
     * the structure's own monotone access count. Counts the fault when
     * it fires.
     */
    bool
    shouldFault(std::size_t structureId, std::uint64_t accessIndex)
    {
        if (threshold_ == 0)
            return false;
        if (hashAccess(seed_, structureId, accessIndex) >= threshold_)
            return false;
        ++faults_[structureId];
        return true;
    }

    /** Decision oracle without the counter side effect (pure). */
    static bool
    wouldFault(std::uint64_t seed, std::size_t structureId,
               std::uint64_t accessIndex, std::uint64_t threshold)
    {
        return threshold != 0 &&
               hashAccess(seed, structureId, accessIndex) < threshold;
    }

    /** Hash threshold for a probability (faults fire on hash < this). */
    static std::uint64_t thresholdFor(double probability);
    std::uint64_t threshold() const { return threshold_; }

    std::uint64_t faultCount(std::size_t id) const
    { return faults_.at(id); }

  private:
    static std::uint64_t
    hashAccess(std::uint64_t seed, std::size_t structureId,
               std::uint64_t accessIndex)
    {
        // splitmix64 finalizer over a seed/structure/index blend; the
        // odd multipliers keep distinct structures and indices from
        // aliasing before the avalanche.
        std::uint64_t x = seed;
        x += 0x9E3779B97F4A7C15ull * (structureId + 1);
        x += 0xD1B54A32D192ED03ull * accessIndex;
        x += 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }

    FaultModelParams params_;
    std::uint64_t seed_;
    double margin_;
    double probability_ = 0.0;
    std::uint64_t threshold_ = 0;
    std::vector<std::uint64_t> faults_;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_FAULT_INJECTOR_HH
