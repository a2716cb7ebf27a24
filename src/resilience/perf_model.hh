/**
 * @file
 * The typical-case (resilient) design performance model of Sec III-B.
 *
 * Tightening the operating voltage margin buys clock frequency
 * (Bowman et al.: 10 % margin -> 15 % frequency, the 1.5x factor) but
 * admits voltage emergencies, each of which costs a rollback/recovery
 * of `recoveryCost` cycles. Net improvement over the conservative
 * worst-case design (14 % margin on the Core 2 Duo) is
 *
 *   speedup(m, c) = (1 + gain(m)) / (1 + c * N(m) / cycles)
 *
 * where N(m) is the number of emergencies at margin m recorded from
 * the voltage trace. The model reproduces Fig 8 (improvement vs
 * margin per cost), Fig 10 (heatmaps), and Table I (optimal margins).
 */

#ifndef VSMOOTH_RESILIENCE_PERF_MODEL_HH
#define VSMOOTH_RESILIENCE_PERF_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "noise/droop_detector.hh"

namespace vsmooth::resilience {

/**
 * Bowman et al. [5]: removing a 10 % voltage margin buys a 15 % clock
 * frequency improvement — the 1.5x factor of the paper's Sec III-B
 * performance model.
 */
constexpr double kBowmanScale = 1.5;

/**
 * Clock-frequency gain from tightening the margin, as a fraction
 * (Bowman scaling: kBowmanScale * margin removed).
 *
 * @param margin the aggressive margin (fraction of nominal)
 * @param worstCaseMargin the conservative baseline margin
 */
double frequencyGain(double margin, double worstCaseMargin = 0.14);

/** Emergency counts per watched margin over a measured run. */
struct EmergencyProfile
{
    /** Watched margins, ascending. */
    std::vector<double> margins;
    /** Emergency (droop event) count at each margin. */
    std::vector<std::uint64_t> counts;
    /** Cycles the profile was recorded over. */
    Cycles cycles = 0;

    /**
     * Emergency count at a margin; interpolated (log-linearly in
     * count) between watched margins, clamped at the ends.
     */
    double countAt(double margin) const;

    /** Merge another profile (same margins) into this one. */
    void merge(const EmergencyProfile &other);
};

/** Build a profile from a detector bank after a run. */
EmergencyProfile profileFromBank(const noise::DroopDetectorBank &bank,
                                 Cycles cycles);

/**
 * Net performance improvement (percent) of running at `margin` with
 * a given recovery cost, relative to the worst-case design.
 */
double improvementPercent(const EmergencyProfile &profile, double margin,
                          std::uint32_t recoveryCost,
                          double worstCaseMargin = 0.14);

/** Result of an optimal-margin search. */
struct OptimalMargin
{
    double margin = 0.14;
    double improvementPercent = 0.0;
};

/**
 * Find the margin maximizing improvement for a recovery cost by
 * scanning the profile's watched margins.
 */
OptimalMargin optimalMargin(const EmergencyProfile &profile,
                            std::uint32_t recoveryCost,
                            double worstCaseMargin = 0.14);

/**
 * Improvement heatmap: rows = recovery costs, cols = margins (the
 * paper's Fig 10 panels).
 */
struct Heatmap
{
    std::vector<std::uint32_t> costs;
    std::vector<double> margins;
    /** improvement[cost index][margin index], percent. */
    std::vector<std::vector<double>> improvement;
};

Heatmap improvementHeatmap(const EmergencyProfile &profile,
                           const std::vector<std::uint32_t> &costs,
                           double worstCaseMargin = 0.14);

} // namespace vsmooth::resilience

#endif // VSMOOTH_RESILIENCE_PERF_MODEL_HH
