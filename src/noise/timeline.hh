/**
 * @file
 * Droop-rate timelines and voltage-noise phase detection.
 *
 * The paper plots "droops per 1K cycles" averaged over 60-second
 * intervals to expose voltage noise phases (Fig 14) and correlates
 * the per-interval droop rate with the stall ratio (Fig 15). The
 * counts are derived from the oscilloscope's *histogram* data
 * (Sec III-B), i.e. they are voltage samples below the margin per
 * 1000 cycles — which is also why the paper's values reach 120/1K,
 * above the ~40/1K ceiling one excursion-per-ring-period counting
 * would allow at the platform's resonance frequency. NoiseTimeline
 * reproduces that sample-count metric; hysteresis *event* counting
 * (DroopDetector) is used where one excursion must equal one recovery
 * (the resilience model).
 */

#ifndef VSMOOTH_NOISE_TIMELINE_HH
#define VSMOOTH_NOISE_TIMELINE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "noise/droop_detector.hh"

namespace vsmooth::noise {

/** Accumulates droop events into fixed-length intervals. */
class NoiseTimeline
{
  public:
    /**
     * @param intervalCycles interval length (the 60 s of the paper,
     *        scaled to simulation length)
     * @param margin droop-counting margin (paper uses 2.3 %, chosen
     *        because idle activity stays inside it)
     */
    NoiseTimeline(Cycles intervalCycles, double margin = 0.023);

    /** Feed one per-cycle deviation sample. */
    void
    feed(double deviation)
    {
        if (deviation < -margin_) {
            ++droopsThisInterval_;
            ++totalDroops_;
        }
        if (++cyclesThisInterval_ == intervalCycles_)
            closeInterval();
    }

    /**
     * Feed a block of consecutive samples. The margin and the two
     * counters are held in locals between interval boundaries; the
     * per-sample work is one compare plus increments, with the same
     * counting (and interval-close points) as feed() per cycle.
     */
    void
    feedBlock(const double *deviations, std::size_t n)
    {
        const double margin = margin_;
        std::size_t j = 0;
        while (j < n) {
            const Cycles room = intervalCycles_ - cyclesThisInterval_;
            const std::size_t chunk =
                static_cast<std::size_t>(
                    std::min<Cycles>(room, n - j));
            std::uint64_t droops = 0;
            for (std::size_t k = j; k < j + chunk; ++k) {
                if (deviations[k] < -margin)
                    ++droops;
            }
            droopsThisInterval_ += droops;
            totalDroops_ += droops;
            cyclesThisInterval_ += chunk;
            if (cyclesThisInterval_ == intervalCycles_)
                closeInterval();
            j += chunk;
        }
    }

    /**
     * Advance the timeline by `cycles` extrapolated cycles carrying
     * `droops` below-margin samples in total (sampled execution
     * fast-forward). Interval boundaries are crossed exactly as if
     * the cycles had been fed one by one; the droops are allocated
     * to the crossed intervals proportionally with integer
     * arithmetic, so the credited total is exactly `droops` and
     * series lengths match an exact run of the same cycle count.
     */
    void feedExtrapolated(Cycles cycles, std::uint64_t droops);

    /** Close any partial interval and return the series. */
    const std::vector<double> &finish();

    /** Droops per 1000 cycles, one entry per completed interval. */
    const std::vector<double> &series() const { return series_; }

    double margin() const { return margin_; }
    std::uint64_t totalDroops() const { return totalDroops_; }

  private:
    void closeInterval();

    Cycles intervalCycles_;
    double margin_;
    Cycles cyclesThisInterval_ = 0;
    Cycles totalCycles_ = 0;
    std::uint64_t droopsThisInterval_ = 0;
    std::uint64_t totalDroops_ = 0;
    std::vector<double> series_;
    bool finished_ = false;
};

/** A detected phase: a run of intervals with a similar droop rate. */
struct NoisePhase
{
    std::size_t firstInterval;
    std::size_t lastInterval; // inclusive
    double meanDroopsPer1k;
};

/**
 * Segment a droop-rate series into phases: a new phase starts when
 * the rate moves more than `threshold` (droops/1K cycles) away from
 * the running mean of the current phase.
 */
std::vector<NoisePhase> detectPhases(const std::vector<double> &series,
                                     double threshold = 15.0);

} // namespace vsmooth::noise

#endif // VSMOOTH_NOISE_TIMELINE_HH
