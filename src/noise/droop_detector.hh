/**
 * @file
 * Voltage-noise event detection.
 *
 * A *droop event* begins when the voltage deviation falls below a
 * margin and ends when it recovers above a release level (hysteresis:
 * one excursion of the resonant ring = one event, not one event per
 * sample). This is the unit behind the paper's "droops per 1K cycles"
 * metric and, at the operating margin, behind emergency counting for
 * the resilient-design performance model.
 */

#ifndef VSMOOTH_NOISE_DROOP_DETECTOR_HH
#define VSMOOTH_NOISE_DROOP_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "common/units.hh"

namespace vsmooth::noise {

/** Hysteresis threshold-crossing detector for droops (or, mirrored,
 *  overshoots). Deviations are signed fractions of nominal voltage
 *  (e.g. -0.023 = 2.3 % below nominal). */
class DroopDetector
{
  public:
    /**
     * @param margin positive fraction of nominal; an event starts
     *        when deviation < -margin
     * @param releaseFactor event ends when deviation rises above
     *        -margin * releaseFactor (0 <= factor < 1)
     */
    explicit DroopDetector(double margin, double releaseFactor = 0.9);

    /**
     * Feed one per-cycle deviation sample.
     * @return true if a new droop event starts on this sample
     */
    bool
    feed(double deviation)
    {
        if (inEvent_) {
            if (deviation < eventDepth_)
                eventDepth_ = deviation;
            if (deviation > release_) {
                inEvent_ = false;
                deepest_ = eventDepth_ < deepest_ ? eventDepth_ : deepest_;
            }
            return false;
        }
        if (deviation < threshold_) {
            inEvent_ = true;
            eventDepth_ = deviation;
            ++events_;
            return true;
        }
        return false;
    }

    /**
     * Credit `n` events that were extrapolated rather than observed
     * (sampled execution fast-forwarding a stationary stretch). The
     * hysteresis state and the deepest-event tracker are deliberately
     * untouched: the skipped stretch is a statistical replay of an
     * already-simulated window, so its extremes were already seen and
     * the in/out-of-event state at the skip boundary stays whatever
     * the last real sample left it.
     */
    void addExtrapolatedEvents(std::uint64_t n) { events_ += n; }

    std::uint64_t eventCount() const { return events_; }
    bool inEvent() const { return inEvent_; }
    double margin() const { return -threshold_; }
    /** The (negative) deviation level that ends an event. */
    double releaseLevel() const { return release_; }
    /** Deepest deviation of any completed event (<= 0). */
    double deepestEvent() const { return deepest_; }

  private:
    friend class DroopDetectorBank;

    /**
     * Advance over one word of n <= simd::kWordSamples samples, given
     * its masks: bit j of `enter` is xs[j] < threshold, bit j of
     * `keep` is !(xs[j] > release). Exactly feed() on each sample.
     */
    void feedWord(const double *xs, std::size_t n, std::uint64_t enter,
                  std::uint64_t keep, simd::MaskedMinFn minOf);

    double threshold_;
    double release_;
    bool inEvent_ = false;
    double eventDepth_ = 0.0;
    double deepest_ = 0.0;
    std::uint64_t events_ = 0;
};

/** A set of droop detectors at different margins fed together, so one
 *  simulation yields emergency counts across the whole margin sweep
 *  (the x-axis of Figs 8 and 10). */
class DroopDetectorBank
{
  public:
    explicit DroopDetectorBank(const std::vector<double> &margins,
                               double releaseFactor = 0.9);

    /** Feed one deviation sample to every detector. */
    void
    feed(double deviation)
    {
        // Detectors are sorted by increasing margin, which gives a
        // monotone invariant: if a shallow detector is idle and not
        // triggered by this sample, no deeper detector can be either
        // (deeper thresholds are lower and deeper release levels are
        // crossed first on the way up). So we stop at the first
        // detector with nothing to do — on typical cycles that is the
        // very first one.
        for (auto &d : detectors_) {
            if (!d.inEvent() && deviation >= -d.margin())
                break;
            d.feed(deviation);
        }
    }

    /**
     * Feed a block of consecutive samples, 64-sample words at a time
     * (DESIGN.md "Batched execution" has the bit-identity argument).
     * The detectors a word can touch are a prefix of the sorted list:
     * the ones in an event when the word starts, and the ones whose
     * threshold the word's minimum crosses. For each, the word's
     * enter and keep masks give every per-sample state at once as the
     * carry chain of one add. The result is bit-identical to calling
     * feed() on every sample.
     */
    void feedBlock(const double *deviations, std::size_t n);

    /** Credit extrapolated events to detector i (sampled execution). */
    void addExtrapolatedEvents(std::size_t i, std::uint64_t n)
    { detectors_.at(i).addExtrapolatedEvents(n); }

    std::size_t size() const { return detectors_.size(); }
    const DroopDetector &detector(std::size_t i) const
    { return detectors_.at(i); }
    double marginAt(std::size_t i) const
    { return detectors_.at(i).margin(); }
    std::uint64_t eventCountAt(std::size_t i) const
    { return detectors_.at(i).eventCount(); }

    /**
     * Index of a configured margin. Exact values (as passed at
     * construction or returned by marginAt()) always resolve; values
     * recomputed through arithmetic are matched to the unambiguous
     * nearest margin within a relative last-ulp bound. Fatal if the
     * margin was never configured.
     */
    std::size_t indexForMargin(double margin) const;

    /** Event count for a configured margin (see indexForMargin). */
    std::uint64_t eventCountForMargin(double margin) const;

  private:
    void feedWord(const double *xs, std::size_t n,
                  simd::DetectMasksFn masksOf, simd::MaskedMinFn minOf);

    std::vector<DroopDetector> detectors_;
    /** The configured margins, sorted ascending, stored exactly as
     *  the detectors were built (index-aligned with detectors_). */
    std::vector<double> margins_;
    /** Each detector's threshold and release level, index-aligned,
     *  contiguous for the word-mask kernel. */
    std::vector<double> thresholds_;
    std::vector<double> releases_;
    /** Per-detector word masks, sized once so feeding never
     *  allocates. */
    std::vector<std::uint64_t> enter_;
    std::vector<std::uint64_t> keep_;
};

} // namespace vsmooth::noise

#endif // VSMOOTH_NOISE_DROOP_DETECTOR_HH
