#include "droop_detector.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace vsmooth::noise {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Bits 0..n-1 set, for 1 <= n <= 64. */
std::uint64_t
lowBits(std::size_t n)
{
    return n == simd::kWordSamples ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << n) - 1;
}

} // namespace

DroopDetector::DroopDetector(double margin, double releaseFactor)
    : threshold_(-margin), release_(-margin * releaseFactor)
{
    if (margin <= 0.0)
        fatal("DroopDetector: margin must be positive (got %g)", margin);
    if (releaseFactor < 0.0 || releaseFactor >= 1.0)
        fatal("DroopDetector: release factor %g outside [0,1)",
              releaseFactor);
}

void
DroopDetector::feedWord(const double *xs, std::size_t n,
                        std::uint64_t enter, std::uint64_t keep,
                        simd::MaskedMinFn minOf)
{
    // Past the last sample the state is kept, so bit 63 of the state
    // is the state after sample n-1.
    keep |= ~lowBits(n);
    const std::uint64_t carryIn = inEvent_ ? 1 : 0;

    // feed() makes state_j = enter_j | (keep_j & state_{j-1}), with
    // state_{-1} = carryIn, and enter is a subset of keep (d below the
    // threshold is not above the release level). That is the carry
    // out of bit j in keep + enter + carryIn, so the carry into bit j
    // is state_{j-1}: one add and two xors recover every carry.
    const std::uint64_t carries = (keep + enter + carryIn) ^ keep ^ enter;
    const std::uint64_t state = enter | (keep & carries);
    const std::uint64_t before = (state << 1) | carryIn;
    events_ += static_cast<std::uint64_t>(std::popcount(state & ~before));

    // The run of in-event samples still open at the end of the word.
    const std::uint64_t idle = ~state;
    std::uint64_t open = 0;
    if (state >> 63) {
        open = idle ? ~std::uint64_t{0} << (64 - std::countl_zero(idle))
                    : ~std::uint64_t{0};
    }
    const std::uint64_t closed = state & ~open;

    // A finished event's depth is the minimum over its samples (the
    // entering one is below the threshold, so never NaN), and the
    // deepest event is the minimum over every finished event. Every
    // candidate is negative, so these minima are order-independent.
    // The event carried in from the last word ends here when any
    // state bit is clear.
    const bool carriedEnds = inEvent_ && idle != 0;
    if (closed || carriedEnds) {
        double depth = closed ? minOf(xs, n, closed) : kInf;
        if (carriedEnds && eventDepth_ < depth)
            depth = eventDepth_;
        if (depth < deepest_)
            deepest_ = depth;
    }
    if (open) {
        double depth = minOf(xs, n, open & lowBits(n));
        if (inEvent_ && idle == 0 && eventDepth_ < depth)
            depth = eventDepth_;
        eventDepth_ = depth;
    }
    inEvent_ = open != 0;
}

DroopDetectorBank::DroopDetectorBank(const std::vector<double> &margins,
                                     double releaseFactor)
{
    if (margins.empty())
        fatal("DroopDetectorBank: need at least one margin");
    margins_ = margins;
    std::sort(margins_.begin(), margins_.end());
    detectors_.reserve(margins_.size());
    for (double m : margins_) {
        detectors_.emplace_back(m, releaseFactor);
        thresholds_.push_back(detectors_.back().threshold_);
        releases_.push_back(detectors_.back().release_);
    }
    enter_.resize(margins_.size());
    keep_.resize(margins_.size());
}

void
DroopDetectorBank::feedBlock(const double *deviations, std::size_t n)
{
    const simd::KernelSet &ks = simd::kernels();
    for (std::size_t j = 0; j < n; j += simd::kWordSamples) {
        feedWord(deviations + j, std::min(simd::kWordSamples, n - j),
                 ks.detectMasks, ks.maskedMin);
    }
}

void
DroopDetectorBank::feedWord(const double *xs, std::size_t n,
                            simd::DetectMasksFn masksOf,
                            simd::MaskedMinFn minOf)
{
    // Sorted margins share one release factor, so a deeper detector
    // enters only on a sample that also enters (or finds in an event)
    // every shallower one, and leaves no later than they do: the
    // in-event detectors are always a prefix. A detector idle at the
    // start of the word whose threshold the word's minimum does not
    // cross therefore stays idle, and so does every deeper one.
    const double lowest = minOf(xs, n, lowBits(n));
    std::size_t active = 0;
    while (active < detectors_.size() &&
           (detectors_[active].inEvent_ || lowest < thresholds_[active]))
        ++active;
    if (active == 0)
        return;
    masksOf(xs, n, thresholds_.data(), releases_.data(), active,
            enter_.data(), keep_.data());
    for (std::size_t i = 0; i < active; ++i)
        detectors_[i].feedWord(xs, n, enter_[i], keep_[i], minOf);
}

std::size_t
DroopDetectorBank::indexForMargin(double margin) const
{
    // Exact match against the stored configured margins first — a
    // caller passing back a value obtained from marginAt()/the
    // original configuration always resolves, even when margins sit
    // closer together than any fixed epsilon.
    const auto it =
        std::lower_bound(margins_.begin(), margins_.end(), margin);
    if (it != margins_.end() && *it == margin)
        return static_cast<std::size_t>(it - margins_.begin());

    // Otherwise tolerate last-ulp noise from margins recomputed
    // through arithmetic (e.g. 0.01 * i vs an accumulated sum): pick
    // the nearest configured margin, require it to be unambiguous,
    // and bound the mismatch relative to the margin's magnitude
    // instead of the old brittle 1e-9 absolute epsilon.
    std::size_t best = 0;
    double bestDist = std::numeric_limits<double>::infinity();
    bool ambiguous = false;
    for (std::size_t i = 0; i < margins_.size(); ++i) {
        const double dist = std::abs(margins_[i] - margin);
        if (dist < bestDist) {
            bestDist = dist;
            best = i;
            ambiguous = false;
        } else if (dist == bestDist) {
            ambiguous = true;
        }
    }
    const double tol =
        1e-12 * std::max({1.0, std::abs(margin), margins_.back()});
    if (ambiguous || bestDist > tol) {
        fatal("DroopDetectorBank: margin %.17g was not configured",
              margin);
    }
    return best;
}

std::uint64_t
DroopDetectorBank::eventCountForMargin(double margin) const
{
    return detectors_[indexForMargin(margin)].eventCount();
}

} // namespace vsmooth::noise
