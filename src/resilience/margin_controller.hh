/**
 * @file
 * Closed-loop adaptive voltage-margin controller.
 *
 * The paper's co-scheduling policies exist so processors can run
 * thinner margins safely; this controller closes that loop in the
 * style of Kerrison & Eder (arXiv 1503.05733): a ring-oscillator
 * sensor (tech::RingOscillator) is read once per OS tick, and a
 * guard-banded PI step trims the operating margin toward the thinnest
 * level the observed noise supports. Two safety mechanisms bound the
 * trim: the margin saturates at configured [min, max] bounds, and any
 * droop that violates the *current* margin immediately widens it and
 * resets the integrator (droop evidence overrides accumulated trim
 * pressure).
 *
 * Violation detection reuses the exact hysteresis of
 * noise::DroopDetector — an event starts when the deviation falls
 * below -margin and ends when it recovers above the release level
 * captured at event start — so a controller with zero gains and zero
 * widen step is bit-identical to the fixed-margin emergency engine at
 * the same margin. That identity is what the differential tests and
 * the adaptive_margin_invariants fuzz property pin.
 */

#ifndef VSMOOTH_RESILIENCE_MARGIN_CONTROLLER_HH
#define VSMOOTH_RESILIENCE_MARGIN_CONTROLLER_HH

#include <cstdint>

#include "common/units.hh"
#include "tech/ring_oscillator.hh"

namespace vsmooth::resilience {

/** Configuration of the adaptive margin controller. */
struct MarginControllerParams
{
    /** Margin the controller starts (and saturates) from. */
    double initialMargin = 0.08;
    /** Lower saturation bound of the trimmed margin. */
    double minMargin = 0.02;
    /** Upper saturation bound (droop widening stops here). */
    double maxMargin = 0.14;
    /**
     * Ring-oscillator delay slack (fraction of nominal frequency) the
     * controller holds between the worst supply level seen in the
     * update window and the critical level at the current margin. The
     * guard band: larger values leave more headroom and settle wider.
     */
    double targetSlack = 0.01;
    /** Proportional gain on the slack error, in margin per unit slack. */
    double kp = 0.5;
    /** Integral gain on the accumulated slack error. */
    double ki = 0.05;
    /** Margin added immediately when a droop violates the margin
     *  (0 disables droop-triggered widening). */
    double widenStep = 0.01;
    /**
     * Cycles between PI updates. 0 means "resolve to the system OS
     * tick interval" — sim::System substitutes its own cadence; direct
     * users must pass a nonzero interval.
     */
    Cycles updateInterval = 0;
    /** Event ends when deviation rises above -margin * releaseFactor
     *  (must match noise::DroopDetector for the zero-gain identity). */
    double releaseFactor = 0.9;
    /** Ring-oscillator sensor: threshold voltage and alpha exponent. */
    Volts roVth = Volts(0.35);
    double roAlpha = 1.4;
};

/** Guard-banded PI margin controller with droop-triggered widening. */
class MarginController
{
  public:
    /**
     * @param params control law; updateInterval must be nonzero
     * @param vddNominal nominal supply the RO sensor calibrates
     *        against (deviations are fractions of this)
     */
    MarginController(const MarginControllerParams &params, Volts vddNominal);

    /**
     * Feed one per-cycle voltage deviation (signed fraction of
     * nominal).
     * @return true if a new margin violation starts on this sample —
     *         the caller should treat it exactly like a fixed-margin
     *         emergency (recovery stall + emergency count)
     */
    bool
    feed(double deviation)
    {
        marginCycleSum_ += margin_;
        ++cyclesObserved_;
        if (deviation < windowWorstDev_)
            windowWorstDev_ = deviation;

        bool started = false;
        if (inViolation_) {
            if (deviation < eventDepth_)
                eventDepth_ = deviation;
            if (deviation > violationRelease_) {
                inViolation_ = false;
                deepestViolation_ = eventDepth_ < deepestViolation_
                                        ? eventDepth_
                                        : deepestViolation_;
            }
        } else if (deviation < -margin_) {
            inViolation_ = true;
            eventDepth_ = deviation;
            ++widenings_;
            widen();
            violationRelease_ = -margin_ * params_.releaseFactor;
            started = true;
        }

        if (--updateCountdown_ == 0) {
            update();
            updateCountdown_ = params_.updateInterval;
        }
        return started;
    }

    /** Margin currently in force. */
    double margin() const { return margin_; }
    /** Time-weighted mean margin over every cycle fed so far. */
    double averageMargin() const
    {
        return cyclesObserved_ ? marginCycleSum_ / double(cyclesObserved_)
                               : margin_;
    }
    /** Thinnest / widest margin ever in force. */
    double minMarginSeen() const { return minMarginSeen_; }
    double maxMarginSeen() const { return maxMarginSeen_; }
    /** PI updates executed. */
    std::uint64_t updates() const { return updates_; }
    /** Droop-triggered widenings (= margin violations detected). */
    std::uint64_t widenings() const { return widenings_; }
    /** Deepest deviation of any completed violation (<= 0). */
    double deepestViolation() const { return deepestViolation_; }
    /** Slack error measured by the most recent PI update. */
    double lastSlack() const { return lastSlack_; }

  private:
    void update();
    void widen();
    void clampAndTrack();

    MarginControllerParams params_;
    tech::RingOscillator ro_;
    double vddNominal_;
    /** frequencyAt(vddNominal), hoisted: every slack reading divides
     *  by it. */
    double nominalFreq_;

    double margin_;
    double integral_ = 0.0;
    double windowWorstDev_ = 0.0;
    Cycles updateCountdown_;
    bool inViolation_ = false;
    double violationRelease_ = 0.0;
    double eventDepth_ = 0.0;
    double deepestViolation_ = 0.0;
    double marginCycleSum_ = 0.0;
    Cycles cyclesObserved_ = 0;
    double minMarginSeen_;
    double maxMarginSeen_;
    double lastSlack_ = 0.0;
    std::uint64_t updates_ = 0;
    std::uint64_t widenings_ = 0;
};

} // namespace vsmooth::resilience

#endif // VSMOOTH_RESILIENCE_MARGIN_CONTROLLER_HH
