#include "margin_controller.hh"

#include "common/logging.hh"

namespace vsmooth::resilience {

MarginController::MarginController(const MarginControllerParams &params,
                                   Volts vddNominal)
    : params_(params),
      ro_(params.roVth, params.roAlpha),
      vddNominal_(vddNominal.value()),
      margin_(params.initialMargin),
      updateCountdown_(params.updateInterval),
      minMarginSeen_(params.initialMargin),
      maxMarginSeen_(params.initialMargin)
{
    if (params_.updateInterval == 0)
        fatal("MarginController: updateInterval must be nonzero "
              "(sim::System resolves 0 to its OS tick)");
    if (!(params_.minMargin > 0.0 &&
          params_.minMargin <= params_.initialMargin &&
          params_.initialMargin <= params_.maxMargin)) {
        fatal("MarginController: need 0 < minMargin <= initialMargin "
              "<= maxMargin (got %g <= %g <= %g)", params_.minMargin,
              params_.initialMargin, params_.maxMargin);
    }
    if (params_.kp < 0.0 || params_.ki < 0.0)
        fatal("MarginController: gains must be non-negative");
    if (params_.widenStep < 0.0)
        fatal("MarginController: widenStep must be non-negative");
    if (params_.targetSlack < 0.0)
        fatal("MarginController: targetSlack must be non-negative");
    if (params_.releaseFactor < 0.0 || params_.releaseFactor >= 1.0)
        fatal("MarginController: releaseFactor must be in [0, 1)");
    nominalFreq_ = ro_.frequencyAt(vddNominal);
    if (!(nominalFreq_ > 0.0))
        fatal("MarginController: nominal supply %g V does not clear "
              "the sensor threshold %g V", vddNominal_,
              params_.roVth.value());
}

/**
 * One PI step at the update cadence. The sensor reading is the RO
 * frequency at the worst supply level seen since the last update; the
 * controlled quantity is its slack over the RO frequency at the
 * critical level vdd * (1 - margin), normalised by the nominal
 * frequency. Steady state holds slack == targetSlack, i.e. the margin
 * settles a guard band below the observed worst droop depth —
 * smoother workloads droop less and earn a thinner margin.
 */
void
MarginController::update()
{
    ++updates_;
    const double worst = windowWorstDev_;
    windowWorstDev_ = 0.0;
    const double fMeas = ro_.frequencyAt(Volts(vddNominal_ * (1.0 + worst)));
    const double fCrit = ro_.frequencyAt(Volts(vddNominal_ * (1.0 - margin_)));
    const double slack = (fMeas - fCrit) / nominalFreq_;
    lastSlack_ = slack;
    const double error = slack - params_.targetSlack;
    // Conditional integration (anti-windup): skip the accumulator when
    // the proposed step already drives the margin into a bound in the
    // error's own direction, so the integrator never charges against a
    // rail it cannot move past.
    const double proposed =
        margin_ - (params_.kp * error + params_.ki * (integral_ + error));
    const bool intoLowerRail = proposed < params_.minMargin && error > 0.0;
    const bool intoUpperRail = proposed > params_.maxMargin && error < 0.0;
    if (!intoLowerRail && !intoUpperRail)
        integral_ += error;
    margin_ -= params_.kp * error + params_.ki * integral_;
    clampAndTrack();
}

/** Droop-triggered widening: step the margin out and drop the
 *  integrator — the violation is direct evidence that its accumulated
 *  trim pressure was wrong. */
void
MarginController::widen()
{
    if (params_.widenStep > 0.0) {
        margin_ += params_.widenStep;
        integral_ = 0.0;
        clampAndTrack();
    }
}

void
MarginController::clampAndTrack()
{
    if (margin_ < params_.minMargin)
        margin_ = params_.minMargin;
    if (margin_ > params_.maxMargin)
        margin_ = params_.maxMargin;
    if (margin_ < minMarginSeen_)
        minMarginSeen_ = margin_;
    if (margin_ > maxMarginSeen_)
        maxMarginSeen_ = margin_;
}

} // namespace vsmooth::resilience
