#include "current_model.hh"

#include "common/logging.hh"
#include "common/simd.hh"
#include "dsp/primitives.hh"

namespace vsmooth::power {

CurrentModel::CurrentModel(const CurrentModelParams &params)
    : params_(params), previous_(steadyCurrent(0.0))
{
    if (params_.leakage.value() < 0.0 || params_.idleClock.value() < 0.0 ||
        params_.dynamicMax.value() < 0.0) {
        fatal("CurrentModel: current components must be non-negative");
    }
}

double
CurrentModel::steadyCurrent(double activity) const
{
    // Restart bursts can briefly exceed the steady-state activity
    // ceiling (in-rush above sustained max); the map allows that
    // headroom and models clock gating — see
    // dsp::activityToCurrentSample for the (branchless) arithmetic.
    return dsp::activityToCurrentSample(activity,
                                        params_.leakage.value(),
                                        params_.idleClock.value(),
                                        params_.dynamicMax.value());
}

double
CurrentModel::currentFor(double activity)
{
    const double alpha = 1.0 / (1.0 + params_.smoothingTauCycles);
    return dsp::smoothSlewSample(previous_, steadyCurrent(activity),
                                 params_.smoothingTauCycles, alpha,
                                 params_.maxSlewPerCycle);
}

void
CurrentModel::steadyBlock(const double *activity, double *steady,
                          std::size_t n) const
{
    // steadyCurrent()'s arithmetic (same operations, same order) at
    // the active SIMD level's width.
    simd::kernels().steady(params_.leakage.value(),
                           params_.idleClock.value(),
                           params_.dynamicMax.value(), activity, steady, n);
}

} // namespace vsmooth::power
