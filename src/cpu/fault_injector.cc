#include "fault_injector.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsmooth::cpu {

FaultInjector::FaultInjector(const FaultModelParams &params,
                             std::uint64_t seed)
    : params_(params), seed_(seed), margin_(params.safeMargin)
{
    if (params_.safeMargin < 0.0)
        fatal("FaultInjector: safeMargin must be non-negative");
    if (params_.rateAtZeroMargin < 0.0 || params_.rateAtZeroMargin > 1.0)
        fatal("FaultInjector: rateAtZeroMargin must be in [0, 1]");
    if (params_.exponent <= 0.0)
        fatal("FaultInjector: exponent must be positive");
    setMargin(margin_);
}

std::size_t
FaultInjector::registerStructure()
{
    faults_.push_back(0);
    return faults_.size() - 1;
}

double
FaultInjector::faultProbabilityAt(const FaultModelParams &params,
                                  double margin)
{
    // Exact zero at (and above) the safe margin: the comparison, not a
    // rounded power, is what guarantees fault-free nominal operation.
    if (params.safeMargin <= 0.0 || margin >= params.safeMargin)
        return 0.0;
    const double clamped = margin < 0.0 ? 0.0 : margin;
    const double depth = (params.safeMargin - clamped) / params.safeMargin;
    const double p =
        params.rateAtZeroMargin * std::pow(depth, params.exponent);
    return p > 1.0 ? 1.0 : p;
}

std::uint64_t
FaultInjector::thresholdFor(double probability)
{
    if (probability <= 0.0)
        return 0;
    if (probability >= 1.0)
        return ~0ull;
    // 2^64 * p fits: p < 1 keeps the product below 2^64.
    return static_cast<std::uint64_t>(probability * 18446744073709551616.0);
}

void
FaultInjector::setMargin(double margin)
{
    margin_ = margin;
    probability_ = faultProbabilityAt(params_, margin);
    threshold_ = thresholdFor(probability_);
}

} // namespace vsmooth::cpu
