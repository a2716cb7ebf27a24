#include "scope.hh"

namespace vsmooth::noise {

Scope::Scope() : histogram_(-0.25, 0.15, 4000)
{
}

double
Scope::maxDroop() const
{
    if (histogram_.totalCount() == 0)
        return 0.0;
    const double m = histogram_.minSample();
    return m < 0.0 ? -m : 0.0;
}

double
Scope::maxOvershoot() const
{
    if (histogram_.totalCount() == 0)
        return 0.0;
    const double m = histogram_.maxSample();
    return m > 0.0 ? m : 0.0;
}

double
Scope::visualPeakToPeak(double tailFraction) const
{
    if (histogram_.totalCount() == 0)
        return 0.0;
    return histogram_.quantile(1.0 - tailFraction) -
        histogram_.quantile(tailFraction);
}

double
Scope::fractionOutside(double band) const
{
    // Both tails are computed from their own tail mass; going through
    // 1 - fractionBelow(band) would cancel away the upper tail's
    // precision exactly where the paper's 0.06 %-beyond-4 % style
    // figures live.
    return histogram_.fractionBelow(-band) +
        histogram_.fractionAtOrAbove(band);
}

} // namespace vsmooth::noise
