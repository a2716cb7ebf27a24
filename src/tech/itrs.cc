#include "itrs.hh"

namespace vsmooth::tech {

const std::vector<TechNode> &
itrsNodes()
{
    static const std::vector<TechNode> nodes = {
        {"45nm", 45.0, Volts(1.0)},
        {"32nm", 32.0, Volts(0.9)},
        {"22nm", 22.0, Volts(0.8)},
        {"16nm", 16.0, Volts(0.7)},
        {"11nm", 11.0, Volts(0.6)},
    };
    return nodes;
}

Amps
scaledStimulus(Amps stimulusAt45nm, const TechNode &node)
{
    const double vdd45 = itrsNodes().front().vdd.value();
    return Amps(stimulusAt45nm.value() * vdd45 / node.vdd.value());
}

} // namespace vsmooth::tech
