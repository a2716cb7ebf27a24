/**
 * @file
 * Technology-node scaling assumptions (paper footnote 1).
 *
 * The paper's Fig 1 projection assumes Vdd scales per ITRS from 1.0 V
 * at 45 nm to 0.6 V at 11 nm while the current stimulus scales
 * inversely with Vdd at iso-power (same power budget drawn at a lower
 * voltage means proportionally more current).
 */

#ifndef VSMOOTH_TECH_ITRS_HH
#define VSMOOTH_TECH_ITRS_HH

#include <string>
#include <vector>

#include "common/units.hh"

namespace vsmooth::tech {

/** One process technology node. */
struct TechNode
{
    std::string name;
    double featureNm;
    Volts vdd;
};

/** The five nodes of the paper's projection, 45 nm first. */
const std::vector<TechNode> &itrsNodes();

/**
 * Current stimulus at a node, scaled inversely with Vdd from a
 * baseline stimulus at the 45 nm node (iso-power assumption).
 */
Amps scaledStimulus(Amps stimulusAt45nm, const TechNode &node);

} // namespace vsmooth::tech

#endif // VSMOOTH_TECH_ITRS_HH
