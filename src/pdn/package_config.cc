#include "package_config.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsmooth::pdn {

PackageConfig
PackageConfig::core2duo()
{
    return PackageConfig{};
}

PackageConfig
PackageConfig::pentium4()
{
    PackageConfig cfg;
    // Larger package: more decap, more loop inductance, lower VID,
    // built for 50-100 A current steps (footnote 1 of the paper).
    cfg.vddNominal = Volts(1.0);
    cfg.cPackage = Farads(2.3e-6);
    cfg.cDie = Farads(500e-9);
    cfg.lPackage = Henries(1.2e-12);
    cfg.rPackage = Ohms(0.3e-3);
    cfg.esrDie = Ohms(0.1e-3);
    cfg.cBulk = Farads(5.0e-3);
    return cfg;
}

PackageConfig
PackageConfig::withDecapFraction(double frac) const
{
    if (frac < 0.0 || frac > 1.0)
        fatal("decap fraction %g outside [0,1]", frac);
    PackageConfig cfg = *this;
    cfg.decapFraction = frac;
    return cfg;
}

Farads
PackageConfig::effectiveCapacitance() const
{
    return cDie + cPackage * decapFraction;
}

Hertz
PackageConfig::resonanceFrequency() const
{
    const double l_eff = lPackage.value() + eslMid.value();
    const double lc = l_eff * effectiveCapacitance().value();
    return Hertz(1.0 / (2.0 * M_PI * std::sqrt(lc)));
}

Ohms
PackageConfig::characteristicImpedance() const
{
    const double l_eff = lPackage.value() + eslMid.value();
    return Ohms(std::sqrt(l_eff / effectiveCapacitance().value()));
}

SecondOrderParams
secondOrderEquivalent(const PackageConfig &cfg)
{
    SecondOrderParams p;
    p.vdd = cfg.vddNominal;
    // The effective tank the die sees: the package loop inductance in
    // series with the mid-bank ESL (the reservoir the ring discharges
    // into), against the die-rail capacitance. Matches the ladder's
    // AC analysis within a few percent (integration-tested).
    p.l = cfg.lPackage + cfg.eslMid;
    p.c = cfg.effectiveCapacitance();
    p.rSeries = Ohms(cfg.rVrm.value() + cfg.rBoard.value() +
                     cfg.rPackage.value());
    p.rDamp = Ohms(cfg.esrMid.value() + cfg.esrDie.value());
    return p;
}

} // namespace vsmooth::pdn
