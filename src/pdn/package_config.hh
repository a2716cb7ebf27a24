/**
 * @file
 * Power-delivery-network parameterization.
 *
 * PackageConfig captures the electrical model of a processor's power
 * delivery: VRM output stage, bulk (board) capacitors, package
 * decoupling capacitors, package loop parasitics, and on-die grid
 * capacitance. The paper's Proc100..Proc0 processors are expressed by
 * scaling `decapFraction` — exactly the parameter the authors altered
 * physically by shaving capacitors off the package land side (Fig 5).
 *
 * Defaults model the Intel Core 2 Duo E6300 platform studied in the
 * paper: 1.325 V nominal supply, mid-frequency PDN resonance in the
 * 100-200 MHz band (validated against the paper's Fig 4), and a VRM
 * sawtooth ripple that keeps an idling machine inside a 2.3 % band
 * (Sec IV-A uses 2.3 % as the "idle activity" margin).
 */

#ifndef VSMOOTH_PDN_PACKAGE_CONFIG_HH
#define VSMOOTH_PDN_PACKAGE_CONFIG_HH

#include <cstddef>

#include "common/units.hh"

namespace vsmooth::pdn {

/** Full electrical description of the power delivery network. */
struct PackageConfig
{
    /** Nominal supply voltage (E6300 VID). */
    Volts vddNominal{1.325};

    // --- VRM output stage (low frequency) ------------------------------
    Ohms rVrm{0.3e-3};
    Henries lVrm{2.0e-9};

    // --- Bulk / board capacitors ---------------------------------------
    Farads cBulk{3.3e-3};
    Ohms esrBulk{0.5e-3};
    Henries eslBulk{0.1e-9};

    // --- Mid-frequency bank at the package node: package plane
    //     capacitance plus low-ESL ceramics; makes the package node a
    //     stiff reservoir at the die-tank resonance ---------------------
    Farads cMid{40e-6};
    Ohms esrMid{0.9e-3};
    Henries eslMid{5e-12};

    // --- Board / socket parasitics between bulk and package ------------
    Ohms rBoard{0.6e-3};
    Henries lBoard{40e-12};

    // --- Package decoupling capacitors (the ones removed in Fig 5) -----
    /**
     * Total land-side decap effective at the first-droop resonance
     * when fully populated (Proc100). Sized so that the p2p swing
     * ratios across Proc100..Proc0 track the paper's Fig 6
     * (Proc0/Proc100 ~ 2.3x) and the resonance stays in the measured
     * 100-250 MHz band.
     */
    Farads cPackage{320e-9};
    Ohms esrPackage{0.25e-3};
    Henries eslPackage{1.0e-12};
    /**
     * Fraction of package decap still present: 1.0 = Proc100,
     * 0.25 = Proc25, 0.03 = Proc3, 0.0 = Proc0.
     */
    double decapFraction = 1.0;

    // --- Package loop between decaps and die ---------------------------
    Ohms rPackage{0.5e-3};
    Henries lPackage{6.0e-12};

    // --- On-die decoupling (never removed) -----------------------------
    Farads cDie{70e-9};
    Ohms esrDie{0.45e-3};

    // --- On-die grid between the shared rail and each core -------------
    Ohms rGridPerCore{0.05e-3};

    // --- VRM switching ripple -------------------------------------------
    /** Peak (one-sided) ripple amplitude as a fraction of Vdd. */
    double rippleFraction = 0.009;
    /** VRM switching frequency. */
    Hertz rippleFrequency{1.0e6};

    /** The platform the paper measured: all decaps present. */
    static PackageConfig core2duo();

    /**
     * The Pentium 4-style package the paper's Fig 1 projection is
     * based on (larger, higher-current platform).
     */
    static PackageConfig pentium4();

    /**
     * Copy of this configuration with the given fraction of package
     * decap remaining (the paper's ProcN notation, N = 100 * frac).
     */
    PackageConfig withDecapFraction(double frac) const;

    /**
     * Effective tank capacitance at the die for the mid-frequency
     * resonance: on-die capacitance plus surviving package decap.
     */
    Farads effectiveCapacitance() const;

    /**
     * Mid-frequency (first-droop) resonance frequency implied by the
     * package loop inductance and the effective tank capacitance.
     */
    Hertz resonanceFrequency() const;

    /** Characteristic impedance sqrt(L/C) of the resonant tank. */
    Ohms characteristicImpedance() const;
};

/** Parameters of the reduced second-order (fast) model. */
struct SecondOrderParams
{
    Volts vdd{1.325};
    /** Series (DC-path) resistance: sets the IR drop under load and
     *  contributes to damping. */
    Ohms rSeries{1.4e-3};
    /** Damping resistance in series with the tank capacitor (the
     *  capacitor-bank ESRs): damps the ring without adding IR drop. */
    Ohms rDamp{1.15e-3};
    Henries l{11.0e-12};
    Farads c{390e-9};
};

/**
 * Reduce a full PackageConfig to the dominant second-order model used
 * by the per-cycle simulation loop. The reduction keeps the
 * mid-frequency tank (package loop L, effective die+package C) and
 * lumps the loss (damping) resistances.
 */
SecondOrderParams secondOrderEquivalent(const PackageConfig &cfg);

} // namespace vsmooth::pdn

#endif // VSMOOTH_PDN_PACKAGE_CONFIG_HH
