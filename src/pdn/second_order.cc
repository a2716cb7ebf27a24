#include "second_order.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsmooth::pdn {

SecondOrderPdn::SecondOrderPdn(const SecondOrderParams &params, Seconds dt,
                               double rippleFraction, Hertz rippleFrequency)
    : vdd_(params.vdd.value()),
      invVdd_(1.0 / params.vdd.value()),
      rs_(params.rSeries.value()),
      rc_(params.rDamp.value()),
      l_(params.l.value()),
      c_(params.c.value()),
      dt_(dt.value()),
      rippleAmp_(rippleFraction * vdd_),
      ripplePeriod_(1.0 / rippleFrequency.value())
{
    if (dt_ <= 0.0)
        fatal("SecondOrderPdn: timestep must be positive");
    if (l_ <= 0.0 || c_ <= 0.0 || rs_ < 0.0 || rc_ < 0.0)
        fatal("SecondOrderPdn: L and C must be positive, R non-negative");

    // Three-element tank with the damping resistance in the capacitor
    // branch (vDie = vC + rDamp * (iL - iLoad)):
    //   L diL/dt = Vdd - vC - (rSeries + rDamp) iL + rDamp iLoad
    //   C dvC/dt = iL - iLoad
    const double a00 = -(rs_ + rc_) / l_;
    const double a01 = -1.0 / l_;
    const double a10 = 1.0 / c_;
    const double a11 = 0.0;
    const double h = dt_ / 2.0;

    // P = I - h*A, Q = I + h*A; M = P^-1 * Q, N = P^-1 * dt * B.
    const double p00 = 1.0 - h * a00;
    const double p01 = -h * a01;
    const double p10 = -h * a10;
    const double p11 = 1.0 - h * a11;
    const double det = p00 * p11 - p01 * p10;
    if (std::abs(det) < 1e-300)
        panic("SecondOrderPdn: singular discretization");
    const double i00 = p11 / det;
    const double i01 = -p01 / det;
    const double i10 = -p10 / det;
    const double i11 = p00 / det;

    const double q00 = 1.0 + h * a00;
    const double q01 = h * a01;
    const double q10 = h * a10;
    const double q11 = 1.0 + h * a11;

    m00_ = i00 * q00 + i01 * q10;
    m01_ = i00 * q01 + i01 * q11;
    m10_ = i10 * q00 + i11 * q10;
    m11_ = i10 * q01 + i11 * q11;

    // Input matrix for u = [vddEff, iLoad]:
    //   B = [[1/L, rDamp/L], [0, -1/C]] (times dt for the update).
    const double b00 = dt_ / l_;
    const double b01 = dt_ * rc_ / l_;
    const double b11 = -dt_ / c_;
    n00_ = i00 * b00;
    n10_ = i10 * b00;
    n01_ = i00 * b01 + i01 * b11;
    n11_ = i10 * b01 + i11 * b11;

    reset(0.0);
}

SecondOrderPdn::SecondOrderPdn(const PackageConfig &cfg, Seconds dt)
    : SecondOrderPdn(secondOrderEquivalent(cfg), dt, cfg.rippleFraction,
                     cfg.rippleFrequency)
{
}

double
SecondOrderPdn::step(double loadAmps)
{
    // Average the ripple over the step endpoints (trapezoidal input).
    // The ripple-free short-circuit is exact: the ripple is 0.0 on
    // both endpoints, and vdd_ + 0.5 * (0.0 + 0.0) == vdd_ bitwise.
    // The recurrence is the dsp biquad kernel, shared with
    // stepBlock() and the cross-lane kernel.
    const double vddEff =
        ripple().vddEff(vdd_, time_, dt_);
    dsp::biquadSample(iL_, vC_, vDie_, m00_, m01_, m10_, m11_,
                      dsp::biquadInput(n00_, vddEff, n01_, loadAmps),
                      dsp::biquadInput(n10_, vddEff, n11_, loadAmps),
                      loadAmps, rc_, invVdd_);
    time_ += dt_;
    return vDie_;
}

void
SecondOrderPdn::stepBlock(const double *load, double *deviation,
                          std::size_t n)
{
    // Bit-identity: every sample sees exactly step()'s arithmetic,
    // state merely lives in locals for the duration of the block.
    // The ripple is a pure function of the t bits and t advances
    // identically on every path, so this cycle's ripple(t) is last
    // cycle's ripple(t + dt) — cache it and pay one evaluation (one
    // division) per cycle instead of two, the same cache the
    // cross-lane kernel keeps. With no ripple both endpoints are
    // 0.0, vdd + 0.5 * (0.0 + 0.0) == vdd bitwise, and the input
    // terms are step()'s n00*vdd + n01*load unchanged.
    const dsp::RippleOscillator osc = ripple();
    BlockStepper s = cursor();
    double rPrev = osc.at(s.t);
    for (std::size_t j = 0; j < n; ++j) {
        const double rNext = osc.at(s.t + s.dt);
        deviation[j] =
            s.stepWithVddEff(s.vdd + 0.5 * (rPrev + rNext), load[j]);
        rPrev = rNext;
    }
    commit(s);
}

void
SecondOrderPdn::reset(double steadyLoadAmps)
{
    // DC operating point: iL = iLoad; only the series resistance
    // drops voltage at DC.
    iL_ = steadyLoadAmps;
    vC_ = vdd_ - rs_ * steadyLoadAmps;
    vDie_ = vC_;
    time_ = 0.0;
}

Hertz
SecondOrderPdn::resonanceFrequency() const
{
    return Hertz(1.0 / (2.0 * M_PI * std::sqrt(l_ * c_)));
}

} // namespace vsmooth::pdn
