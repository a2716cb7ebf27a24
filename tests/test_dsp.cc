/**
 * @file
 * Tests for the vsmooth::dsp primitive layer (DESIGN.md §12).
 *
 * The layer's whole contract is *exact* identity: each primitive is
 * the one implementation of a per-cycle recurrence, and every hot
 * path — CurrentModel, SecondOrderPdn, StallEngine, the cross-lane
 * SIMD kernel — must produce bit-for-bit the values the primitive
 * produces. All comparisons here are EXPECT_EQ on doubles (no
 * tolerances), across block sizes with ragged tails and across every
 * SIMD dispatch level the host supports.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "cpu/stall_engine.hh"
#include "dsp/primitives.hh"
#include "pdn/second_order.hh"
#include "power/current_model.hh"
#include "simd_levels.hh"

using namespace vsmooth;

namespace {

/** Deterministic xorshift stream of doubles in [lo, hi). */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : x_(seed | 1) {}

    double next(double lo, double hi)
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        const double u =
            static_cast<double>(x_ >> 11) * 0x1.0p-53; // [0, 1)
        return lo + (hi - lo) * u;
    }

    std::vector<double> block(std::size_t n, double lo, double hi)
    {
        std::vector<double> out(n);
        for (double &v : out)
            v = next(lo, hi);
        return out;
    }

  private:
    std::uint64_t x_;
};

/** Block sizes with ragged tails: single sample, one sim block,
 *  block+1, and a non-aligned prime. */
constexpr std::size_t kBlockSizes[] = {1, 256, 257, 301};

} // namespace

// ---------------------------------------------------------------------
// Free kernels vs the historical spelled-out forms
// ---------------------------------------------------------------------

TEST(Dsp, OnePoleMatchesDivideForm)
{
    // The resonance damper's historical form divided by 256; the
    // primitive multiplies by alpha = 1/256. Powers of two make the
    // two forms bit-identical.
    Stream rng(1);
    dsp::OnePoleSmoother smoother{1.0 / 256.0, 0.0};
    double mean = 0.0;
    for (int i = 0; i < 2'000; ++i) {
        const double x = rng.next(-0.2, 0.2);
        mean += (x - mean) / 256.0;
        EXPECT_EQ(smoother.sample(x), mean);
    }
}

TEST(Dsp, SmoothSlewMatchesCurrentModelCurrentFor)
{
    // The fused chain + activity map must reproduce the per-cycle
    // scalar entry point exactly, for every enable combination.
    const double taus[] = {0.0, 2.0};
    const double slews[] = {0.0, 0.4};
    for (const double tau : taus) {
        for (const double slew : slews) {
            SCOPED_TRACE("tau " + std::to_string(tau) + " slew " +
                         std::to_string(slew));
            power::CurrentModelParams params;
            params.smoothingTauCycles = tau;
            params.maxSlewPerCycle = slew;
            power::CurrentModel model(params);

            auto cur = model.cursor();
            dsp::SmoothSlew chain{cur.tau, cur.alpha, cur.slew,
                                  cur.prev};

            Stream rng(3);
            for (int i = 0; i < 2'000; ++i) {
                const double a = rng.next(-0.1, 1.3);
                EXPECT_EQ(model.currentFor(a),
                          chain.sample(dsp::activityToCurrentSample(
                              a, cur.leak, cur.idleClk, cur.dynMax)));
            }
        }
    }
}

TEST(Dsp, SteadyBlockMatchesActivityMap)
{
    power::CurrentModel model;
    const auto cur = model.cursor();
    Stream rng(5);
    for (const std::size_t n : kBlockSizes) {
        const auto in = rng.block(n, -0.2, 2.8);
        std::vector<double> out(n);
        model.steadyBlock(in.data(), out.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(out[j], dsp::activityToCurrentSample(
                                  in[j], cur.leak, cur.idleClk, cur.dynMax))
                << "sample " << j;
        }
    }
}

TEST(Dsp, ProcessSumColumnsMatchesSequentialChains)
{
    // The lockstep K-chain sum must equal stepping the same chains
    // one sample at a time and summing in chain order.
    Stream rng(6);
    constexpr std::size_t kN = 301;
    const auto in0 = rng.block(kN, 3.0, 9.0);
    const auto in1 = rng.block(kN, 3.0, 9.0);

    dsp::SmoothSlew chains[2] = {{2.0, 1.0 / 3.0, 0.4, 5.0},
                                 {2.0, 1.0 / 3.0, 0.4, 6.0}};
    dsp::SmoothSlew refs[2] = {chains[0], chains[1]};

    std::vector<double> total(kN);
    const double *const cols[2] = {in0.data(), in1.data()};
    dsp::processSumColumns(chains, cols, total.data(), kN);

    for (std::size_t j = 0; j < kN; ++j) {
        double expected = 0.0;
        expected += refs[0].sample(in0[j]);
        expected += refs[1].sample(in1[j]);
        EXPECT_EQ(total[j], expected) << "sample " << j;
    }
    EXPECT_EQ(chains[0].prev, refs[0].prev);
    EXPECT_EQ(chains[1].prev, refs[1].prev);
}

TEST(Dsp, RippleSingleDivisionMatchesTwoDivisionForm)
{
    // The primitive computes q = t/T once and reuses it for the
    // floor; the historical form divided twice. Same operand bits in,
    // same operation, same bits out.
    const dsp::RippleOscillator osc{0.011, 1e-6};
    Stream rng(8);
    for (int i = 0; i < 5'000; ++i) {
        const double t = rng.next(0.0, 1e-3);
        const double phase = t / 1e-6 - std::floor(t / 1e-6);
        const double tri = phase < 0.5 ? (1.0 - 4.0 * phase)
                                       : (4.0 * phase - 3.0);
        EXPECT_EQ(osc.at(t), 0.011 * tri);
    }
}

TEST(Dsp, PdnStepBlockMatchesStepLoopWithRipple)
{
    // The block path's cached-ripple optimization (one oscillator
    // evaluation per cycle instead of two) must stay bit-identical to
    // per-cycle stepping, for blocks longer than a sim block and
    // ragged tails.
    for (const std::size_t n : {std::size_t{1}, std::size_t{256},
                                std::size_t{257}, std::size_t{301},
                                std::size_t{1'000}}) {
        pdn::PackageConfig cfg; // default rippleFraction = 0.009
        ASSERT_GT(cfg.rippleFraction, 0.0);
        pdn::SecondOrderPdn blocked(cfg, Seconds(1.0 / 1.86e9));
        pdn::SecondOrderPdn serial(cfg, Seconds(1.0 / 1.86e9));
        blocked.reset(15.0);
        serial.reset(15.0);

        Stream rng(9);
        const auto load = rng.block(n, 5.0, 45.0);
        std::vector<double> dev(n);
        blocked.stepBlock(load.data(), dev.data(), n);

        for (std::size_t j = 0; j < n; ++j) {
            serial.step(load[j]);
            EXPECT_EQ(dev[j], serial.voltageDeviation())
                << "n " << n << " sample " << j;
        }
        EXPECT_EQ(blocked.voltage(), serial.voltage());
        EXPECT_EQ(blocked.inductorCurrent(), serial.inductorCurrent());
        EXPECT_EQ(blocked.time().value(), serial.time().value());
    }
}

TEST(Dsp, PdnStepBlockMatchesStepLoopWithoutRipple)
{
    // The same cached-ripple loop with a zero amplitude: both ripple
    // endpoints are 0.0, so vddEff is vdd bitwise, as in step().
    for (const std::size_t n : {std::size_t{1}, std::size_t{256},
                                std::size_t{257}, std::size_t{301},
                                std::size_t{1'000}}) {
        pdn::PackageConfig cfg;
        cfg.rippleFraction = 0.0;
        pdn::SecondOrderPdn blocked(cfg, Seconds(1.0 / 1.86e9));
        pdn::SecondOrderPdn serial(cfg, Seconds(1.0 / 1.86e9));

        Stream rng(10);
        const auto load = rng.block(n, 5.0, 45.0);
        std::vector<double> dev(n);
        blocked.stepBlock(load.data(), dev.data(), n);

        for (std::size_t j = 0; j < n; ++j) {
            serial.step(load[j]);
            EXPECT_EQ(dev[j], serial.voltageDeviation())
                << "n " << n << " sample " << j;
        }
        EXPECT_EQ(blocked.voltage(), serial.voltage());
        EXPECT_EQ(blocked.inductorCurrent(), serial.inductorCurrent());
        EXPECT_EQ(blocked.time().value(), serial.time().value());
    }
}

TEST(Dsp, LinearRampMatchesStallEngineRampDown)
{
    cpu::StallEngine engine(0.9);
    cpu::PerfCounters ctr;
    cpu::EventTiming timing;
    timing.rampDownCycles = 7;
    timing.stallCycles = 3;
    timing.stallActivity = 0.05;
    engine.beginEvent(cpu::StallCause::L2Miss, timing);

    // remaining runs total, total-1, ..., 1 over the ramp cycles.
    for (std::uint32_t remaining = 7; remaining > 0; --remaining) {
        ASSERT_EQ(engine.state(), cpu::EngineState::RampDown);
        EXPECT_EQ(engine.tick(ctr),
                  dsp::linearRampAt(remaining, 7, 0.9, 0.05))
            << "remaining " << remaining;
    }
    EXPECT_EQ(engine.state(), cpu::EngineState::Stalled);
}

TEST(Dsp, StateSaveRestoreRoundTripsExactly)
{
    // Copying a primitive snapshots the stream: replaying the same
    // inputs from a saved copy reproduces identical bits.
    Stream rng(12);
    const auto warm = rng.block(100, 2.0, 10.0);
    const auto tail = rng.block(50, 2.0, 10.0);

    dsp::SmoothSlew chain{2.0, 1.0 / 3.0, 0.4, 4.0};
    dsp::OnePoleSmoother pole{1.0 / 256.0, 0.0};
    pdn::SecondOrderPdn pdn(pdn::PackageConfig{}, Seconds(1.0 / 1.86e9));
    pdn.reset(20.0);
    auto biquad = pdn.cursor();
    const double vddEff = biquad.vdd * 1.001;

    for (const double x : warm) {
        chain.sample(x);
        pole.sample(x);
        biquad.stepWithVddEff(vddEff, 4.0 * x);
    }

    const dsp::SmoothSlew chainSaved = chain;
    const dsp::OnePoleSmoother poleSaved = pole;
    const auto biquadSaved = biquad;

    std::vector<double> first(tail.size()), replay(tail.size());
    auto runTail = [&](std::vector<double> &out) {
        for (std::size_t j = 0; j < tail.size(); ++j) {
            out[j] = chain.sample(tail[j]) + pole.sample(tail[j]) +
                     biquad.stepWithVddEff(vddEff, 4.0 * tail[j]);
        }
    };
    runTail(first);
    chain = chainSaved;
    pole = poleSaved;
    biquad = biquadSaved;
    runTail(replay);

    for (std::size_t j = 0; j < tail.size(); ++j)
        EXPECT_EQ(first[j], replay[j]) << "sample " << j;
}

// ---------------------------------------------------------------------
// constexpr smoke: the kernels evaluate at compile time
// ---------------------------------------------------------------------

namespace {

constexpr double
constexprOnePole()
{
    double prev = 0.0;
    dsp::onePoleSample(prev, 1.0, 0.5);
    dsp::onePoleSample(prev, 1.0, 0.5);
    return prev;
}
static_assert(constexprOnePole() == 0.75);

constexpr double
constexprChain()
{
    dsp::SmoothSlew chains[1] = {{2.0, 1.0 / 3.0, 0.25, 0.0}};
    const double in[3] = {3.0, 3.0, 3.0};
    const double *const cols[1] = {in};
    double out[3] = {};
    dsp::processSumColumns(chains, cols, out, 3);
    return out[2];
}
static_assert(constexprChain() == 0.75); // slew-limited: 3 * 0.25

constexpr double
constexprBiquad()
{
    // Identity state matrix, zero input matrix: state holds, vDie
    // taps vC + rc * (iL - load).
    double iL = 2.0, vC = 1.0, vDie = 0.0;
    return dsp::biquadSample(iL, vC, vDie, 1.0, 0.0, 0.0, 1.0, 0.0,
                             0.0, 2.0, 0.5, 1.0);
}
static_assert(constexprBiquad() == 0.0); // vDie == vC == 1, 1*1 - 1

static_assert(dsp::linearRampAt(4, 4, 1.0, 0.0) == 0.8);
static_assert(dsp::activityToCurrentSample(0.0, 3.0, 1.5, 4.2) ==
              3.0 + 1.5 * 0.25);

} // namespace

// ---------------------------------------------------------------------
// Cross-lane kernel: every host SIMD level, every lane count, against
// the scalar dsp primitives
// ---------------------------------------------------------------------

namespace {

using vsmooth::testing::hostLevels;
using vsmooth::testing::LevelGuard;

/** All heap-side storage for one synthetic LaneStepArgs block. */
struct LaneFixture
{
    static constexpr std::size_t kCores = 2;
    static constexpr std::size_t kStride = simd::kMaxLanes;

    std::size_t n;
    std::size_t lanes;
    std::vector<double> steady; // [core][laneColumn][cycle]
    std::vector<double> total;
    std::vector<double> deviation;
    simd::LaneStepArgs args;

    LaneFixture(std::size_t cycles, std::size_t laneCount)
        : n(cycles),
          lanes(laneCount),
          steady(kCores * kStride * cycles),
          total(kStride * cycles),
          deviation(kStride * cycles)
    {
        Stream rng(77);
        for (double &v : steady)
            v = rng.next(4.0, 10.0);

        args.n = n;
        args.lanes = lanes;
        args.stride = kStride; // multiple of every vector width
        args.cores = kCores;
        for (std::size_t l = 0; l < kStride; ++l) {
            for (std::size_t c = 0; c < kCores; ++c)
                args.steady[c][l] =
                    steady.data() + (c * kStride + l) * n;
            args.total[l] = total.data() + l * n;
            args.deviation[l] = deviation.data() + l * n;
            args.ripplePeriod[l] = 1.0; // benign for pad lanes
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            const double s = static_cast<double>(l);
            args.tau[l] = (l % 2 == 0) ? 2.0 : 0.0;
            args.alpha[l] = 1.0 / (1.0 + args.tau[l]);
            args.slew[l] = (l % 3 == 0) ? 0.4 : 0.0;
            for (std::size_t c = 0; c < kCores; ++c)
                args.prev[c][l] = 5.0 + 0.25 * s;
            // A lightly damped but stable 2x2 update with small
            // input terms — representative magnitudes, exact values
            // irrelevant (both sides run the same arithmetic).
            args.m00[l] = 0.995 - 0.001 * s;
            args.m01[l] = -0.012;
            args.m10[l] = 0.018;
            args.m11[l] = 0.993 + 0.0005 * s;
            args.n00[l] = 0.006;
            args.n01[l] = 0.0004;
            args.n10[l] = 0.0002;
            args.n11[l] = -0.008;
            args.vdd[l] = 1.15;
            args.invVdd[l] = 1.0 / 1.15;
            args.rcDamp[l] = 0.0012;
            args.dtStep[l] = 1.0 / 1.86e9;
            args.rippleAmp[l] = (l % 2 == 0) ? 0.009 * 1.15 : 0.0;
            args.ripplePeriod[l] = 1e-6;
            args.iL[l] = 20.0 + s;
            args.vC[l] = 1.14;
            args.vDie[l] = 1.14;
            args.tTime[l] = 1.0e-7 * s;
        }
    }
};

/** The scalar dsp reference for one fixture: per lane, the smoothing
 *  chains summed in core order, the cached-ripple trapezoidal drive,
 *  and the biquad recurrence. */
void
referenceLaneStep(const LaneFixture &fx, std::vector<double> &total,
                  std::vector<double> &deviation,
                  simd::LaneStepArgs &state)
{
    for (std::size_t l = 0; l < fx.lanes; ++l) {
        dsp::SmoothSlew chains[LaneFixture::kCores];
        for (std::size_t c = 0; c < LaneFixture::kCores; ++c)
            chains[c] = dsp::SmoothSlew{state.tau[l], state.alpha[l],
                                        state.slew[l],
                                        state.prev[c][l]};
        const dsp::RippleOscillator osc{state.rippleAmp[l],
                                        state.ripplePeriod[l]};
        double iL = state.iL[l];
        double vC = state.vC[l];
        double vDie = state.vDie[l];
        double t = state.tTime[l];
        const double dt = state.dtStep[l];
        // LaneRipple::at has no zero-amp gate (amp * tri is ±0 for
        // pad-free zero-amp lanes), so mirror its raw arithmetic.
        const double q0 = t / osc.period;
        const double ph0 = q0 - std::floor(q0);
        const double tri0 = ph0 < 0.5 ? (1.0 - 4.0 * ph0)
                                      : (4.0 * ph0 - 3.0);
        double rPrev = osc.amp * tri0;
        for (std::size_t j = 0; j < fx.n; ++j) {
            double sum = 0.0;
            for (std::size_t c = 0; c < LaneFixture::kCores; ++c)
                sum = sum +
                      chains[c].sample(fx.args.steady[c][l][j]);
            const double tNext = t + dt;
            const double q = tNext / osc.period;
            const double ph = q - std::floor(q);
            const double tri = ph < 0.5 ? (1.0 - 4.0 * ph)
                                        : (4.0 * ph - 3.0);
            const double rNext = osc.amp * tri;
            const double vddEff =
                state.vdd[l] + 0.5 * (rPrev + rNext);
            deviation[l * fx.n + j] = dsp::biquadSample(
                iL, vC, vDie, state.m00[l], state.m01[l],
                state.m10[l], state.m11[l],
                dsp::biquadInput(state.n00[l], vddEff, state.n01[l],
                                 sum),
                dsp::biquadInput(state.n10[l], vddEff, state.n11[l],
                                 sum),
                sum, state.rcDamp[l], state.invVdd[l]);
            total[l * fx.n + j] = sum;
            t = tNext;
            rPrev = rNext;
        }
        for (std::size_t c = 0; c < LaneFixture::kCores; ++c)
            state.prev[c][l] = chains[c].prev;
        state.iL[l] = iL;
        state.vC[l] = vC;
        state.vDie[l] = vDie;
        state.tTime[l] = t;
    }
}

} // namespace

TEST(Dsp, LaneStepKernelMatchesScalarPrimitivesAtEveryLevel)
{
    LevelGuard guard;
    for (const simd::IsaLevel level : hostLevels()) {
        const simd::LaneStepFn step = simd::kernelsFor(level).laneStep;
        // 9 leaves seven pad lanes in the second 8-wide vector; 16
        // fills the widened LaneGroup ceiling exactly.
        for (const std::size_t lanes :
             {std::size_t{1}, std::size_t{4}, std::size_t{8},
              std::size_t{9}, std::size_t{16}}) {
            SCOPED_TRACE(std::string("level ") +
                         simd::levelName(level) + " lanes " +
                         std::to_string(lanes));
            LaneFixture fx(301, lanes);

            // Reference from the same initial state.
            simd::LaneStepArgs ref = fx.args;
            std::vector<double> refTotal(lanes * fx.n);
            std::vector<double> refDev(lanes * fx.n);
            referenceLaneStep(fx, refTotal, refDev, ref);

            step(fx.args);

            for (std::size_t l = 0; l < lanes; ++l) {
                for (std::size_t j = 0; j < fx.n; ++j) {
                    EXPECT_EQ(fx.args.total[l][j],
                              refTotal[l * fx.n + j])
                        << "lane " << l << " cycle " << j;
                    EXPECT_EQ(fx.args.deviation[l][j],
                              refDev[l * fx.n + j])
                        << "lane " << l << " cycle " << j;
                }
                for (std::size_t c = 0; c < LaneFixture::kCores; ++c)
                    EXPECT_EQ(fx.args.prev[c][l], ref.prev[c][l]);
                EXPECT_EQ(fx.args.iL[l], ref.iL[l]) << "lane " << l;
                EXPECT_EQ(fx.args.vC[l], ref.vC[l]) << "lane " << l;
                EXPECT_EQ(fx.args.vDie[l], ref.vDie[l])
                    << "lane " << l;
                EXPECT_EQ(fx.args.tTime[l], ref.tTime[l])
                    << "lane " << l;
            }
        }
    }
}

TEST(Dsp, BlockKernelsMatchScalarReferenceAtEveryLevel)
{
    // Every level registers all five kernels, and the four helper
    // kernels reproduce their per-sample references bit-for-bit on
    // every element: the steady map and the bin classification across
    // clamp edges, out-of-range sentinels and ragged tails, the droop
    // word masks and masked minimum across NaN samples, ±0, ragged
    // words and full and sparse masks. Inputs sit in vectors of
    // exactly n elements, so a read past the end shows under ASan.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (const simd::IsaLevel level : hostLevels()) {
        const simd::KernelSet &ks = simd::kernelsFor(level);
        SCOPED_TRACE(std::string("level ") + simd::levelName(level));
        ASSERT_NE(ks.laneStep, nullptr);
        ASSERT_NE(ks.steady, nullptr);
        ASSERT_NE(ks.binIndex, nullptr);
        ASSERT_NE(ks.detectMasks, nullptr);
        ASSERT_NE(ks.maskedMin, nullptr);
        Stream rng(88);
        for (const std::size_t n : kBlockSizes) {
            auto in = rng.block(n, -0.5, 3.0);
            if (n > 2)
                in[n / 2] = -0.0;
            std::vector<double> out(n);
            ks.steady(3.0, 1.5, 4.2, in.data(), out.data(), n);
            for (std::size_t j = 0; j < n; ++j) {
                EXPECT_EQ(out[j], dsp::activityToCurrentSample(
                                      in[j], 3.0, 1.5, 4.2))
                    << "sample " << j;
            }
            ks.steady(3.0, 1.5, 4.2, in.data(), in.data(), n);
            EXPECT_EQ(in, out) << "in place";

            // Range chosen so the stream strays below lo and at or
            // above hi, exercising both sentinels.
            const double lo = 0.0, hi = 1.0;
            const double invWidth = 32.0; // 32 bins
            const std::uint32_t last = 31;
            const auto xs = rng.block(n, -0.25, 1.25);
            std::vector<std::uint32_t> idx(n, 7u);
            ks.binIndex(xs.data(), n, lo, hi, invWidth, last, idx.data());
            for (std::size_t j = 0; j < n; ++j) {
                std::uint32_t want;
                if (xs[j] < lo) {
                    want = simd::kBinUnderflow;
                } else if (xs[j] >= hi) {
                    want = simd::kBinOverflow;
                } else {
                    const auto raw = static_cast<std::uint32_t>(
                        (xs[j] - lo) * invWidth);
                    want = raw < last ? raw : last;
                }
                EXPECT_EQ(idx[j], want) << "sample " << j;
            }
        }

        // Droop-detector words. The zero threshold and release make
        // the signs of ±0 samples matter, and the positive threshold
        // would enter on any lane past n; NaN never enters and always
        // keeps.
        const double thresholds[] = {-0.03, -0.02, 0.0, 0.01};
        const double releases[] = {-0.027, -0.018, -0.0, 0.02};
        constexpr std::size_t kCount = std::size(thresholds);
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{7}, std::size_t{63},
              std::size_t{64}}) {
            SCOPED_TRACE("word of " + std::to_string(n));
            auto xs = rng.block(n, -0.04, 0.01);
            for (std::size_t j = 0; j < n; ++j) {
                if (j % 5 == 1)
                    xs[j] = kNaN;
                else if (j % 7 == 2)
                    xs[j] = j % 2 ? -0.0 : 0.0;
            }
            std::uint64_t enter[kCount], keep[kCount];
            ks.detectMasks(xs.data(), n, thresholds, releases, kCount,
                           enter, keep);
            for (std::size_t i = 0; i < kCount; ++i) {
                for (std::size_t j = 0; j < simd::kWordSamples; ++j) {
                    const bool e = j < n && xs[j] < thresholds[i];
                    const bool k = j < n && !(xs[j] > releases[i]);
                    EXPECT_EQ((enter[i] >> j) & 1, std::uint64_t{e})
                        << "detector " << i << " sample " << j;
                    EXPECT_EQ((keep[i] >> j) & 1, std::uint64_t{k})
                        << "detector " << i << " sample " << j;
                }
            }

            const std::uint64_t full =
                n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
            std::uint64_t nanOnly = 0;
            for (std::size_t j = 0; j < n; ++j)
                nanOnly |= std::uint64_t{xs[j] != xs[j]} << j;
            for (const std::uint64_t mask :
                 {full, full & 0x9249249249249249u, full & 0x8001u,
                  std::uint64_t{1} << (n - 1), nanOnly,
                  std::uint64_t{0}}) {
                double want = std::numeric_limits<double>::infinity();
                for (std::size_t j = 0; j < n; ++j) {
                    if ((mask >> j) & 1)
                        want = xs[j] < want ? xs[j] : want;
                }
                EXPECT_EQ(ks.maskedMin(xs.data(), n, mask), want)
                    << "mask " << mask;
            }
        }
    }
}
