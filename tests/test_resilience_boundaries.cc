/**
 * @file
 * Boundary-condition tests for the mitigation mechanisms: degenerate
 * damper throttle windows, the predictor's saturating confidence
 * counters and history-window edge, detector thresholds hit exactly
 * on the margin, and the detector bank's word path against per-sample
 * feeding.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "noise/droop_detector.hh"
#include "resilience/emergency_predictor.hh"
#include "resilience/resonance_damper.hh"
#include "simd_levels.hh"

using namespace vsmooth;
using namespace vsmooth::resilience;
using namespace vsmooth::noise;
using vsmooth::testing::hostLevels;
using vsmooth::testing::LevelGuard;

namespace {

/** Drive `damper` with `cycles` samples of a resonance-frequency sine
 *  large enough to trigger it. */
void
driveResonance(ResonanceDamper &damper, std::uint32_t cycles,
               double amplitude = 0.05)
{
    const double period = damper.params().resonancePeriodCycles;
    for (std::uint32_t i = 0; i < cycles; ++i)
        damper.feed(amplitude * std::sin(2.0 * M_PI * i / period));
}

/** Every detector's event count, state and deepest event, bit for
 *  bit. */
void
expectBanksIdentical(const DroopDetectorBank &got,
                     const DroopDetectorBank &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const DroopDetector &g = got.detector(i);
        const DroopDetector &w = want.detector(i);
        EXPECT_EQ(g.eventCount(), w.eventCount()) << "detector " << i;
        EXPECT_EQ(g.inEvent(), w.inEvent()) << "detector " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.deepestEvent()),
                  std::bit_cast<std::uint64_t>(w.deepestEvent()))
            << "detector " << i << ": " << g.deepestEvent() << " vs "
            << w.deepestEvent();
    }
}

} // namespace

TEST(ResonanceDamperBoundary, ZeroCycleWindowTriggersButNeverThrottles)
{
    // throttleCycles = 0 is a "detect only" damper: the trigger
    // counter advances but no cycle is ever throttled and feed()
    // never requests a stall.
    ResonanceDamperParams p;
    p.throttleCycles = 0;
    ResonanceDamper damper(p);

    const double period = p.resonancePeriodCycles;
    bool throttled = false;
    for (std::uint32_t i = 0; i < 20 * p.resonancePeriodCycles; ++i)
        throttled |= damper.feed(0.05 * std::sin(2.0 * M_PI * i / period));

    EXPECT_GT(damper.triggers(), 0u);
    EXPECT_EQ(damper.throttledCycles(), 0u);
    EXPECT_FALSE(throttled);
}

TEST(ResonanceDamperBoundary, OneCycleWindowThrottlesExactlyOnePerTrigger)
{
    ResonanceDamperParams p;
    p.throttleCycles = 1;
    ResonanceDamper damper(p);

    driveResonance(damper, 40 * p.resonancePeriodCycles);

    EXPECT_GT(damper.triggers(), 0u);
    EXPECT_EQ(damper.throttledCycles(), damper.triggers());
}

TEST(ResonanceDamperBoundary, QuietInputNeverTriggers)
{
    ResonanceDamper damper;
    for (std::uint32_t i = 0; i < 10'000; ++i)
        EXPECT_FALSE(damper.feed(0.0));
    EXPECT_EQ(damper.triggers(), 0u);
    EXPECT_EQ(damper.throttledCycles(), 0u);
}

TEST(ResonanceDamperDeath, PeriodBelowFourCyclesIsFatal)
{
    ResonanceDamperParams p;
    p.resonancePeriodCycles = 3;
    EXPECT_EXIT(ResonanceDamper{p}, ::testing::ExitedWithCode(1),
                "resonance period");
}

TEST(ResonanceDamperDeath, NonPositiveTriggerAmplitudeIsFatal)
{
    ResonanceDamperParams p;
    p.triggerAmplitude = 0.0;
    EXPECT_EXIT(ResonanceDamper{p}, ::testing::ExitedWithCode(1),
                "trigger amplitude");
}

namespace {

/** Drive the rolling signature to its fixed point: after
 *  `historyLength` identical events the signature no longer changes,
 *  so later observations index the same table entry. */
void
saturateSignature(EmergencyPredictor &p)
{
    for (std::uint32_t i = 0; i < p.params().historyLength; ++i)
        p.observeEvent(0, cpu::StallCause::L2Miss);
}

} // namespace

TEST(EmergencyPredictorBoundary, ConfidenceCountersSaturateAtThree)
{
    // The table stores 2-bit-style saturating counters capped at 3: a
    // threshold above the cap can never be reached, no matter how many
    // emergencies are learned on the same signature.
    EmergencyPredictorParams params;
    params.confidenceThreshold = 4;
    EmergencyPredictor predictor(params);

    saturateSignature(predictor);
    for (int i = 0; i < 100; ++i)
        predictor.observeEmergency();
    EXPECT_EQ(predictor.learned(), 100u);

    // Signature is at its fixed point, so this indexes the learned
    // entry — and must still not fire.
    predictor.observeEvent(0, cpu::StallCause::L2Miss);
    EXPECT_EQ(predictor.predictions(), 0u);
    EXPECT_FALSE(predictor.shouldThrottle());
}

TEST(EmergencyPredictorBoundary, ThresholdAtCapStillFires)
{
    // Threshold 3 == the saturation cap: reachable, fires.
    EmergencyPredictorParams params;
    params.confidenceThreshold = 3;
    EmergencyPredictor predictor(params);

    saturateSignature(predictor);
    for (int i = 0; i < 3; ++i)
        predictor.observeEmergency();

    predictor.observeEvent(0, cpu::StallCause::L2Miss);
    EXPECT_EQ(predictor.predictions(), 1u);

    // The armed window drains one cycle at a time, exactly
    // throttleCycles long.
    std::uint32_t drained = 0;
    while (predictor.shouldThrottle())
        ++drained;
    EXPECT_EQ(drained, params.throttleCycles);
    EXPECT_EQ(predictor.throttledCycles(), params.throttleCycles);
}

TEST(EmergencyPredictorBoundary, WideHistoryWindowUsesFullSignature)
{
    // historyLength = 16 puts the fold window at exactly 64 bits — the
    // "mask everything" branch. The predictor must still learn and
    // fire on a recurring signature.
    EmergencyPredictorParams params;
    params.historyLength = 16;
    EmergencyPredictor predictor(params);

    saturateSignature(predictor);
    predictor.observeEmergency();
    predictor.observeEmergency();

    predictor.observeEvent(0, cpu::StallCause::L2Miss);
    EXPECT_EQ(predictor.predictions(), 1u);
    EXPECT_TRUE(predictor.shouldThrottle());
}

TEST(EmergencyPredictorDeath, BadTableBitsIsFatal)
{
    EmergencyPredictorParams params;
    params.tableBits = 0;
    EXPECT_EXIT(EmergencyPredictor{params},
                ::testing::ExitedWithCode(1), "table bits");
    params.tableBits = 25;
    EXPECT_EXIT(EmergencyPredictor{params},
                ::testing::ExitedWithCode(1), "table bits");
}

TEST(EmergencyPredictorDeath, ZeroHistoryLengthIsFatal)
{
    EmergencyPredictorParams params;
    params.historyLength = 0;
    EXPECT_EXIT(EmergencyPredictor{params},
                ::testing::ExitedWithCode(1), "history length");
}

TEST(DroopDetectorBoundary, DeviationExactlyOnMarginDoesNotTrigger)
{
    // The event condition is strict: deviation < -margin. A sample
    // sitting exactly on the margin is still "inside" — the margin is
    // the last safe level, matching the emergency definition used by
    // the fail-safe.
    DroopDetector d(0.03);
    EXPECT_FALSE(d.feed(-0.03));
    EXPECT_EQ(d.eventCount(), 0u);
    EXPECT_FALSE(d.inEvent());

    // One ulp deeper does trigger.
    EXPECT_TRUE(d.feed(std::nextafter(-0.03, -1.0)));
    EXPECT_EQ(d.eventCount(), 1u);
    EXPECT_TRUE(d.inEvent());
}

TEST(DroopDetectorBoundary, ReleaseLevelIsAlsoStrict)
{
    DroopDetector d(0.03, 0.9);
    ASSERT_TRUE(d.feed(-0.05));

    // Exactly on the release level (-margin * 0.9): still in the
    // event (recovery requires deviation > release).
    EXPECT_FALSE(d.feed(-0.027));
    EXPECT_TRUE(d.inEvent());

    // One ulp above releases, and the event's depth is recorded.
    EXPECT_FALSE(d.feed(std::nextafter(-0.027, 1.0)));
    EXPECT_FALSE(d.inEvent());
    EXPECT_DOUBLE_EQ(d.deepestEvent(), -0.05);
}

TEST(DroopDetectorBankBoundary, ExactMarginLookupAndBlockEquivalence)
{
    const std::vector<double> margins{0.01, 0.02, 0.03};
    const std::vector<double> samples{
        0.0,   -0.02, // exactly on the middle margin: only 0.01 fires
        -0.05, 0.0,   // deep dip: everything fires, then releases
        -0.015,       // between the shallow margins
    };

    DroopDetectorBank bank(margins);
    for (double s : samples)
        bank.feed(s);

    EXPECT_EQ(bank.eventCountForMargin(0.01), 2u);
    EXPECT_EQ(bank.eventCountForMargin(0.02), 1u);
    EXPECT_EQ(bank.eventCountForMargin(0.03), 1u);

    // The block path must agree bit-for-bit, including the
    // exactly-on-margin samples its word masks compare against.
    DroopDetectorBank blockBank(margins);
    blockBank.feedBlock(samples.data(), samples.size());
    expectBanksIdentical(blockBank, bank);
    EXPECT_TRUE(blockBank.detector(0).inEvent());
}

TEST(DroopDetectorBankBoundary, WordBlocksMatchPerSampleFeedAtEveryLevel)
{
    // Random ringing streams, fed to one bank sample by sample and to
    // another in blocks of 1-300 samples (so words straddle block
    // ends, and a block often starts mid-event), at every SIMD level.
    // The streams carry NaNs, samples exactly on a threshold or a
    // release level, and signed zeros (a release factor of 0 puts the
    // release level at -0.0); margins repeat.
    LevelGuard guard;
    const std::vector<double> grid{0.005, 0.01, 0.0125, 0.02, 0.03, 0.045};
    for (const simd::IsaLevel level : hostLevels()) {
        simd::setActiveLevel(level);
        Rng rng(2024);
        for (int trial = 0; trial < 150; ++trial) {
            SCOPED_TRACE(std::string("level ") + simd::levelName(level) +
                         " trial " + std::to_string(trial));
            std::vector<double> margins(rng.uniformInt(1, 8));
            for (double &m : margins)
                m = grid[rng.uniformInt(0, grid.size() - 1)];
            const double releaseFactor =
                trial % 3 == 0 ? 0.0 : (trial % 3 == 1 ? 0.9 : 0.5);
            DroopDetectorBank ref(margins, releaseFactor);
            DroopDetectorBank blocked(margins, releaseFactor);

            // A slow ring, so events last from a few samples to well
            // past one 64-sample word.
            const double period = rng.uniform(8.0, 400.0);
            const double amplitude = rng.uniform(0.01, 0.06);
            double phase = rng.uniform(0.0, 2.0 * M_PI);
            auto sample = [&] {
                phase += 2.0 * M_PI / period;
                const double u = rng.uniform();
                const std::size_t i = rng.uniformInt(0, ref.size() - 1);
                if (u < 0.03)
                    return std::nan("");
                if (u < 0.08)
                    return -ref.marginAt(i);
                if (u < 0.13)
                    return ref.detector(i).releaseLevel();
                if (u < 0.15)
                    return u < 0.14 ? 0.0 : -0.0;
                return amplitude * std::sin(phase) +
                       rng.normal(-0.005, 0.003);
            };

            std::vector<double> block;
            for (int b = 0; b < 12; ++b) {
                block.resize(b % 4 == 3 ? 64 : rng.uniformInt(1, 300));
                for (double &x : block) {
                    x = sample();
                    ref.feed(x);
                }
                blocked.feedBlock(block.data(), block.size());
                expectBanksIdentical(blocked, ref);
            }
            // Per-sample feeding continues from the state the words
            // left, including the depth of an event still open.
            for (int j = 0; j < 300; ++j) {
                const double x = sample();
                ref.feed(x);
                blocked.feed(x);
            }
            expectBanksIdentical(blocked, ref);
        }
    }
}

TEST(DroopDetectorBankDeath, UnconfiguredMarginIsFatal)
{
    DroopDetectorBank bank({0.01, 0.02});
    EXPECT_EXIT(bank.eventCountForMargin(0.05),
                ::testing::ExitedWithCode(1), "not configured");
}
