/**
 * @file
 * Tests for the property-based fuzzing layer itself: generator
 * determinism and validity, FuzzConfig JSON round-trips, the property
 * registry, the registered invariants on pinned configs, and the
 * shrinker's minimization behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "simtest/gen.hh"
#include "simtest/properties.hh"
#include "simtest/shrink.hh"

using namespace vsmooth;
using namespace vsmooth::simtest;

TEST(Gen, CombinatorsAreDeterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        const double v = logUniformGen(a, 100.0, 1e6);
        EXPECT_DOUBLE_EQ(v, logUniformGen(b, 100.0, 1e6));
        EXPECT_GE(v, 100.0);
        EXPECT_LT(v, 1e6);
    }

    Rng c(7), d(7);
    const std::vector<std::uint64_t> values{3, 5, 19};
    for (int i = 0; i < 100; ++i) {
        const auto v = elementGen(c, values);
        EXPECT_EQ(v, elementGen(d, values));
        EXPECT_TRUE(v == 3 || v == 5 || v == 19) << v;
    }
}

TEST(Gen, ElementGenReachesEveryValue)
{
    Rng rng(1);
    const std::vector<std::uint64_t> values{2, 4, 6, 8};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(elementGen(rng, values));
    EXPECT_EQ(seen, std::set<std::uint64_t>(values.begin(), values.end()));
}

TEST(FuzzConfigGen, SameSeedSameConfigs)
{
    Rng a(123), b(123);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(fuzzConfigGen(a) == fuzzConfigGen(b)) << "draw " << i;
}

TEST(FuzzConfigGen, EveryDrawIsValid)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const FuzzConfig cfg = fuzzConfigGen(rng);
        std::string why;
        EXPECT_TRUE(cfg.valid(&why)) << why;
        EXPECT_GE(cfg.cores.size(), 1u);
    }
}

TEST(FuzzConfig, JsonRoundTripIsLossless)
{
    Rng rng(99);
    for (int i = 0; i < 50; ++i) {
        const FuzzConfig cfg = fuzzConfigGen(rng);
        for (const bool omitDefaults : {false, true}) {
            FuzzConfig back;
            std::string error;
            ASSERT_TRUE(FuzzConfig::fromJson(cfg.toJson(omitDefaults),
                                             back, &error))
                << error;
            EXPECT_TRUE(back == cfg)
                << "draw " << i << " omitDefaults " << omitDefaults;
        }
    }
}

TEST(FuzzConfig, DefaultConfigSerializesToEmptyObject)
{
    const FuzzConfig def;
    EXPECT_EQ(def.toJson(true).dump(), "{}");

    FuzzConfig back;
    std::string error;
    ASSERT_TRUE(FuzzConfig::fromJson(Json::object(), back, &error))
        << error;
    EXPECT_TRUE(back == def);
}

TEST(FuzzConfig, FromJsonRejectsUnknownAndInvalid)
{
    std::string error;
    FuzzConfig out;

    auto parse = [](const char *text) {
        std::string parseError;
        Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        return j;
    };

    EXPECT_FALSE(
        FuzzConfig::fromJson(parse("{\"cyclez\": 100}"), out, &error));
    EXPECT_NE(error.find("cyclez"), std::string::npos);

    EXPECT_FALSE(
        FuzzConfig::fromJson(parse("{\"cycles\": 0}"), out, &error));

    // Margin without a recovery cost would fatal inside System.
    EXPECT_FALSE(FuzzConfig::fromJson(
        parse("{\"emergencyMargin\": 0.04}"), out, &error));

    // A SIMD level without a backend is rejected, listing the rest.
    EXPECT_FALSE(FuzzConfig::fromJson(
        parse("{\"simdLevel\": \"sse2\"}"), out, &error));
    EXPECT_NE(error.find("scalar, avx2, avx512"), std::string::npos)
        << error;

    // The repro metadata key is tolerated (and ignored).
    EXPECT_TRUE(FuzzConfig::fromJson(
        parse("{\"property\": \"blocked_vs_scalar\"}"), out, &error))
        << error;
}

TEST(FuzzConfig, FromJsonRejectsInexactAndOversizedIntegers)
{
    // Each of these used to be cast from a double: -1 ran as seed
    // 2^64 - 1, 1.5 as seed 1, and the oversized values wrapped
    // modulo 2^32 (benchmark 0, a recovery cost of 1).
    for (const char *text :
         {"{\"seed\": -1}", "{\"seed\": 1.5}",
          "{\"coreBench\": [4294967296]}",
          "{\"recoveryCost\": 4294967297, \"emergencyMargin\": 0.05}",
          "{\"coreBench\": [1], \"coreFlat\": [2]}"}) {
        FuzzConfig out;
        std::string error;
        EXPECT_FALSE(FuzzConfig::fromJson(Json::parse(text), out, &error))
            << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    // Above 2^53 an integer token stays exact, both ways.
    FuzzConfig out;
    std::string error;
    ASSERT_TRUE(FuzzConfig::fromJson(
        Json::parse("{\"seed\": 9007199254740993}"), out, &error))
        << error;
    EXPECT_EQ(out.seed, 9007199254740993ull);
    EXPECT_EQ(out.toJson(true).dump(), "{\"seed\":9007199254740993}");
}

TEST(FuzzConfig, ToJsonPinsKeyOrderAndIntegerTokens)
{
    // Repro files and serve cache keys are this text: its key order
    // and number tokens must not drift.
    FuzzConfig c;
    c.seed = 42;
    c.cycles = 12345;
    c.baseLength = 777;
    c.cores = {{3, false}, {7, true}};
    c.loop = false;
    c.decapFraction = 0.25;
    c.lScale = 1.5;
    c.rScale = 0.75;
    c.rippleFraction = 0.005;
    c.osTickInterval = 9999;
    c.enableTrace = true;
    c.traceCapacity = 100;
    c.enableTimeline = true;
    c.timelineInterval = 501;
    c.emergencyMargin = 0.04;
    c.recoveryCost = 300;
    c.predictor = true;
    c.damper = true;
    c.split = true;
    c.ctrlInitialMargin = 0.07;
    c.ctrlMinMargin = 0.03;
    c.ctrlMaxMargin = 0.125;
    c.ctrlWidenStep = 0.02;
    c.ctrlRecoveryCost = 150;
    c.faultMargin = 0.03;
    c.faultRate = 0.002;
    c.jobs = 3;
    c.laneWidth = 5;
    c.simdLevel = "scalar";
    c.samplingWindow = 4;
    c.samplingStable = 3;
    c.samplingSkip = 32;
    c.samplingGuard = 0.001;
    const std::string full =
        "{\"seed\":42,\"cycles\":12345,\"baseLength\":777,"
        "\"coreBench\":[3,7],\"coreFlat\":[0,1],\"loop\":false,"
        "\"decapFraction\":0.25,\"lScale\":1.5,\"rScale\":0.75,"
        "\"rippleFraction\":0.0050000000000000001,"
        "\"osTickInterval\":9999,\"trace\":true,\"traceCapacity\":100,"
        "\"timeline\":true,\"timelineInterval\":501,"
        "\"emergencyMargin\":0.040000000000000001,\"recoveryCost\":300,"
        "\"predictor\":true,\"damper\":true,\"split\":true,"
        "\"controller\":false,"
        "\"ctrlInitialMargin\":0.070000000000000007,"
        "\"ctrlMinMargin\":0.029999999999999999,"
        "\"ctrlMaxMargin\":0.125,"
        "\"ctrlWidenStep\":0.02,\"ctrlRecoveryCost\":150,"
        "\"faultMargin\":0.029999999999999999,"
        "\"faultRate\":0.002,\"jobs\":3,\"laneWidth\":5,"
        "\"simdLevel\":\"scalar\",\"samplingWindow\":4,"
        "\"samplingStable\":3,\"samplingSkip\":32,"
        "\"samplingGuard\":0.001}";
    EXPECT_EQ(c.toJson().dump(), full);
    // Only the default-valued field drops out.
    std::string omitted = full;
    omitted.erase(omitted.find("\"controller\":false,"),
                  std::string("\"controller\":false,").size());
    EXPECT_EQ(c.toJson(true).dump(), omitted);

    FuzzConfig back;
    std::string error;
    ASSERT_TRUE(FuzzConfig::fromJson(Json::parse(full), back, &error))
        << error;
    EXPECT_TRUE(back == c);
}

TEST(PropertyRegistry, LookupAndUniqueness)
{
    const auto &registry = propertyRegistry();
    ASSERT_GE(registry.size(), 6u);

    std::set<std::string> names;
    for (const Property &p : registry) {
        EXPECT_TRUE(names.insert(p.name).second)
            << "duplicate " << p.name;
        EXPECT_EQ(findProperty(p.name), &p);
        EXPECT_NE(p.summary, nullptr);
    }
    EXPECT_EQ(findProperty("no_such_property"), nullptr);
    EXPECT_NE(findProperty("blocked_vs_scalar"), nullptr);
}

namespace {

/** A small but non-trivial pinned scenario: two cores, odd OS-tick
 *  and timeline boundaries, finite schedules. */
FuzzConfig
pinnedConfig()
{
    FuzzConfig cfg;
    cfg.cycles = 6'000;
    cfg.baseLength = 5'000;
    cfg.cores = {FuzzCore{3, false}, FuzzCore{11, true}};
    cfg.loop = false;
    cfg.decapFraction = 0.25;
    cfg.osTickInterval = 1'861; // deliberately not 256-aligned
    cfg.enableTimeline = true;
    cfg.timelineInterval = 777;
    return cfg;
}

} // namespace

TEST(Properties, AllHoldOnPinnedConfigs)
{
    for (const FuzzConfig &cfg : {FuzzConfig{}, pinnedConfig()}) {
        for (const Property &p : propertyRegistry()) {
            std::string why;
            EXPECT_TRUE(p.check(cfg, &why)) << p.name << ": " << why;
        }
    }
}

TEST(Properties, SummarizeRunIsRepeatable)
{
    const RunSummary a = summarizeRun(pinnedConfig(), false);
    const RunSummary b = summarizeRun(pinnedConfig(), false);
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(firstDifference(a, b).empty());

    // And the scalar path sees the same observables (the
    // blocked_vs_scalar property, spot-checked directly).
    const RunSummary scalar = summarizeRun(pinnedConfig(), true);
    EXPECT_TRUE(firstDifference(a, scalar).empty());
}

namespace {

/** Synthetic property: fails whenever cycles >= 100 (captureless, so
 *  it converts to the registry's function-pointer type). */
bool
holdsBelow100Cycles(const FuzzConfig &cfg, std::string *why)
{
    if (cfg.cycles < 100)
        return true;
    if (why)
        *why = "cycles >= 100";
    return false;
}

} // namespace

TEST(Shrink, MinimizesSyntheticFailure)
{
    // A big, noisy failing config: everything irrelevant to the
    // synthetic predicate must be stripped away.
    FuzzConfig failing = pinnedConfig();
    failing.cycles = 50'000;
    failing.enableTrace = true;
    failing.traceCapacity = 999;
    failing.rippleFraction = 0.0123;
    failing.jobs = 6;
    failing.seed = 424'242;

    const Property synthetic{"synthetic_cycles", "test", "test-only",
                             nullptr, holdsBelow100Cycles};
    ASSERT_FALSE(synthetic.check(failing, nullptr));

    const ShrinkOutcome out = shrinkConfig(failing, synthetic);
    EXPECT_FALSE(synthetic.check(out.config, nullptr));
    EXPECT_GT(out.accepted, 0u);

    // Halving with a floor of 64 cannot land below 100, and anything
    // >= 200 would still shrink further.
    EXPECT_GE(out.config.cycles, 100u);
    EXPECT_LT(out.config.cycles, 200u);
    // Irrelevant structure got dropped to defaults.
    const FuzzConfig def;
    EXPECT_EQ(out.config.cores.size(), 1u);
    EXPECT_FALSE(out.config.enableTrace);
    EXPECT_FALSE(out.config.enableTimeline);
    EXPECT_EQ(out.config.seed, def.seed);
    EXPECT_EQ(out.config.jobs, def.jobs);
    EXPECT_EQ(out.config.rippleFraction, 0.0);

    // The repro document stays replay-friendly: short, and leading
    // with the property name.
    const std::string repro =
        reproJson(out.config, synthetic.name).dump(2);
    EXPECT_LE(std::count(repro.begin(), repro.end(), '\n'), 20);
    EXPECT_EQ(repro.find("{\n  \"property\": \"synthetic_cycles\""), 0u);
}

TEST(Shrink, PassingReductionsAreRejected)
{
    // A property that fails only with >= 2 cores: the shrinker must
    // keep the second core (dropping it would make the config pass).
    const Property needsTwoCores{
        "synthetic_cores", "test", "test-only", nullptr,
        [](const FuzzConfig &cfg, std::string *) {
            return cfg.cores.size() < 2;
        }};
    FuzzConfig failing;
    failing.cores = {FuzzCore{1, false}, FuzzCore{2, false},
                     FuzzCore{3, false}};

    const ShrinkOutcome out = shrinkConfig(failing, needsTwoCores);
    EXPECT_EQ(out.config.cores.size(), 2u);
    EXPECT_FALSE(needsTwoCores.check(out.config, nullptr));
}
