#include "gen.hh"

#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/simd.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::simtest {

double
logUniformGen(Rng &rng, double lo, double hi)
{
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

namespace {

/** Hard validity bounds (generator range and fromJson acceptance). */
constexpr std::size_t kMaxCores = 8;
constexpr Cycles kMaxCycles = 2'000'000;

/**
 * Every FuzzConfig field except `cores`, in serialization order, as
 * visit(key, member, lo, hi): the JSON key, a pointer to the member,
 * and the member's closed valid range (bools span [false, true];
 * simdLevel's names are checked by valid()). valid(), toJson() and
 * fromJson() all walk this one list.
 */
template <typename Visit>
void
forEachField(Visit &&visit)
{
    auto field = [&]<typename T>(const char *key, T FuzzConfig::*member,
                                 std::type_identity_t<T> lo,
                                 std::type_identity_t<T> hi) {
        visit(key, member, lo, hi);
    };
    // The smallest positive double: [kPositive, hi] is (0, hi].
    constexpr double kPositive = std::numeric_limits<double>::denorm_min();
    constexpr std::uint32_t kU32Max =
        std::numeric_limits<std::uint32_t>::max();
    using C = FuzzConfig;
    field("seed", &C::seed, 0, std::numeric_limits<std::uint64_t>::max());
    field("cycles", &C::cycles, 1, kMaxCycles);
    field("baseLength", &C::baseLength, 1, kMaxCycles);
    field("loop", &C::loop, false, true);
    field("decapFraction", &C::decapFraction, 0.0, 1.0);
    field("lScale", &C::lScale, kPositive, 16.0);
    field("rScale", &C::rScale, kPositive, 16.0);
    field("rippleFraction", &C::rippleFraction, 0.0, 0.05);
    field("osTickInterval", &C::osTickInterval, 0, kMaxCycles);
    field("trace", &C::enableTrace, false, true);
    field("traceCapacity", &C::traceCapacity, 1, 1u << 20);
    field("timeline", &C::enableTimeline, false, true);
    field("timelineInterval", &C::timelineInterval, 1, kMaxCycles);
    field("emergencyMargin", &C::emergencyMargin, 0.0, 0.25);
    field("recoveryCost", &C::recoveryCost, 0, kU32Max);
    field("predictor", &C::predictor, false, true);
    field("damper", &C::damper, false, true);
    field("split", &C::split, false, true);
    field("controller", &C::controller, false, true);
    field("ctrlInitialMargin", &C::ctrlInitialMargin, 0.0, 0.25);
    field("ctrlMinMargin", &C::ctrlMinMargin, 0.0, 0.25);
    field("ctrlMaxMargin", &C::ctrlMaxMargin, 0.0, 0.25);
    field("ctrlWidenStep", &C::ctrlWidenStep, 0.0, 0.1);
    field("ctrlRecoveryCost", &C::ctrlRecoveryCost, 0, kU32Max);
    field("faultMargin", &C::faultMargin, 0.0, 0.25);
    field("faultRate", &C::faultRate, 0.0, 1.0);
    field("jobs", &C::jobs, 1, 64);
    field("laneWidth", &C::laneWidth, 0,
          static_cast<std::uint32_t>(simd::kMaxLanes));
    field("simdLevel", &C::simdLevel, "", "");
    field("samplingWindow", &C::samplingWindow, 1, 64);
    field("samplingStable", &C::samplingStable, 1, 16);
    field("samplingSkip", &C::samplingSkip, 1, 1024);
    field("samplingGuard", &C::samplingGuard, 0.0, 0.05);
}

/** A member as JSON; every integer width writes an integer token. */
template <typename T>
Json
jsonOf(const T &v)
{
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
        return Json(static_cast<std::uint64_t>(v));
    else
        return Json(v);
}

/**
 * Read `v` into a config member. Integers must be exact and fit the
 * member: a negative, fractional or oversized value is rejected, never
 * cast. Returns "" on success, else what the value should have been.
 */
template <typename T>
std::string
readField(const Json &v, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return "a bool";
        out = v.asBool();
    } else if constexpr (std::is_same_v<T, double>) {
        if (!v.isNumber())
            return "a number";
        out = v.asNumber();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return "a string";
        out = v.asString();
    } else {
        constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
        std::uint64_t u = 0;
        if (!v.exactUint64(&u) || u > kMax)
            return "an integer in [0, " + std::to_string(kMax) + "]";
        out = static_cast<T>(u);
    }
    return "";
}

/** Set coreBench, and coreFlat unless omitDefaults and no core is
 *  flat, from `cores`. */
void
setCores(Json &j, const std::vector<FuzzCore> &cores, bool omitDefaults)
{
    Json bench = Json::array(), flat = Json::array();
    bool anyFlat = false;
    for (const FuzzCore &c : cores) {
        bench.push(jsonOf(c.bench));
        flat.push(Json(c.flat ? 1 : 0));
        anyFlat = anyFlat || c.flat;
    }
    j.set("coreBench", std::move(bench));
    if (!omitDefaults || anyFlat)
        j.set("coreFlat", std::move(flat));
}

} // namespace

bool
FuzzConfig::valid(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    const std::size_t nBench = workload::specCpu2006().size();
    if (cores.empty() || cores.size() > kMaxCores)
        return fail("cores must have 1.." + std::to_string(kMaxCores) +
                    " entries");
    for (const FuzzCore &c : cores) {
        if (c.bench >= nBench)
            return fail("core bench index " + std::to_string(c.bench) +
                        " out of range [0, " + std::to_string(nBench) +
                        ")");
    }
    std::ostringstream outside;
    forEachField([&](const char *key, auto member, auto lo, auto hi) {
        if constexpr (std::is_arithmetic_v<decltype(lo)>) {
            // Negated so a NaN double is out of range too.
            if (outside.tellp() == 0 &&
                !(this->*member >= lo && this->*member <= hi))
                outside << key << " outside [" << lo << ", " << hi << "]";
        }
    });
    if (outside.tellp() != 0)
        return fail(outside.str());
    if (emergencyMargin > 0.0 && recoveryCost == 0)
        return fail("emergencyMargin > 0 requires recoveryCost >= 1");
    if (controller && emergencyMargin > 0.0)
        return fail("controller and emergencyMargin are mutually "
                    "exclusive");
    if (controller && ctrlRecoveryCost == 0)
        return fail("controller requires ctrlRecoveryCost >= 1");
    if (!(ctrlMinMargin > 0.0 && ctrlMinMargin <= ctrlInitialMargin &&
          ctrlInitialMargin <= ctrlMaxMargin))
        return fail("need 0 < ctrlMinMargin <= ctrlInitialMargin <= "
                    "ctrlMaxMargin <= 0.25");
    if (simdLevel != "" && simdLevel != "scalar" &&
        simdLevel != "avx2" && simdLevel != "avx512")
        return fail("simdLevel must be one of \"\", scalar, avx2, "
                    "avx512");
    return true;
}

Json
FuzzConfig::toJson(bool omitDefaults) const
{
    const FuzzConfig def;
    Json j = Json::object();
    forEachField([&](const char *key, auto member, auto, auto) {
        if (!omitDefaults || this->*member != def.*member)
            j.set(key, jsonOf(this->*member));
        // The cores follow baseLength in the serialized order.
        if (std::string_view(key) == "baseLength" &&
            (!omitDefaults || cores != def.cores))
            setCores(j, cores, omitDefaults);
    });
    return j;
}

bool
FuzzConfig::fromJson(const Json &j, FuzzConfig &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!j.isObject())
        return fail("fuzz config is not a JSON object");
    out = FuzzConfig{};

    std::vector<std::uint32_t> benches, flats;
    for (const auto &[key, v] : j.asObject()) {
        if (key == "property" || key == "note") {
            // Repro metadata, consumed by the fuzz driver.
            continue;
        }
        if (key == "coreBench" || key == "coreFlat") {
            const bool isFlat = key == "coreFlat";
            if (!v.isArray())
                return fail("'" + key + "' is not an array");
            for (const Json &e : v.asArray()) {
                std::uint32_t value = 0;
                std::string expected = readField(e, value);
                if (isFlat && (!expected.empty() || value > 1))
                    expected = "0 or 1";
                if (!expected.empty())
                    return fail("'" + key + "' has an element that is "
                                "not " + expected);
                (isFlat ? flats : benches).push_back(value);
            }
            continue;
        }
        bool known = false;
        std::string expected;
        forEachField([&](const char *k, auto member, auto, auto) {
            if (key == k) {
                known = true;
                expected = readField(v, out.*member);
            }
        });
        if (!known)
            return fail("unknown field '" + key + "'");
        if (!expected.empty())
            return fail("field '" + key + "' is not " + expected);
    }
    if (!benches.empty()) {
        if (!flats.empty() && flats.size() != benches.size())
            return fail("coreFlat length does not match coreBench");
        out.cores.clear();
        for (std::size_t i = 0; i < benches.size(); ++i)
            out.cores.push_back({benches[i], !flats.empty() && flats[i]});
    } else if (!flats.empty()) {
        return fail("coreFlat given without coreBench");
    }
    std::string why;
    if (!out.valid(&why))
        return fail(why);
    return true;
}

FuzzConfig
fuzzConfigGen(Rng &rng)
{
    const std::size_t nBench = workload::specCpu2006().size();
    FuzzConfig cfg;
    cfg.seed = rng.uniformInt(1, 1u << 30);
    // Log-uniform run lengths: short runs dominate (throughput),
    // but every decade up to ~60k cycles appears. baseLength is
    // drawn separately so phase boundaries land at arbitrary
    // offsets relative to both the run end and the block grid.
    cfg.cycles = static_cast<Cycles>(logUniformGen(rng, 2'000.0, 60'000.0));
    cfg.baseLength =
        static_cast<Cycles>(logUniformGen(rng, 1'000.0, 80'000.0));
    const std::size_t nCores = static_cast<std::size_t>(
        elementGen<std::uint64_t>(rng, {1, 1, 2, 2, 2, 3, 4}));
    cfg.cores.clear();
    for (std::size_t i = 0; i < nCores; ++i) {
        cfg.cores.push_back(
            {static_cast<std::uint32_t>(rng.uniformInt(0, nBench - 1)),
             rng.bernoulli(0.1)});
    }
    cfg.loop = rng.bernoulli(0.7);

    // PDN: the ProcN decap ladder plus continuous fractions, and
    // L/R scales that keep the tank resonance inside (roughly)
    // the measured 100-200 MHz band.
    cfg.decapFraction = rng.bernoulli(0.4)
        ? elementGen<double>(rng, {1.0, 0.25, 0.03, 0.0})
        : rng.uniform(0.0, 1.0);
    cfg.lScale = rng.uniform(0.5, 2.0);
    cfg.rScale = rng.uniform(0.5, 2.0);
    // Exact 0.0 carries real weight: it exercises the zero-ripple
    // short-circuits (step()'s vddEff, the zero-amplitude ripple
    // in stepBlock's cached loop and the lane kernel), which a
    // continuous draw would hit with probability zero.
    cfg.rippleFraction = rng.bernoulli(0.6)
        ? elementGen<double>(rng, {0.0, 0.0, 0.009})
        : rng.uniform(0.0, 0.02);

    // Periodic boundaries at arbitrary offsets — the point of the
    // fuzzer is that nothing here is 256-aligned by construction.
    cfg.osTickInterval = rng.bernoulli(0.2)
        ? 0
        : static_cast<Cycles>(rng.uniformInt(500, 50'000));
    cfg.enableTrace = rng.bernoulli(0.3);
    cfg.traceCapacity = rng.uniformInt(16, 8192);
    cfg.enableTimeline = rng.bernoulli(0.3);
    cfg.timelineInterval = rng.uniformInt(500, 30'000);

    // Mitigations and the fail-safe force the scalar path; they
    // appear with low probability so most draws exercise the
    // blocked pipeline, but the scalar-only machinery still gets
    // randomized coverage.
    if (rng.bernoulli(0.15)) {
        cfg.emergencyMargin = rng.uniform(0.02, 0.08);
        cfg.recoveryCost = static_cast<std::uint32_t>(
            rng.uniformInt(1, 2'000));
    }
    cfg.predictor = rng.bernoulli(0.1);
    cfg.damper = rng.bernoulli(0.1);
    cfg.split = rng.bernoulli(0.1);

    // The adaptive margin controller also forces the scalar path;
    // it cannot coexist with the fixed fail-safe (one margin
    // authority), so it only arms on droop-free draws.
    if (!(cfg.emergencyMargin > 0.0) && rng.bernoulli(0.12)) {
        cfg.controller = true;
        cfg.ctrlMinMargin = rng.uniform(0.01, 0.04);
        cfg.ctrlMaxMargin =
            cfg.ctrlMinMargin + rng.uniform(0.02, 0.12);
        cfg.ctrlInitialMargin =
            rng.uniform(cfg.ctrlMinMargin, cfg.ctrlMaxMargin);
        cfg.ctrlWidenStep = rng.bernoulli(0.2)
            ? 0.0
            : rng.uniform(0.002, 0.03);
        cfg.ctrlRecoveryCost = static_cast<std::uint32_t>(
            rng.uniformInt(1, 2'000));
    }

    // Undervolt fault model: the exact safe margin (zero faults)
    // keeps real weight, the rest of the draws thin the margin so
    // the fault paths see traffic.
    cfg.faultMargin = rng.bernoulli(0.4)
        ? 0.05
        : rng.uniform(0.0, 0.06);
    cfg.faultRate = rng.bernoulli(0.3)
        ? 1e-3
        : logUniformGen(rng, 1e-4, 0.05);

    cfg.jobs = rng.uniformInt(1, 6);

    // Scenario-lane dimensions: half the draws keep the
    // seed-derived width, the rest pin 1..kMaxLanes so the
    // 9..16-lane repack and retirement paths see direct traffic.
    // SIMD level candidates are host-gated (generation must never
    // draw a config that is fatal to check here); "" — the
    // ambient active level — keeps most weight.
    cfg.laneWidth = rng.bernoulli(0.5)
        ? 0
        : static_cast<std::uint32_t>(rng.uniformInt(1, simd::kMaxLanes));
    {
        std::vector<std::string> levels{"", "", "", "scalar"};
        const auto host = static_cast<int>(simd::detectHostLevel());
        if (host >= static_cast<int>(simd::IsaLevel::Avx2))
            levels.push_back("avx2");
        if (host >= static_cast<int>(simd::IsaLevel::Avx512))
            levels.push_back("avx512");
        cfg.simdLevel = elementGen<std::string>(rng, levels);
    }

    // Sampled-execution knobs: small windows and low stability
    // thresholds make skips likely inside the short fuzz runs;
    // the duplicated 8 weights the production default.
    cfg.samplingWindow = static_cast<std::uint32_t>(
        elementGen<std::uint64_t>(rng, {2, 4, 8, 8, 16}));
    cfg.samplingStable = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    cfg.samplingSkip = static_cast<std::uint32_t>(
        elementGen<std::uint64_t>(rng, {2, 8, 32, 128}));
    cfg.samplingGuard = logUniformGen(rng, 2e-4, 5e-3);
    return cfg;
}

} // namespace vsmooth::simtest
