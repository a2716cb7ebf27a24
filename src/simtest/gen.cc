#include "gen.hh"

#include <cmath>

#include "common/simd.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::simtest {

Gen<double>
logUniformGen(double lo, double hi)
{
    const double logLo = std::log(lo);
    const double logHi = std::log(hi);
    return Gen<double>([logLo, logHi](Rng &rng) {
        return std::exp(rng.uniform(logLo, logHi));
    });
}

Gen<std::uint64_t>
intGen(std::uint64_t lo, std::uint64_t hi)
{
    return Gen<std::uint64_t>(
        [lo, hi](Rng &rng) { return rng.uniformInt(lo, hi); });
}

namespace {

/** Hard validity bounds (generator range and fromJson acceptance). */
constexpr std::size_t kMaxCores = 8;
constexpr Cycles kMaxCycles = 2'000'000;
constexpr std::uint64_t kMaxJobs = 64;

Json
numberArray(const std::vector<FuzzCore> &cores, bool flatField)
{
    Json arr = Json::array();
    for (const FuzzCore &c : cores)
        arr.push(flatField ? Json(c.flat ? 1 : 0)
                           : Json(static_cast<double>(c.bench)));
    return arr;
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
    if (cycles < 1 || cycles > kMaxCycles)
        return fail("cycles outside [1, " + std::to_string(kMaxCycles) +
                    "]");
    if (baseLength < 1 || baseLength > kMaxCycles)
        return fail("baseLength outside [1, " +
                    std::to_string(kMaxCycles) + "]");
    if (!(decapFraction >= 0.0 && decapFraction <= 1.0))
        return fail("decapFraction outside [0, 1]");
    if (!(lScale > 0.0 && lScale <= 16.0))
        return fail("lScale outside (0, 16]");
    if (!(rScale > 0.0 && rScale <= 16.0))
        return fail("rScale outside (0, 16]");
    if (!(rippleFraction >= 0.0 && rippleFraction <= 0.05))
        return fail("rippleFraction outside [0, 0.05]");
    if (osTickInterval > kMaxCycles)
        return fail("osTickInterval exceeds " +
                    std::to_string(kMaxCycles));
    if (traceCapacity < 1 || traceCapacity > (1u << 20))
        return fail("traceCapacity outside [1, 2^20]");
    if (timelineInterval < 1 || timelineInterval > kMaxCycles)
        return fail("timelineInterval outside [1, " +
                    std::to_string(kMaxCycles) + "]");
    if (!(emergencyMargin >= 0.0 && emergencyMargin <= 0.25))
        return fail("emergencyMargin outside [0, 0.25]");
    if (emergencyMargin > 0.0 && recoveryCost == 0)
        return fail("emergencyMargin > 0 requires recoveryCost >= 1");
    if (controller && emergencyMargin > 0.0)
        return fail("controller and emergencyMargin are mutually "
                    "exclusive");
    if (controller && ctrlRecoveryCost == 0)
        return fail("controller requires ctrlRecoveryCost >= 1");
    if (!(ctrlMinMargin > 0.0 && ctrlMinMargin <= ctrlInitialMargin &&
          ctrlInitialMargin <= ctrlMaxMargin && ctrlMaxMargin <= 0.25))
        return fail("need 0 < ctrlMinMargin <= ctrlInitialMargin <= "
                    "ctrlMaxMargin <= 0.25");
    if (!(ctrlWidenStep >= 0.0 && ctrlWidenStep <= 0.1))
        return fail("ctrlWidenStep outside [0, 0.1]");
    if (!(faultMargin >= 0.0 && faultMargin <= 0.25))
        return fail("faultMargin outside [0, 0.25]");
    if (!(faultRate >= 0.0 && faultRate <= 1.0))
        return fail("faultRate outside [0, 1]");
    if (jobs < 1 || jobs > kMaxJobs)
        return fail("jobs outside [1, " + std::to_string(kMaxJobs) + "]");
    if (laneWidth > simd::kMaxLanes)
        return fail("laneWidth outside [0, " +
                    std::to_string(simd::kMaxLanes) + "]");
    if (simdLevel != "" && simdLevel != "scalar" &&
        simdLevel != "avx2" && simdLevel != "avx512")
        return fail("simdLevel must be one of \"\", scalar, avx2, "
                    "avx512");
    if (samplingWindow < 1 || samplingWindow > 64)
        return fail("samplingWindow outside [1, 64]");
    if (samplingStable < 1 || samplingStable > 16)
        return fail("samplingStable outside [1, 16]");
    if (samplingSkip < 1 || samplingSkip > 1024)
        return fail("samplingSkip outside [1, 1024]");
    if (!(samplingGuard >= 0.0 && samplingGuard <= 0.05))
        return fail("samplingGuard outside [0, 0.05]");
    return true;
}

Json
FuzzConfig::toJson(bool omitDefaults) const
{
    const FuzzConfig def;
    Json j = Json::object();
    auto num = [&](const char *key, double v, double dv) {
        if (!omitDefaults || v != dv)
            j.set(key, Json(v));
    };
    auto boolean = [&](const char *key, bool v, bool dv) {
        if (!omitDefaults || v != dv)
            j.set(key, Json(v));
    };
    num("seed", static_cast<double>(seed),
        static_cast<double>(def.seed));
    num("cycles", static_cast<double>(cycles),
        static_cast<double>(def.cycles));
    num("baseLength", static_cast<double>(baseLength),
        static_cast<double>(def.baseLength));
    if (!omitDefaults || !(cores == def.cores)) {
        j.set("coreBench", numberArray(cores, false));
        bool anyFlat = false;
        for (const FuzzCore &c : cores)
            anyFlat = anyFlat || c.flat;
        if (!omitDefaults || anyFlat)
            j.set("coreFlat", numberArray(cores, true));
    }
    boolean("loop", loop, def.loop);
    num("decapFraction", decapFraction, def.decapFraction);
    num("lScale", lScale, def.lScale);
    num("rScale", rScale, def.rScale);
    num("rippleFraction", rippleFraction, def.rippleFraction);
    num("osTickInterval", static_cast<double>(osTickInterval),
        static_cast<double>(def.osTickInterval));
    boolean("trace", enableTrace, def.enableTrace);
    num("traceCapacity", static_cast<double>(traceCapacity),
        static_cast<double>(def.traceCapacity));
    boolean("timeline", enableTimeline, def.enableTimeline);
    num("timelineInterval", static_cast<double>(timelineInterval),
        static_cast<double>(def.timelineInterval));
    num("emergencyMargin", emergencyMargin, def.emergencyMargin);
    num("recoveryCost", static_cast<double>(recoveryCost),
        static_cast<double>(def.recoveryCost));
    boolean("predictor", predictor, def.predictor);
    boolean("damper", damper, def.damper);
    boolean("split", split, def.split);
    boolean("controller", controller, def.controller);
    num("ctrlInitialMargin", ctrlInitialMargin, def.ctrlInitialMargin);
    num("ctrlMinMargin", ctrlMinMargin, def.ctrlMinMargin);
    num("ctrlMaxMargin", ctrlMaxMargin, def.ctrlMaxMargin);
    num("ctrlWidenStep", ctrlWidenStep, def.ctrlWidenStep);
    num("ctrlRecoveryCost", static_cast<double>(ctrlRecoveryCost),
        static_cast<double>(def.ctrlRecoveryCost));
    num("faultMargin", faultMargin, def.faultMargin);
    num("faultRate", faultRate, def.faultRate);
    num("jobs", static_cast<double>(jobs),
        static_cast<double>(def.jobs));
    num("laneWidth", static_cast<double>(laneWidth),
        static_cast<double>(def.laneWidth));
    if (!omitDefaults || simdLevel != def.simdLevel)
        j.set("simdLevel", Json(simdLevel));
    num("samplingWindow", static_cast<double>(samplingWindow),
        static_cast<double>(def.samplingWindow));
    num("samplingStable", static_cast<double>(samplingStable),
        static_cast<double>(def.samplingStable));
    num("samplingSkip", static_cast<double>(samplingSkip),
        static_cast<double>(def.samplingSkip));
    num("samplingGuard", samplingGuard, def.samplingGuard);
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

    std::vector<std::uint32_t> benches;
    std::vector<bool> flats;
    for (const auto &[key, v] : j.asObject()) {
        auto needNumber = [&]() {
            return v.isNumber();
        };
        if (key == "property" || key == "note") {
            // Repro metadata, consumed by the fuzz driver.
            continue;
        } else if (key == "seed" && needNumber()) {
            out.seed = static_cast<std::uint64_t>(v.asNumber());
        } else if (key == "cycles" && needNumber()) {
            out.cycles = static_cast<Cycles>(v.asNumber());
        } else if (key == "baseLength" && needNumber()) {
            out.baseLength = static_cast<Cycles>(v.asNumber());
        } else if (key == "coreBench" && v.isArray()) {
            for (const Json &e : v.asArray()) {
                if (!e.isNumber())
                    return fail("coreBench has a non-numeric element");
                benches.push_back(
                    static_cast<std::uint32_t>(e.asNumber()));
            }
        } else if (key == "coreFlat" && v.isArray()) {
            for (const Json &e : v.asArray()) {
                if (!e.isNumber())
                    return fail("coreFlat has a non-numeric element");
                flats.push_back(e.asNumber() != 0.0);
            }
        } else if (key == "loop" && v.isBool()) {
            out.loop = v.asBool();
        } else if (key == "decapFraction" && needNumber()) {
            out.decapFraction = v.asNumber();
        } else if (key == "lScale" && needNumber()) {
            out.lScale = v.asNumber();
        } else if (key == "rScale" && needNumber()) {
            out.rScale = v.asNumber();
        } else if (key == "rippleFraction" && needNumber()) {
            out.rippleFraction = v.asNumber();
        } else if (key == "osTickInterval" && needNumber()) {
            out.osTickInterval = static_cast<Cycles>(v.asNumber());
        } else if (key == "trace" && v.isBool()) {
            out.enableTrace = v.asBool();
        } else if (key == "traceCapacity" && needNumber()) {
            out.traceCapacity =
                static_cast<std::uint64_t>(v.asNumber());
        } else if (key == "timeline" && v.isBool()) {
            out.enableTimeline = v.asBool();
        } else if (key == "timelineInterval" && needNumber()) {
            out.timelineInterval = static_cast<Cycles>(v.asNumber());
        } else if (key == "emergencyMargin" && needNumber()) {
            out.emergencyMargin = v.asNumber();
        } else if (key == "recoveryCost" && needNumber()) {
            out.recoveryCost =
                static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "predictor" && v.isBool()) {
            out.predictor = v.asBool();
        } else if (key == "damper" && v.isBool()) {
            out.damper = v.asBool();
        } else if (key == "split" && v.isBool()) {
            out.split = v.asBool();
        } else if (key == "controller" && v.isBool()) {
            out.controller = v.asBool();
        } else if (key == "ctrlInitialMargin" && needNumber()) {
            out.ctrlInitialMargin = v.asNumber();
        } else if (key == "ctrlMinMargin" && needNumber()) {
            out.ctrlMinMargin = v.asNumber();
        } else if (key == "ctrlMaxMargin" && needNumber()) {
            out.ctrlMaxMargin = v.asNumber();
        } else if (key == "ctrlWidenStep" && needNumber()) {
            out.ctrlWidenStep = v.asNumber();
        } else if (key == "ctrlRecoveryCost" && needNumber()) {
            out.ctrlRecoveryCost =
                static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "faultMargin" && needNumber()) {
            out.faultMargin = v.asNumber();
        } else if (key == "faultRate" && needNumber()) {
            out.faultRate = v.asNumber();
        } else if (key == "jobs" && needNumber()) {
            out.jobs = static_cast<std::uint64_t>(v.asNumber());
        } else if (key == "laneWidth" && needNumber()) {
            out.laneWidth = static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "simdLevel" && v.isString()) {
            out.simdLevel = v.asString();
        } else if (key == "samplingWindow" && needNumber()) {
            out.samplingWindow =
                static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "samplingStable" && needNumber()) {
            out.samplingStable =
                static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "samplingSkip" && needNumber()) {
            out.samplingSkip =
                static_cast<std::uint32_t>(v.asNumber());
        } else if (key == "samplingGuard" && needNumber()) {
            out.samplingGuard = v.asNumber();
        } else {
            return fail("unknown or mistyped field '" + key + "'");
        }
    }
    if (!benches.empty()) {
        if (!flats.empty() && flats.size() != benches.size())
            return fail("coreFlat length does not match coreBench");
        out.cores.clear();
        for (std::size_t i = 0; i < benches.size(); ++i) {
            out.cores.push_back(
                {benches[i], !flats.empty() && flats[i]});
        }
    } else if (!flats.empty()) {
        return fail("coreFlat given without coreBench");
    }
    std::string why;
    if (!out.valid(&why))
        return fail(why);
    return true;
}

Gen<FuzzConfig>
fuzzConfigGen()
{
    return Gen<FuzzConfig>([](Rng &rng) {
        const std::size_t nBench = workload::specCpu2006().size();
        FuzzConfig cfg;
        cfg.seed = rng.uniformInt(1, 1u << 30);
        // Log-uniform run lengths: short runs dominate (throughput),
        // but every decade up to ~60k cycles appears. baseLength is
        // drawn separately so phase boundaries land at arbitrary
        // offsets relative to both the run end and the block grid.
        cfg.cycles = static_cast<Cycles>(
            logUniformGen(2'000.0, 60'000.0)(rng));
        cfg.baseLength = static_cast<Cycles>(
            logUniformGen(1'000.0, 80'000.0)(rng));
        const std::size_t nCores = static_cast<std::size_t>(
            elementGen<std::uint64_t>({1, 1, 2, 2, 2, 3, 4})(rng));
        cfg.cores.clear();
        for (std::size_t i = 0; i < nCores; ++i) {
            cfg.cores.push_back(
                {static_cast<std::uint32_t>(
                     rng.uniformInt(0, nBench - 1)),
                 rng.bernoulli(0.1)});
        }
        cfg.loop = rng.bernoulli(0.7);

        // PDN: the ProcN decap ladder plus continuous fractions, and
        // L/R scales that keep the tank resonance inside (roughly)
        // the measured 100-200 MHz band.
        cfg.decapFraction = rng.bernoulli(0.4)
            ? elementGen<double>({1.0, 0.25, 0.03, 0.0})(rng)
            : rng.uniform(0.0, 1.0);
        cfg.lScale = rng.uniform(0.5, 2.0);
        cfg.rScale = rng.uniform(0.5, 2.0);
        // Exact 0.0 carries real weight: it exercises the zero-ripple
        // short-circuits (step()'s vddEff, the zero-amplitude ripple
        // in stepBlock's cached loop and the lane kernel), which a
        // continuous draw would hit with probability zero.
        cfg.rippleFraction = rng.bernoulli(0.6)
            ? elementGen<double>({0.0, 0.0, 0.009})(rng)
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
            : logUniformGen(1e-4, 0.05)(rng);

        cfg.jobs = rng.uniformInt(1, 6);

        // Scenario-lane dimensions: half the draws keep the
        // seed-derived width, the rest pin 1..kMaxLanes so the
        // 9..16-lane repack and retirement paths see direct traffic.
        // SIMD level candidates are host-gated (generation must never
        // draw a config that is fatal to check here); "" — the
        // ambient active level — keeps most weight.
        cfg.laneWidth = rng.bernoulli(0.5)
            ? 0
            : static_cast<std::uint32_t>(
                  rng.uniformInt(1, simd::kMaxLanes));
        {
            std::vector<std::string> levels{"", "", "", "scalar"};
            const auto host = static_cast<int>(simd::detectHostLevel());
            if (host >= static_cast<int>(simd::IsaLevel::Avx2))
                levels.push_back("avx2");
            if (host >= static_cast<int>(simd::IsaLevel::Avx512))
                levels.push_back("avx512");
            cfg.simdLevel = elementGen<std::string>(levels)(rng);
        }

        // Sampled-execution knobs: small windows and low stability
        // thresholds make skips likely inside the short fuzz runs;
        // the duplicated 8 weights the production default.
        cfg.samplingWindow = static_cast<std::uint32_t>(
            elementGen<std::uint64_t>({2, 4, 8, 8, 16})(rng));
        cfg.samplingStable =
            static_cast<std::uint32_t>(rng.uniformInt(1, 4));
        cfg.samplingSkip = static_cast<std::uint32_t>(
            elementGen<std::uint64_t>({2, 8, 32, 128})(rng));
        cfg.samplingGuard = logUniformGen(2e-4, 5e-3)(rng);
        return cfg;
    });
}

} // namespace vsmooth::simtest
