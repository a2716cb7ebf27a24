#include "batch.hh"

#include <algorithm>

#include "common/parallel.hh"
#include "pdn/package_config.hh"
#include "sched/oracle_matrix.hh"
#include "simtest/properties.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::serve {

namespace {

constexpr std::uint64_t kMaxPopulation = 4096;
constexpr std::uint64_t kMaxOracleCycles = 2'000'000;

/** Odd 64-bit stride for index-derived seeds: run i of a population
 *  always draws seed cfg.seed + i * kSeedStride, so any sharding of
 *  the index range reproduces the same per-run streams. */
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

bool
knownBenchmark(const std::string &name)
{
    for (const auto &b : workload::specCpu2006())
        if (name == b.name)
            return true;
    return false;
}

Json
propertiesJson(const std::vector<std::string> &names)
{
    Json arr = Json::array();
    for (const auto &n : names)
        arr.push(Json(n));
    return arr;
}

/** Reduce one run's observables into `r` (the summary kind). */
void
summaryMetrics(const simtest::RunSummary &s, Result &r)
{
    r.metricCount("cycles", s.cycles);
    r.metric("die_voltage", s.dieVoltage);
    r.metric("deviation", s.deviation);
    r.metric("total_current", s.totalCurrent);
    r.metricCount("emergencies", s.emergencies);
    r.metricCount("hist_total", s.histTotal);
    r.metricCount("hist_underflow", s.histUnderflow);
    r.metricCount("hist_overflow", s.histOverflow);
    r.metric("hist_min", s.histMin);
    r.metric("hist_max", s.histMax);

    auto countSeries = [&](const char *name,
                           const std::vector<std::uint64_t> &vs) {
        std::vector<double> d(vs.size());
        std::transform(vs.begin(), vs.end(), d.begin(),
                       [](std::uint64_t v) {
                           return static_cast<double>(v);
                       });
        r.series(name, std::move(d));
    };
    countSeries("bank_events", s.bankEvents);
    r.series("bank_deepest", s.bankDeepest);
    countSeries("core_instructions", s.coreInstructions);
    countSeries("core_stall_cycles", s.coreStallCycles);
    if (!s.timeline.empty())
        r.series("timeline", s.timeline);
    if (!s.traceSamples.empty())
        r.series("trace_samples", s.traceSamples);
    if (s.controllerActive) {
        r.metric("ctrl_final_margin", s.ctrlFinalMargin);
        r.metric("ctrl_avg_margin", s.ctrlAvgMargin);
        r.metric("ctrl_min_margin", s.ctrlMinMargin);
        r.metric("ctrl_max_margin", s.ctrlMaxMargin);
        r.metricCount("ctrl_updates", s.ctrlUpdates);
        r.metricCount("ctrl_widenings", s.ctrlWidenings);
    }
}

/** A summary run; an adaptive_margin item is one whose controller
 *  fromJson coerced on, so its Result carries the ctrl_* metrics. */
Result
runSummaryItem(const BatchItem &item)
{
    Result r("serve/" + item.kind);
    r.setSeed(item.cfg.seed);
    r.setJobs(item.cfg.jobs);
    const simtest::RunSummary s =
        simtest::summarizeRun(item.cfg, /*forceScalar=*/false);
    summaryMetrics(s, r);
    return r;
}

Result
runPopulationItem(const BatchItem &item)
{
    const std::size_t n = static_cast<std::size_t>(item.population);
    // Shard across the pool; seeds derive from the index alone, and
    // the merge below runs after the join in index order, so the
    // Result is bit-identical for any job count.
    const auto runs = parallelMap<simtest::RunSummary>(
        n, [&](std::size_t i) {
            simtest::FuzzConfig c = item.cfg;
            c.seed = item.cfg.seed +
                static_cast<std::uint64_t>(i) * kSeedStride;
            return simtest::summarizeRun(c, /*forceScalar=*/false);
        });

    std::uint64_t cycles = 0, emergencies = 0;
    std::uint64_t total = 0, underflow = 0, overflow = 0;
    double histMin = 0.0, histMax = 0.0, deviationMax = 0.0;
    std::vector<std::uint64_t> bins;
    for (const auto &s : runs) {
        cycles += s.cycles;
        emergencies += s.emergencies;
        total += s.histTotal;
        underflow += s.histUnderflow;
        overflow += s.histOverflow;
        histMin = std::min(histMin, s.histMin);
        histMax = std::max(histMax, s.histMax);
        deviationMax = std::max(deviationMax, s.deviation);
        if (bins.empty())
            bins.resize(s.histBins.size(), 0);
        for (std::size_t b = 0; b < s.histBins.size(); ++b)
            bins[b] += s.histBins[b];
    }

    Result r("serve/population");
    r.setSeed(item.cfg.seed);
    r.setJobs(item.cfg.jobs);
    r.metricCount("population", item.population);
    r.metricCount("cycles_total", cycles);
    r.metricCount("emergencies", emergencies);
    r.metricCount("hist_total", total);
    r.metricCount("hist_underflow", underflow);
    r.metricCount("hist_overflow", overflow);
    r.metric("hist_min", histMin);
    r.metric("hist_max", histMax);
    r.metric("deviation_max", deviationMax);

    // The merged CDF at coarse resolution: 100 equal groups of fine
    // bins (the fine histogram is thousands of bins — too heavy per
    // response item, and the tail masses above are exact counts).
    if (!bins.empty()) {
        constexpr std::size_t kGroups = 100;
        const std::size_t groups = std::min(kGroups, bins.size());
        std::vector<double> coarse(groups, 0.0);
        for (std::size_t b = 0; b < bins.size(); ++b) {
            const std::size_t g =
                std::min(groups - 1, b * groups / bins.size());
            coarse[g] += static_cast<double>(bins[b]);
        }
        r.series("hist_coarse", std::move(coarse));
    }
    return r;
}

Result
runOracleCellItem(const BatchItem &item)
{
    // The cell of the matrix over {bench_a, bench_b}, measured alone.
    std::vector<workload::SpecBenchmark> suite;
    suite.push_back(workload::specByName(item.benchA));
    const bool same = item.benchA == item.benchB;
    if (!same)
        suite.push_back(workload::specByName(item.benchB));

    sched::OracleConfig cfg;
    cfg.cyclesPerPair = item.cyclesPerPair;
    cfg.seed = item.oracleSeed;
    cfg.system.package = pdn::PackageConfig::core2duo()
                             .withDecapFraction(item.decapFraction);
    const sched::PairProfile p =
        sched::OracleMatrix::measurePair(suite, cfg, 0, same ? 0 : 1);

    Result r("serve/oracle_cell");
    r.setSeed(item.oracleSeed);
    r.metric("droops_per_1k", p.droopsPer1k);
    r.metric("ipc", p.ipc);
    r.metricCount("cycles", p.emergencies.cycles);
    r.series("emergency_margins", p.emergencies.margins);
    std::vector<double> counts(p.emergencies.counts.size());
    std::transform(p.emergencies.counts.begin(),
                   p.emergencies.counts.end(), counts.begin(),
                   [](std::uint64_t v) {
                       return static_cast<double>(v);
                   });
    r.series("emergency_counts", std::move(counts));
    return r;
}

Result
runFaultSweepItem(const BatchItem &item)
{
    // The rig is a detailed core; cap the per-margin run so a sweep
    // stays a serving-sized item even at kMaxCycles configs.
    const Cycles cycles = std::min<Cycles>(item.cfg.cycles, 200'000);
    const auto counts = parallelMap<simtest::FaultRigCounts>(
        item.faultMargins.size(), [&](std::size_t i) {
            return simtest::runFaultRig(item.cfg.seed,
                                        item.faultMargins[i],
                                        item.cfg.faultRate, cycles);
        });

    Result r("serve/fault_sweep");
    r.setSeed(item.cfg.seed);
    r.setJobs(item.cfg.jobs);
    r.metricCount("cycles_per_margin", cycles);
    r.metric("rate_at_zero_margin", item.cfg.faultRate);
    r.series("margins", item.faultMargins);
    auto series = [&](const char *name, auto field) {
        std::vector<double> vs(counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i)
            vs[i] = static_cast<double>(counts[i].*field);
        r.series(name, std::move(vs));
    };
    series("faults_l1d", &simtest::FaultRigCounts::l1dFaults);
    series("faults_l2", &simtest::FaultRigCounts::l2Faults);
    series("faults_tlb", &simtest::FaultRigCounts::tlbFaults);
    series("misses_l1d", &simtest::FaultRigCounts::l1dMisses);
    series("misses_l2", &simtest::FaultRigCounts::l2Misses);
    series("misses_tlb", &simtest::FaultRigCounts::tlbMisses);
    series("instructions", &simtest::FaultRigCounts::instructions);
    return r;
}

Result
runFuzzItem(const BatchItem &item)
{
    std::vector<std::string> names = item.properties;
    if (names.empty()) {
        for (const auto &p : simtest::propertyRegistry())
            names.push_back(p.name);
    }
    Result r("serve/fuzz");
    r.setSeed(item.cfg.seed);
    r.setJobs(item.cfg.jobs);
    std::uint64_t passes = 0, failures = 0;
    for (const auto &name : names) {
        const simtest::Property *p = simtest::findProperty(name);
        std::string why;
        const bool ok = p->check(item.cfg, &why);
        (ok ? passes : failures) += 1;
        r.metricCount("pass_" + name, ok ? 1 : 0);
    }
    r.metricCount("checked", passes + failures);
    r.metricCount("passes", passes);
    r.metricCount("failures", failures);
    return r;
}

} // namespace

bool
BatchItem::fromJson(const Json &j, BatchItem &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!j.isObject())
        return fail("batch item is not a JSON object");
    out = BatchItem{};
    if (const Json *id = j.find("id"); id && id->isString())
        out.id = id->asString();
    if (const Json *k = j.find("kind")) {
        if (!k->isString())
            return fail("'kind' is not a string");
        out.kind = k->asString();
    }
    const bool usesConfig = out.kind == "summary" ||
        out.kind == "population" || out.kind == "fuzz" ||
        out.kind == "adaptive_margin" || out.kind == "fault_sweep";
    if (out.kind == "oracle_cell") {
        const Json *a = j.find("bench_a");
        const Json *b = j.find("bench_b");
        if (!a || !a->isString() || !b || !b->isString())
            return fail("oracle_cell needs string 'bench_a' and "
                        "'bench_b'");
        out.benchA = a->asString();
        out.benchB = b->asString();
        if (!knownBenchmark(out.benchA))
            return fail("unknown benchmark '" + out.benchA + "'");
        if (!knownBenchmark(out.benchB))
            return fail("unknown benchmark '" + out.benchB + "'");
        if (const Json *c = j.find("cycles_per_pair")) {
            std::uint64_t v = 0;
            if (!c->exactUint64(&v) || v < 1 || v > kMaxOracleCycles)
                return fail("'cycles_per_pair' outside [1, " +
                            std::to_string(kMaxOracleCycles) + "]");
            out.cyclesPerPair = v;
        }
        if (const Json *d = j.find("decap_fraction")) {
            if (!d->isNumber() || d->asNumber() < 0.0 ||
                d->asNumber() > 1.0)
                return fail("'decap_fraction' outside [0, 1]");
            out.decapFraction = d->asNumber();
        }
        if (const Json *s = j.find("oracle_seed")) {
            std::uint64_t v = 0;
            if (!s->exactUint64(&v))
                return fail("'oracle_seed' is not an exact uint64");
            out.oracleSeed = v;
        }
    } else if (usesConfig) {
        if (const Json *cfg = j.find("config")) {
            if (!simtest::FuzzConfig::fromJson(*cfg, out.cfg, error))
                return false;
        }
        if (out.kind == "population") {
            if (const Json *p = j.find("population")) {
                std::uint64_t v = 0;
                if (!p->exactUint64(&v) || v < 1 ||
                    v > kMaxPopulation)
                    return fail("'population' outside [1, " +
                                std::to_string(kMaxPopulation) + "]");
                out.population = v;
            }
        }
        if (out.kind == "fuzz") {
            if (const Json *props = j.find("properties")) {
                if (!props->isArray())
                    return fail("'properties' is not an array");
                for (const Json &p : props->asArray()) {
                    if (!p.isString())
                        return fail("property name is not a string");
                    if (!simtest::findProperty(p.asString()))
                        return fail("unknown property '" +
                                    p.asString() + "'");
                    out.properties.push_back(p.asString());
                }
            }
        }
        if (out.kind == "adaptive_margin") {
            // Coerce the controller on *at parse time* so the
            // canonical cache key describes the scenario actually
            // executed (the fixed fail-safe is dropped — the two are
            // mutually exclusive margin authorities).
            out.cfg.controller = true;
            out.cfg.emergencyMargin = 0.0;
            out.cfg.recoveryCost = 0;
        }
        if (out.kind == "fault_sweep") {
            if (const Json *m = j.find("margins")) {
                if (!m->isArray() || m->asArray().empty())
                    return fail("'margins' is not a non-empty array");
                if (m->asArray().size() > 16)
                    return fail("'margins' has more than 16 entries");
                out.faultMargins.clear();
                for (const Json &v : m->asArray()) {
                    if (!v.isNumber() || v.asNumber() < 0.0 ||
                        v.asNumber() > 0.25)
                        return fail("sweep margin outside [0, 0.25]");
                    out.faultMargins.push_back(v.asNumber());
                }
            }
        }
    } else {
        return fail("unknown experiment kind '" + out.kind +
                    "' (summary|population|oracle_cell|fuzz|"
                    "adaptive_margin|fault_sweep)");
    }
    return true;
}

const std::string &
BatchItem::canonicalKey() const
{
    // Fixed field order, no default omission: only parameters that
    // affect the Result participate, so equal keys really do mean
    // interchangeable cached bytes. Built once; every later caller
    // (hashing, cache insert, logging) reuses the same bytes.
    if (!canonicalKey_.empty())
        return canonicalKey_;
    Json key = Json::object();
    key.set("kind", kind);
    if (kind == "oracle_cell") {
        key.set("bench_a", benchA);
        key.set("bench_b", benchB);
        key.set("cycles_per_pair", Json(cyclesPerPair));
        key.set("decap_fraction", Json(decapFraction));
        key.set("oracle_seed", Json(oracleSeed));
    } else {
        key.set("config", cfg.toJson(/*omitDefaults=*/false));
        if (kind == "population")
            key.set("population", Json(population));
        if (kind == "fuzz")
            key.set("properties", propertiesJson(properties));
        if (kind == "fault_sweep") {
            Json margins = Json::array();
            for (double m : faultMargins)
                margins.push(Json(m));
            key.set("margins", margins);
        }
    }
    canonicalKey_ = key.dump();
    return canonicalKey_;
}

Result
runBatchItem(const BatchItem &item)
{
    if (item.kind == "summary" || item.kind == "adaptive_margin")
        return runSummaryItem(item);
    if (item.kind == "population")
        return runPopulationItem(item);
    if (item.kind == "oracle_cell")
        return runOracleCellItem(item);
    if (item.kind == "fault_sweep")
        return runFaultSweepItem(item);
    return runFuzzItem(item);
}

std::string
serializeResult(const Result &r)
{
    return r.toJson().dump();
}

} // namespace vsmooth::serve
