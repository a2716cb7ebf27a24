/**
 * @file
 * Traced per-layer replay for the perfbench benchmark.
 *
 * Calls the public functions of each simulator layer directly, with a
 * span around every call, and prints one JSON object of per-layer
 * figures on the last line of stdout (the aggregated span table goes
 * to stderr). The spans live here, in the benchmark, not inside the
 * program: end-to-end numbers come from untraced runs of the real
 * CLI, and this replay is the separate traced run.
 *
 * The stage replay drives one scenario block by block through
 * FastCore::tickBlock, the current model (steadyBlock plus the fused
 * two-column smoothing System's two-core block uses; the same
 * arithmetic as CurrentModel::accumulateBlock, so the power span is
 * what System::run pays), SecondOrderPdn::stepBlock and the three
 * noise sinks, delivering OS ticks through the per-cycle path on the
 * same countdown System uses, then runs System::run on the same
 * scenario. The two must agree bit for bit on the scope histogram,
 * the detector bank and the timeline, or the replay exits with
 * status 3: only then is the difference of their times (the
 * `sim.glue` residual) a measurement.
 *
 * Usage: perfbench_trace <plan.json>   (run.py writes the plan)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/json.hh"
#include "common/parallel.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "cpu/fast_core.hh"
#include "dsp/primitives.hh"
#include "noise/droop_detector.hh"
#include "noise/scope.hh"
#include "noise/timeline.hh"
#include "pdn/second_order.hh"
#include "power/current_model.hh"
#include "sched/oracle_matrix.hh"
#include "sched/pass_analysis.hh"
#include "sched/policy.hh"
#include "serve/batch.hh"
#include "serve/cache.hh"
#include "sim/calibration.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Host cost of one Clock::now() call. Each per-block span ends with
 *  one such call, so the replay subtracts it per span; otherwise the
 *  timer itself would read as stage time (about 10 % of a cycle's
 *  cost on a virtualised clock) and push the glue residual below
 *  zero. */
double
clockCallNs()
{
    constexpr int kCalls = 200000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        (void)Clock::now();
    return static_cast<double>(nsBetween(t0, Clock::now())) / kCalls;
}

/** Aggregated spans: one row per (name, parent) with a call count and
 *  the summed duration. Per-block spans are summed in locals by the
 *  hot loop and added once, so the table costs nothing per cycle. */
class SpanTable
{
  public:
    void
    add(const std::string &name, const std::string &parent,
        std::uint64_t calls, std::int64_t ns)
    {
        Row &r = rows_[{name, parent}];
        r.calls += calls;
        r.ns += ns;
    }

    void
    print(std::ostream &os) const
    {
        os << std::left << std::setw(44) << "span" << std::setw(8)
           << "parent" << std::setw(10) << "calls" << "total_ms\n";
        for (const auto &[key, r] : rows_) {
            os << std::setw(44) << key.first << std::setw(8) << key.second
               << std::setw(10) << r.calls << static_cast<double>(r.ns) / 1e6
               << "\n";
        }
    }

  private:
    struct Row
    {
        std::uint64_t calls = 0;
        std::int64_t ns = 0;
    };
    std::map<std::pair<std::string, std::string>, Row> rows_;
};

SpanTable spans;

/** Times one top-level call and records it as a span. */
template <typename Fn>
std::int64_t
timed(const std::string &name, const std::string &parent, Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const std::int64_t ns = nsBetween(t0, Clock::now());
    spans.add(name, parent, 1, ns);
    return ns;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
die(const std::string &msg, int code = 1)
{
    std::cerr << "perfbench_trace: " << msg << "\n";
    std::exit(code);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot open '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

Json
parseFile(const std::string &path)
{
    std::string error;
    Json j = Json::parse(readFile(path), &error);
    if (!error.empty())
        die(path + ": " + error);
    return j;
}

std::uint64_t
u64(const Json &obj, const char *key)
{
    std::uint64_t v = 0;
    const Json *f = obj.find(key);
    if (!f || !f->exactUint64(&v))
        die(std::string("plan: '") + key + "' is not an exact uint64");
    return v;
}

double
num(const Json &obj, const char *key)
{
    const Json *f = obj.find(key);
    if (!f || !f->isNumber())
        die(std::string("plan: '") + key + "' is not a number");
    return f->asNumber();
}

std::string
str(const Json &obj, const char *key)
{
    const Json *f = obj.find(key);
    if (!f || !f->isString())
        die(std::string("plan: '") + key + "' is not a string");
    return f->asString();
}

/** A two-core scenario, the shape every workload runs. */
struct Scenario
{
    std::string benchA;
    std::string benchB;
    double decap = 1.0;
    Cycles osTick = 0;
    Cycles cycles = 0;
    std::uint64_t seed = 1;
    Cycles timelineInterval = 0;
};

Scenario
scenarioFrom(const Json &j)
{
    Scenario s;
    s.benchA = str(j, "bench_a");
    s.benchB = str(j, "bench_b");
    s.decap = num(j, "decap");
    s.osTick = u64(j, "os_tick");
    s.cycles = u64(j, "cycles");
    s.seed = u64(j, "seed");
    s.timelineInterval = u64(j, "timeline_interval");
    if (s.osTick == 0 || s.cycles == 0 || s.timelineInterval == 0)
        die("plan: scenario needs positive os_tick, cycles and "
            "timeline_interval");
    return s;
}

sim::SystemConfig
systemConfig(const Scenario &s)
{
    sim::SystemConfig cfg;
    cfg.package = pdn::PackageConfig::core2duo().withDecapFraction(s.decap);
    cfg.osTickInterval = s.osTick;
    cfg.enableTimeline = true;
    cfg.timelineInterval = s.timelineInterval;
    cfg.sampling.mode = sim::SamplingConfig::Mode::Off;
    return cfg;
}

std::unique_ptr<cpu::FastCore>
makeCore(const std::string &bench, Cycles baseLength, std::uint64_t seed)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(bench), baseLength,
                              true),
        seed);
}

/** Host time of each stage over one replay, in ns. */
struct StageTimes
{
    std::int64_t cpu = 0;
    std::int64_t power = 0;
    std::int64_t pdn = 0;
    std::int64_t scope = 0;
    std::int64_t bank = 0;
    std::int64_t timeline = 0;
    std::int64_t total = 0;
    std::uint64_t blocks = 0;
    std::uint64_t perCycleTicks = 0;
};

/** What the replay and System::run must agree on. */
struct Sinks
{
    explicit Sinks(const sim::SystemConfig &cfg)
        : bank(sim::defaultMarginSweep()),
          timeline(cfg.timelineInterval, cfg.timelineMargin)
    {
    }
    noise::Scope scope;
    noise::DroopDetectorBank bank;
    noise::NoiseTimeline timeline;
};

StageTimes
replayStages(const Scenario &s, Sinks &out)
{
    constexpr std::size_t kBlock = sim::System::kBlockCycles;
    const sim::SystemConfig cfg = systemConfig(s);
    std::unique_ptr<cpu::FastCore> cores[2] = {
        makeCore(s.benchA, s.cycles, s.seed + 1),
        makeCore(s.benchB, s.cycles, s.seed + 2)};
    power::CurrentModel currents[2] = {
        power::CurrentModel(cfg.coreCurrent),
        power::CurrentModel(cfg.coreCurrent)};
    pdn::SecondOrderPdn pdn(cfg.package, toPeriod(cfg.clockFrequency));
    double idle = 0.0;
    for (const auto &c : currents)
        idle += c.idleCurrent();
    pdn.reset(idle);

    // System staggers core i's OS tick by i * 517 cycles and delivers
    // it through the per-cycle path; blocks stop short of it.
    const Cycles interval = cfg.osTickInterval;
    Cycles countdown[2] = {};
    for (std::size_t i = 0; i < 2; ++i)
        countdown[i] = interval - 1 - (i * 517) % interval;

    std::vector<double> act(2 * kBlock), total(kBlock), dev(kBlock);
    StageTimes t;
    const auto start = Clock::now();
    Cycles remaining = s.cycles;
    while (remaining > 0) {
        const Cycles n = std::min({remaining, Cycles(kBlock),
                                   countdown[0], countdown[1]});
        if (n == 0) {
            for (std::size_t i = 0; i < 2; ++i) {
                if (countdown[i] == 0) {
                    cores[i]->injectPlatformInterrupt();
                    countdown[i] = interval;
                }
                --countdown[i];
            }
            double sum = 0.0;
            for (std::size_t i = 0; i < 2; ++i)
                sum += currents[i].currentFor(cores[i]->tick());
            pdn.step(sum);
            const double d = pdn.voltageDeviation();
            out.scope.record(d);
            out.bank.feed(d);
            out.timeline.feed(d);
            --remaining;
            ++t.perCycleTicks;
            continue;
        }
        const auto nn = static_cast<std::size_t>(n);
        const auto t0 = Clock::now();
        cores[0]->tickBlock(act.data(), nn);
        cores[1]->tickBlock(act.data() + kBlock, nn);
        const auto t1 = Clock::now();
        currents[0].steadyBlock(act.data(), act.data(), nn);
        currents[1].steadyBlock(act.data() + kBlock, act.data() + kBlock,
                                nn);
        auto c0 = currents[0].cursor();
        auto c1 = currents[1].cursor();
        dsp::SmoothSlew chains[2] = {{c0.tau, c0.alpha, c0.slew, c0.prev},
                                     {c1.tau, c1.alpha, c1.slew, c1.prev}};
        const double *const cols[2] = {act.data(), act.data() + kBlock};
        dsp::processSumColumns(chains, cols, total.data(), nn);
        c0.prev = chains[0].prev;
        c1.prev = chains[1].prev;
        currents[0].commit(c0);
        currents[1].commit(c1);
        const auto t2 = Clock::now();
        pdn.stepBlock(total.data(), dev.data(), nn);
        const auto t3 = Clock::now();
        out.scope.recordBlock(dev.data(), nn);
        const auto t4 = Clock::now();
        out.bank.feedBlock(dev.data(), nn);
        const auto t5 = Clock::now();
        out.timeline.feedBlock(dev.data(), nn);
        const auto t6 = Clock::now();
        t.cpu += nsBetween(t0, t1);
        t.power += nsBetween(t1, t2);
        t.pdn += nsBetween(t2, t3);
        t.scope += nsBetween(t3, t4);
        t.bank += nsBetween(t4, t5);
        t.timeline += nsBetween(t5, t6);
        countdown[0] -= n;
        countdown[1] -= n;
        remaining -= n;
        ++t.blocks;
    }
    t.total = nsBetween(start, Clock::now());
    const auto timer = static_cast<std::int64_t>(
        clockCallNs() * static_cast<double>(t.blocks));
    for (std::int64_t *stage :
         {&t.cpu, &t.power, &t.pdn, &t.scope, &t.bank, &t.timeline})
        *stage -= timer;
    spans.add("cpu.FastCore::tickBlock", "replay", 2 * t.blocks, t.cpu);
    spans.add("power.CurrentModel::steadyBlock+smoothing", "replay",
              2 * t.blocks, t.power);
    spans.add("pdn.SecondOrderPdn::stepBlock", "replay", t.blocks,
              t.pdn);
    spans.add("noise.Scope::recordBlock", "replay", t.blocks, t.scope);
    spans.add("noise.DroopDetectorBank::feedBlock", "replay", t.blocks,
              t.bank);
    spans.add("noise.NoiseTimeline::feedBlock", "replay", t.blocks,
              t.timeline);
    spans.add("sim.per_cycle_os_tick", "replay", t.perCycleTicks, 0);
    spans.add("replay", "trace", 1, t.total);
    return t;
}

bool
sameHistogram(const Histogram &a, const Histogram &b)
{
    if (a.totalCount() != b.totalCount() || a.numBins() != b.numBins() ||
        a.underflowCount() != b.underflowCount() ||
        a.overflowCount() != b.overflowCount() ||
        a.minSample() != b.minSample() || a.maxSample() != b.maxSample())
        return false;
    for (std::size_t i = 0; i < a.numBins(); ++i)
        if (a.binCount(i) != b.binCount(i))
            return false;
    return true;
}

bool
sameBank(const noise::DroopDetectorBank &a,
         const noise::DroopDetectorBank &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.eventCountAt(i) != b.eventCountAt(i) ||
            a.detector(i).deepestEvent() != b.detector(i).deepestEvent())
            return false;
    }
    return true;
}

/** Stage replay against System::run, `reps` times each (alternating),
 *  medians per stage. Fails the process on any mismatch. */
void
stageMetrics(const Scenario &s, std::uint64_t reps, Json &m)
{
    std::vector<double> cpu, power, pdn, scope, bank, timeline, replay,
        system;
    for (std::uint64_t r = 0; r < reps; ++r) {
        const sim::SystemConfig cfg = systemConfig(s);
        Sinks sinks(cfg);
        const StageTimes t = replayStages(s, sinks);

        sim::System sys(cfg);
        sys.addCore(makeCore(s.benchA, s.cycles, s.seed + 1));
        sys.addCore(makeCore(s.benchB, s.cycles, s.seed + 2));
        const std::int64_t sysNs =
            timed("sim.System::run", "trace", [&] { sys.run(s.cycles); });

        if (!sameHistogram(sinks.scope.histogram(),
                           sys.scope().histogram()))
            die("stage replay: scope histogram differs from System::run",
                3);
        if (!sameBank(sinks.bank, sys.droopBank()))
            die("stage replay: detector bank differs from System::run", 3);
        if (sinks.timeline.finish() != sys.timelineSeries())
            die("stage replay: timeline differs from System::run", 3);

        const double c = static_cast<double>(s.cycles);
        cpu.push_back(t.cpu / c);
        power.push_back(t.power / c);
        pdn.push_back(t.pdn / c);
        scope.push_back(t.scope / c);
        bank.push_back(t.bank / c);
        timeline.push_back(t.timeline / c);
        replay.push_back(t.total / c);
        system.push_back(sysNs / c);
    }
    const double stages = median(cpu) + median(power) + median(pdn) +
        median(scope) + median(bank) + median(timeline);
    m.set("cpu.ns_per_cycle", median(cpu));
    m.set("cpu.core_cycles", Json(static_cast<std::uint64_t>(2 * s.cycles)));
    m.set("power.ns_per_cycle", median(power));
    m.set("pdn.ns_per_cycle", median(pdn));
    m.set("noise.scope_ns_per_cycle", median(scope));
    m.set("noise.bank_ns_per_cycle", median(bank));
    m.set("noise.timeline_ns_per_cycle", median(timeline));
    m.set("sim.system_ns_per_cycle", median(system));
    m.set("sim.glue_ns_per_cycle", median(system) - stages);
    m.set("sim.replay_ns_per_cycle", median(replay));
}

void
laneMetrics(const Scenario &s, Cycles cycles, Json &m)
{
    const std::size_t lanes = simd::defaultLaneWidth();
    const sim::SystemConfig cfg = systemConfig(s);
    std::vector<sim::System> systems;
    systems.reserve(lanes);
    std::vector<sim::LanePlan> plans;
    for (std::size_t k = 0; k < lanes; ++k) {
        systems.emplace_back(cfg);
        systems.back().addCore(
            makeCore(s.benchA, cycles, s.seed + 1 + 1000 * k));
        systems.back().addCore(
            makeCore(s.benchB, cycles, s.seed + 2 + 1000 * k));
        sim::LanePlan plan;
        plan.system = &systems.back();
        plan.cycles = cycles;
        plans.push_back(plan);
    }
    sim::LaneGroup group(lanes);
    const std::int64_t ns =
        timed("sim.LaneGroup::run", "trace", [&] { group.run(plans); });
    m.set("sim.lanegroup_ns_per_cycle",
          static_cast<double>(ns) / static_cast<double>(lanes * cycles));
    m.set("sim.lane_width", Json(static_cast<std::uint64_t>(lanes)));
}

/** The `vsmooth run --sampling auto` configuration of cli_long. */
void
samplerMetrics(const Json &j, Json &m)
{
    const std::string a = str(j, "bench_a");
    const std::string b = str(j, "bench_b");
    const Cycles cycles = u64(j, "cycles");
    const std::uint64_t seed = u64(j, "seed");
    sim::SystemConfig cfg;
    cfg.sampling.mode = sim::SamplingConfig::Mode::Auto;
    sim::System sys(cfg);
    sys.addCore(makeCore(a, cycles, seed + 1));
    sys.addCore(makeCore(b, cycles, seed + 2));
    const std::int64_t ns = timed("sim.PhaseSampler (System::run auto)",
                                  "trace", [&] { sys.run(cycles); });
    if (!sys.samplingActive())
        die("sampler scenario did not engage phase sampling");
    const sim::SamplingReport rep = sys.samplingReport();
    m.set("sim.sampler_ns_per_cycle",
          static_cast<double>(ns) / static_cast<double>(cycles));
    m.set("sim.sampler_simulated_fraction", rep.simulatedFraction());
    m.set("sim.sampler_max_droop_bound_pct", rep.maxDroopBound * 100.0);
    m.set("sim.sampler_cdf_bound", rep.histFractionBound);
}

sched::OracleConfig
oracleConfig(const Json &j)
{
    // fig17/18/19/table1's matrix: Proc3, 800k cycles, Proc3 margin.
    sched::OracleConfig cfg;
    cfg.system.package =
        pdn::PackageConfig::core2duo().withDecapFraction(num(j, "decap"));
    cfg.cyclesPerPair = u64(j, "cycles_per_pair");
    cfg.droopMargin = sim::kProc3DroopMargin;
    return cfg;
}

void
schedMetrics(const Json &j, std::size_t jobs, std::uint64_t seed,
             Json &m, double &checksum)
{
    const sched::OracleConfig cfg = oracleConfig(j);
    const auto &suite = workload::specCpu2006();
    std::vector<workload::SpecBenchmark> bench = suite;
    const std::uint64_t limit = u64(j, "benchmarks");
    if (limit < bench.size())
        bench.resize(limit);

    setJobs(jobs);
    std::unique_ptr<sched::OracleMatrix> matrix;
    const std::int64_t buildNs =
        timed("sched.OracleMatrix (jobs=nproc)", "trace", [&] {
            matrix = std::make_unique<sched::OracleMatrix>(bench, cfg);
        });
    const std::size_t n = matrix->size();
    m.set("sched.oracle_build_s", static_cast<double>(buildNs) / 1e9);
    m.set("sched.oracle_cells",
          Json(static_cast<std::uint64_t>(n + n * (n + 1) / 2)));

    // Policies over the built matrix, as fig18/fig19/table1 call them.
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < n; ++i) {
        pool.push_back(i);
        pool.push_back(i);
    }
    const sched::PolicyKind kinds[] = {
        sched::PolicyKind::Random, sched::PolicyKind::Ipc,
        sched::PolicyKind::Droop, sched::PolicyKind::DroopWorstFirst,
        sched::PolicyKind::IpcOverDroopN};
    std::vector<double> policyMs;
    for (std::uint64_t r = 0; r < u64(j, "policy_reps"); ++r) {
        Rng rng(seed + r);
        const std::int64_t ns = timed("sched.policies", "trace", [&] {
            sched::Schedule droopSched;
            for (const auto kind : kinds) {
                auto schedule = sched::buildSchedule(pool, *matrix, kind,
                                                     rng);
                const auto metrics =
                    sched::evaluateSchedule(schedule, *matrix);
                checksum += metrics.meanDroopsPer1k + metrics.meanIpc;
                if (kind == sched::PolicyKind::Droop)
                    droopSched = std::move(schedule);
            }
            const auto rows = sched::optimalMarginTable(
                *matrix, sim::recoveryCostSweep(), 1.0);
            for (const auto &row : rows) {
                checksum += sched::countPassing(
                    droopSched, *matrix, row.optimalMargin,
                    row.recoveryCost, row.expectedImprovementPercent, 1.0);
            }
        });
        policyMs.push_back(static_cast<double>(ns) / 1e6);
    }
    m.set("sched.policy_ms", median(policyMs));

    // Thread-pool scaling on a smaller matrix of the same config.
    std::vector<workload::SpecBenchmark> sub = bench;
    const std::uint64_t subN = u64(j, "speedup_benchmarks");
    if (subN < sub.size())
        sub.resize(subN);
    setJobs(1);
    const auto serialNs = static_cast<double>(
        timed("common.parallelFor (jobs=1)", "trace",
              [&] { sched::OracleMatrix small(sub, cfg); }));
    setJobs(jobs);
    const auto parallelNs = static_cast<double>(
        timed("common.parallelFor (jobs=nproc)", "trace",
              [&] { sched::OracleMatrix small(sub, cfg); }));
    setJobs(1);
    m.set("common.parallel_speedup", serialNs / parallelNs);
}

/** The serve layers on the workload's own item list, in process. */
void
serveMetrics(const Json &j, Json &m, double &checksum)
{
    const Json items = parseFile(str(j, "items"));
    if (!items.isArray() || items.asArray().empty())
        die("items file is not a non-empty JSON array");
    const std::size_t n = items.asArray().size();
    const std::uint64_t reps = u64(j, "reps");
    std::vector<std::string> lines;
    for (const auto &it : items.asArray())
        lines.push_back(it.dump());

    std::vector<double> parseUs, keyUs, cacheUs, serializeUs;
    std::vector<Result> results;
    std::vector<std::string> keys(n), payloads(n);
    double runNs = 0.0;
    for (std::uint64_t r = 0; r < reps; ++r) {
        std::vector<serve::BatchItem> parsed(n);
        const std::int64_t pNs =
            timed("serve.BatchItem::fromJson", "serve", [&] {
                for (std::size_t i = 0; i < n; ++i) {
                    std::string error;
                    const Json item = Json::parse(lines[i], &error);
                    if (!error.empty() ||
                        !serve::BatchItem::fromJson(item, parsed[i],
                                                    &error))
                        die("item " + std::to_string(i) + ": " + error);
                }
            });
        const std::int64_t kNs =
            timed("serve.canonicalKey+fnv1aHex", "serve", [&] {
                for (std::size_t i = 0; i < n; ++i)
                    keys[i] = serve::fnv1aHex(parsed[i].canonicalKey());
            });
        if (results.empty()) {
            // Executed once: this is simulation, timed per item.
            runNs = static_cast<double>(
                timed("serve.runBatchItem", "serve", [&] {
                    for (const auto &item : parsed)
                        results.push_back(serve::runBatchItem(item));
                }));
        }
        const std::int64_t sNs =
            timed("serve.serializeResult", "serve", [&] {
                for (std::size_t i = 0; i < n; ++i)
                    payloads[i] = serve::serializeResult(results[i]);
            });
        serve::ResultCache cache(std::size_t{64} << 20);
        const std::int64_t cNs = timed("serve.ResultCache", "serve", [&] {
            std::string hit;
            for (std::size_t i = 0; i < n; ++i) {
                if (!cache.lookup(keys[i], &hit))
                    cache.insert(keys[i], payloads[i]);
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (!cache.lookup(keys[i], &hit))
                    die("result cache lost an entry");
                checksum += static_cast<double>(hit.size());
            }
        });
        const double per = 1e3 * static_cast<double>(n);
        parseUs.push_back(pNs / per);
        keyUs.push_back(kNs / per);
        serializeUs.push_back(sNs / per);
        cacheUs.push_back(cNs / per);
    }
    m.set("serve.parse_us", median(parseUs));
    m.set("serve.key_us", median(keyUs));
    m.set("serve.cache_us", median(cacheUs));
    m.set("serve.serialize_us", median(serializeUs));
    m.set("serve.run_item_ms", runNs / 1e6 / static_cast<double>(n));
}

/** Json::parse throughput and compareResults over the goldens, with
 *  the fresh Results the traced run's experiment executions wrote. */
void
commonMetrics(const Json &j, Json &m, std::uint64_t &compareFailures)
{
    const std::string goldenDir = str(j, "golden_dir");
    const std::string resultsDir = str(j, "results_dir");
    const std::uint64_t reps = u64(j, "reps");
    std::vector<std::string> names;
    for (const auto &e : j.at("experiments").asArray())
        names.push_back(e.asString());

    std::vector<std::string> texts;
    double bytes = 0.0;
    for (const auto &name : names) {
        texts.push_back(readFile(goldenDir + "/" + name + ".json"));
        bytes += static_cast<double>(texts.back().size());
    }
    std::vector<double> parseUsPerKb;
    for (std::uint64_t r = 0; r < reps; ++r) {
        const std::int64_t ns = timed("common.Json::parse", "common", [&] {
            for (const auto &t : texts) {
                std::string error;
                Json::parse(t, &error);
                if (!error.empty())
                    die("golden parse: " + error);
            }
        });
        parseUsPerKb.push_back(ns / 1e3 / (bytes / 1024.0));
    }
    m.set("common.json_parse_us_per_kb", median(parseUsPerKb));

    std::vector<Result> goldens(names.size()), actuals(names.size());
    std::vector<Json> raws(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::string error;
        raws[i] = Json::parse(texts[i], &error);
        if (!Result::fromJson(raws[i], goldens[i], &error))
            die(names[i] + " golden: " + error);
        const Json fresh =
            parseFile(resultsDir + "/" + names[i] + ".json");
        if (!Result::fromJson(fresh, actuals[i], &error))
            die(names[i] + " result: " + error);
    }
    std::vector<double> compareMs;
    for (std::uint64_t r = 0; r < reps; ++r) {
        std::uint64_t failures = 0;
        const std::int64_t ns =
            timed("common.compareResults", "common", [&] {
                for (std::size_t i = 0; i < names.size(); ++i) {
                    const Json *tol = raws[i].find("tolerances");
                    if (!compareResults(goldens[i], actuals[i], tol).pass)
                        ++failures;
                }
            });
        compareFailures = failures;
        compareMs.push_back(static_cast<double>(ns) / 1e6);
    }
    m.set("common.compare_ms", median(compareMs));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2)
        die("usage: perfbench_trace <plan.json>", 2);
    const Json plan = parseFile(argv[1]);
    const auto jobs = static_cast<std::size_t>(u64(plan, "jobs"));
    const std::uint64_t seed = u64(plan, "seed");

    Json m = Json::object();
    double checksum = 0.0;
    std::uint64_t compareFailures = 0;
    setJobs(1);
    const Scenario s = scenarioFrom(plan.at("scenario"));
    stageMetrics(s, u64(plan.at("scenario"), "reps"), m);
    laneMetrics(s, u64(plan.at("scenario"), "lane_cycles"), m);
    samplerMetrics(plan.at("sampler"), m);
    schedMetrics(plan.at("oracle"), jobs, seed, m, checksum);
    serveMetrics(plan.at("serve"), m, checksum);
    commonMetrics(plan.at("common"), m, compareFailures);
    m.set("compare_failures", Json(compareFailures));
    m.set("checksum", checksum);

    spans.print(std::cerr);
    std::cout << m.dump() << "\n";
    return 0;
}
