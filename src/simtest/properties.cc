#include "properties.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "common/histogram.hh"
#include "common/parallel.hh"
#include "common/result.hh"
#include "common/simd.hh"
#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "pdn/package_config.hh"
#include "pdn/second_order.hh"
#include "sim/calibration.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::simtest {

namespace {

pdn::PackageConfig
toPackageConfig(const FuzzConfig &cfg)
{
    auto pkg = pdn::PackageConfig::core2duo().withDecapFraction(
        cfg.decapFraction);
    pkg.lPackage *= cfg.lScale;
    pkg.rPackage *= cfg.rScale;
    pkg.esrPackage *= cfg.rScale;
    pkg.rippleFraction = cfg.rippleFraction;
    return pkg;
}

sim::SystemConfig
toSystemConfig(const FuzzConfig &cfg, bool forceScalar)
{
    sim::SystemConfig sys;
    sys.package = toPackageConfig(cfg);
    sys.osTickInterval = cfg.osTickInterval;
    sys.enableTrace = cfg.enableTrace;
    sys.traceCapacity = static_cast<std::size_t>(cfg.traceCapacity);
    sys.enableTimeline = cfg.enableTimeline;
    sys.timelineInterval = cfg.timelineInterval;
    sys.splitSupplies = cfg.split;
    sys.enableEmergencyPredictor = cfg.predictor;
    sys.enableResonanceDamper = cfg.damper;
    if (cfg.emergencyMargin > 0.0) {
        sys.emergencyMargin = cfg.emergencyMargin;
        sys.recoveryCostCycles = cfg.recoveryCost;
    }
    if (cfg.controller) {
        sys.enableMarginController = true;
        sys.marginControllerParams.initialMargin = cfg.ctrlInitialMargin;
        sys.marginControllerParams.minMargin = cfg.ctrlMinMargin;
        sys.marginControllerParams.maxMargin = cfg.ctrlMaxMargin;
        sys.marginControllerParams.widenStep = cfg.ctrlWidenStep;
        sys.recoveryCostCycles = cfg.ctrlRecoveryCost;
    }
    sys.enableBlockedExecution = !forceScalar;
    // The differential properties compare exact execution paths;
    // resolve sampling to Off explicitly so an inherited
    // VSMOOTH_SAMPLING=auto cannot contaminate them. The sampled
    // property opts back in with Mode::Auto.
    sys.sampling.mode = sim::SamplingConfig::Mode::Off;
    return sys;
}

void
addCores(sim::System &sys, const FuzzConfig &cfg)
{
    const auto &suite = workload::specCpu2006();
    for (std::size_t i = 0; i < cfg.cores.size(); ++i) {
        workload::SpecBenchmark bench = suite[cfg.cores[i].bench];
        if (cfg.cores[i].flat) {
            bench.pattern = workload::PhasePattern::Flat;
            bench.stepMultipliers.clear();
        }
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(bench, cfg.baseLength, cfg.loop),
            cfg.seed + i * 7919 + 1));
    }
}

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** First index at which two vectors differ; npos when identical. */
template <typename T>
std::size_t
firstMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return std::min(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i]))
            return i;
    return std::string::npos;
}

template <typename T>
bool
describeVector(const char *what, const std::vector<T> &a,
               const std::vector<T> &b, std::string &out)
{
    if (a == b)
        return false;
    std::ostringstream os;
    if (a.size() != b.size()) {
        os << what << " length " << a.size() << " != " << b.size();
    } else {
        const std::size_t i = firstMismatch(a, b);
        os << what << "[" << i << "] " << num(static_cast<double>(a[i]))
           << " != " << num(static_cast<double>(b[i]));
    }
    out = os.str();
    return true;
}

/** Deterministic mixed load/branch stream over an 8 MiB footprint —
 *  larger than the L2 and the TLB reach, so l1d, l2, and tlb all take
 *  misses the fault model can perturb. */
class MixedStream final : public cpu::InstructionSource
{
  public:
    explicit MixedStream(std::uint64_t seed) : rng_(seed) {}

    cpu::SyntheticInstruction
    next() override
    {
        cpu::SyntheticInstruction in;
        in.pc = pc_;
        pc_ += 4;
        const double p = rng_.uniform();
        if (p < 0.45) {
            in.isMemory = true;
            in.memAddr = rng_.uniformInt(0, kLines - 1) * 64;
        } else if (p < 0.65) {
            in.isBranch = true;
            in.branchTaken = rng_.bernoulli(0.6);
        }
        return in;
    }

  private:
    static constexpr std::uint64_t kLines = (8ull << 20) / 64;

    Rng rng_;
    cpu::Addr pc_ = 0x1000;
};

} // namespace

RunSummary
summarizeRun(const FuzzConfig &cfg, bool forceScalar)
{
    sim::System sys(toSystemConfig(cfg, forceScalar));
    addCores(sys, cfg);
    sys.run(cfg.cycles);
    return summarizeSystem(sys, cfg);
}

RunSummary
summarizeSystem(sim::System &sys, const FuzzConfig &cfg)
{
    RunSummary s;
    s.cycles = sys.cycles();
    s.dieVoltage = sys.dieVoltage();
    s.deviation = sys.deviation();
    s.totalCurrent = sys.totalCurrent();
    s.emergencies = sys.emergencies();

    const Histogram &h = sys.scope().histogram();
    s.histTotal = h.totalCount();
    s.histUnderflow = h.underflowCount();
    s.histOverflow = h.overflowCount();
    s.histMin = h.minSample();
    s.histMax = h.maxSample();
    s.histBins.reserve(h.numBins());
    for (std::size_t i = 0; i < h.numBins(); ++i)
        s.histBins.push_back(h.binCount(i));

    const auto &bank = sys.droopBank();
    for (std::size_t i = 0; i < bank.size(); ++i) {
        s.bankEvents.push_back(bank.detector(i).eventCount());
        s.bankDeepest.push_back(bank.detector(i).deepestEvent());
    }

    for (std::size_t i = 0; i < sys.numCores(); ++i) {
        const auto &ctr = sys.core(i).counters();
        s.coreInstructions.push_back(ctr.instructions());
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses; ++c) {
            s.coreStallCycles.push_back(
                ctr.stallCycles(static_cast<cpu::StallCause>(c)));
        }
    }

    if (cfg.enableTimeline)
        s.timeline = sys.timelineSeries();
    if (cfg.enableTrace) {
        for (const auto &t : sys.trace().chronological()) {
            s.traceSamples.push_back(static_cast<double>(t.cycle));
            s.traceSamples.push_back(t.deviation);
            s.traceSamples.push_back(t.currentAmps);
        }
    }

    if (const auto *mc = sys.marginController()) {
        s.controllerActive = true;
        s.ctrlFinalMargin = mc->margin();
        s.ctrlAvgMargin = mc->averageMargin();
        s.ctrlMinMargin = mc->minMarginSeen();
        s.ctrlMaxMargin = mc->maxMarginSeen();
        s.ctrlUpdates = mc->updates();
        s.ctrlWidenings = mc->widenings();
    }
    return s;
}

std::string
firstDifference(const RunSummary &a, const RunSummary &b)
{
    std::string out;
    if (a.cycles != b.cycles)
        return "cycles " + std::to_string(a.cycles) + " != " +
            std::to_string(b.cycles);
    if (a.dieVoltage != b.dieVoltage)
        return "dieVoltage " + num(a.dieVoltage) + " != " +
            num(b.dieVoltage);
    if (a.deviation != b.deviation)
        return "deviation " + num(a.deviation) + " != " +
            num(b.deviation);
    if (a.totalCurrent != b.totalCurrent)
        return "totalCurrent " + num(a.totalCurrent) + " != " +
            num(b.totalCurrent);
    if (a.emergencies != b.emergencies)
        return "emergencies " + std::to_string(a.emergencies) + " != " +
            std::to_string(b.emergencies);
    if (a.controllerActive != b.controllerActive)
        return std::string("controller active ") +
            (a.controllerActive ? "true" : "false") + " != " +
            (b.controllerActive ? "true" : "false");
    if (a.ctrlFinalMargin != b.ctrlFinalMargin)
        return "controller final margin " + num(a.ctrlFinalMargin) +
            " != " + num(b.ctrlFinalMargin);
    if (a.ctrlAvgMargin != b.ctrlAvgMargin)
        return "controller average margin " + num(a.ctrlAvgMargin) +
            " != " + num(b.ctrlAvgMargin);
    if (a.ctrlMinMargin != b.ctrlMinMargin ||
        a.ctrlMaxMargin != b.ctrlMaxMargin) {
        return "controller margin range " + num(a.ctrlMinMargin) + "/" +
            num(a.ctrlMaxMargin) + " != " + num(b.ctrlMinMargin) + "/" +
            num(b.ctrlMaxMargin);
    }
    if (a.ctrlUpdates != b.ctrlUpdates)
        return "controller updates " + std::to_string(a.ctrlUpdates) +
            " != " + std::to_string(b.ctrlUpdates);
    if (a.ctrlWidenings != b.ctrlWidenings)
        return "controller widenings " +
            std::to_string(a.ctrlWidenings) + " != " +
            std::to_string(b.ctrlWidenings);
    if (a.histTotal != b.histTotal)
        return "histogram total " + std::to_string(a.histTotal) +
            " != " + std::to_string(b.histTotal);
    if (a.histUnderflow != b.histUnderflow ||
        a.histOverflow != b.histOverflow) {
        return "histogram under/overflow counts differ";
    }
    if (a.histMin != b.histMin || a.histMax != b.histMax)
        return "histogram min/max " + num(a.histMin) + "/" +
            num(a.histMax) + " != " + num(b.histMin) + "/" +
            num(b.histMax);
    if (describeVector("histogram bin", a.histBins, b.histBins, out))
        return out;
    if (describeVector("droop events", a.bankEvents, b.bankEvents, out))
        return out;
    if (describeVector("deepest event", a.bankDeepest, b.bankDeepest,
                       out))
        return out;
    if (describeVector("instructions", a.coreInstructions,
                       b.coreInstructions, out))
        return out;
    if (describeVector("stall cycles", a.coreStallCycles,
                       b.coreStallCycles, out))
        return out;
    if (describeVector("timeline", a.timeline, b.timeline, out))
        return out;
    if (describeVector("trace sample", a.traceSamples, b.traceSamples,
                       out))
        return out;
    return "";
}

FaultRigCounts
runFaultRig(std::uint64_t seed, double margin, double ratePerAccess,
            Cycles cycles, bool forceScalar)
{
    MixedStream stream(seed);
    cpu::DetailedCoreParams params;
    params.enableFaultInjection = true;
    params.faultModel.rateAtZeroMargin = ratePerAccess;
    params.faultMargin = margin;
    params.faultSeed = seed;

    sim::SystemConfig sc;
    // A deliberately block-unaligned OS tick, so the blocked/scalar
    // conservation differential crosses injection boundaries.
    sc.osTickInterval = Cycles(7'321);
    sc.enableBlockedExecution = !forceScalar;
    sc.sampling.mode = sim::SamplingConfig::Mode::Off;
    sim::System sys(sc);
    auto owned = std::make_unique<cpu::DetailedCore>(params, stream);
    const cpu::DetailedCore *core = owned.get();
    sys.addCore(std::move(owned));
    sys.run(cycles);

    FaultRigCounts counts;
    counts.l1dFaults = core->l1d().faults();
    counts.l2Faults = core->l2().faults();
    counts.tlbFaults = core->tlb().faults();
    counts.l1dMisses = core->l1d().misses();
    counts.l2Misses = core->l2().misses();
    counts.tlbMisses = core->tlb().misses();
    counts.instructions = core->counters().instructions();
    return counts;
}

namespace {

// ---------------------------------------------------------------------
// blocked_vs_scalar
// ---------------------------------------------------------------------

bool
checkBlockedVsScalar(const FuzzConfig &cfg, std::string *why)
{
    const RunSummary blocked = summarizeRun(cfg, false);
    const RunSummary scalar = summarizeRun(cfg, true);
    const std::string diff = firstDifference(blocked, scalar);
    if (diff.empty())
        return true;
    if (why)
        *why = "blocked != scalar: " + diff;
    return false;
}

// ---------------------------------------------------------------------
// run_twice_determinism
// ---------------------------------------------------------------------

bool
checkRunTwiceDeterminism(const FuzzConfig &cfg, std::string *why)
{
    const RunSummary first = summarizeRun(cfg, false);
    const RunSummary second = summarizeRun(cfg, false);
    const std::string diff = firstDifference(first, second);
    if (diff.empty())
        return true;
    if (why)
        *why = "same seed, different run: " + diff;
    return false;
}

// ---------------------------------------------------------------------
// parallel_vs_serial
// ---------------------------------------------------------------------

/** Restore the job-count override on scope exit. */
struct JobsGuard
{
    ~JobsGuard() { setJobs(0); }
};

bool
checkParallelVsSerial(const FuzzConfig &cfg, std::string *why)
{
    // A miniature population sweep: K independent runs derived from
    // the config by seed offset, executed through parallelMap with
    // cfg.jobs workers and again serially. The engine's determinism
    // contract says the two result vectors are bit-identical.
    constexpr std::size_t kRuns = 3;
    auto subConfig = [&](std::size_t i) {
        FuzzConfig c = cfg;
        c.seed = cfg.seed + 1000 + i * 131;
        c.cycles = std::min<Cycles>(cfg.cycles, 8'000);
        return c;
    };
    JobsGuard guard;
    setJobs(static_cast<std::size_t>(cfg.jobs));
    const auto parallel = parallelMap<RunSummary>(
        kRuns,
        [&](std::size_t i) { return summarizeRun(subConfig(i), false); });
    setJobs(1);
    const auto serial = parallelMap<RunSummary>(
        kRuns,
        [&](std::size_t i) { return summarizeRun(subConfig(i), false); });
    for (std::size_t i = 0; i < kRuns; ++i) {
        const std::string diff = firstDifference(parallel[i], serial[i]);
        if (!diff.empty()) {
            if (why) {
                *why = "jobs=" + std::to_string(cfg.jobs) +
                    " != jobs=1 at sweep index " + std::to_string(i) +
                    ": " + diff;
            }
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// laned_vs_scalar
// ---------------------------------------------------------------------

bool
checkLanedVsScalar(const FuzzConfig &cfg, std::string *why)
{
    // K independent scenario variants derived from the config, stepped
    // together through the scenario-lane engine and compared lane by
    // lane against solo run(cycles) calls. Odd lanes flip the loop
    // flag, mixing finite and looping schedules, and the run lengths
    // stagger across lanes, so lanes retire mid-sweep and the group
    // repacks. The lane width comes from the config (laneWidth, or
    // the seed when unset), never the environment, keeping shrunk
    // repro files self-contained; simdLevel pins the kernel dispatch
    // for the check, clamped to the host's maximum so a repro written
    // on a wide host still replays — at the narrower level — anywhere.
    const std::size_t lanes = cfg.laneWidth != 0
        ? cfg.laneWidth
        : 1 + cfg.seed % simd::kMaxLanes;

    struct LevelGuard
    {
        simd::IsaLevel prev = simd::activeLevel();
        ~LevelGuard() { simd::setActiveLevel(prev); }
    } levelGuard;
    if (!cfg.simdLevel.empty()) {
        simd::IsaLevel wanted = simd::IsaLevel::Scalar;
        if (cfg.simdLevel == "avx2")
            wanted = simd::IsaLevel::Avx2;
        else if (cfg.simdLevel == "avx512")
            wanted = simd::IsaLevel::Avx512;
        const simd::IsaLevel host = simd::detectHostLevel();
        simd::setActiveLevel(
            static_cast<int>(wanted) <= static_cast<int>(host) ? wanted
                                                               : host);
    }
    const Cycles longest = std::min<Cycles>(cfg.cycles, 12'000);
    auto subConfig = [&](std::size_t i) {
        FuzzConfig c = cfg;
        c.seed = cfg.seed + 257 * i;
        c.cycles = longest - longest * i / (lanes + 1);
        if (i % 2 == 1)
            c.loop = !cfg.loop;
        return c;
    };

    std::vector<FuzzConfig> cfgs;
    cfgs.reserve(lanes);
    std::vector<sim::System> systems;
    systems.reserve(lanes);
    std::vector<sim::LanePlan> plans;
    plans.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
        cfgs.push_back(subConfig(i));
        systems.emplace_back(toSystemConfig(cfgs[i], false));
        addCores(systems.back(), cfgs[i]);
        plans.push_back({&systems.back(), cfgs[i].cycles});
    }
    sim::LaneGroup group(lanes);
    group.run(plans);

    for (std::size_t i = 0; i < lanes; ++i) {
        sim::System soloSys(toSystemConfig(cfgs[i], false));
        addCores(soloSys, cfgs[i]);
        soloSys.run(cfgs[i].cycles);
        const RunSummary laned = summarizeSystem(systems[i], cfgs[i]);
        const RunSummary solo = summarizeSystem(soloSys, cfgs[i]);
        const std::string diff = firstDifference(laned, solo);
        if (!diff.empty()) {
            if (why) {
                *why = "laned(width=" + std::to_string(lanes) +
                    ") != solo at lane " + std::to_string(i) + ": " +
                    diff;
            }
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// sampled_within_bounds
// ---------------------------------------------------------------------

bool
checkSampledWithinBounds(const FuzzConfig &cfg, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // The sampler never engages with an active trace; drop it from
    // both arms so they stay comparable.
    FuzzConfig local = cfg;
    local.enableTrace = false;

    auto makeConfig = [&](sim::SamplingConfig::Mode mode) {
        sim::SystemConfig sc = toSystemConfig(local, false);
        sc.sampling.mode = mode;
        sc.sampling.windowBlocks = local.samplingWindow;
        sc.sampling.stableWindows = local.samplingStable;
        sc.sampling.maxSkipWindows = local.samplingSkip;
        sc.sampling.guardBand = local.samplingGuard;
        return sc;
    };
    auto execute = [&](sim::SamplingConfig::Mode mode) {
        auto sys = std::make_unique<sim::System>(makeConfig(mode));
        addCores(*sys, local);
        sys->run(local.cycles);
        return sys;
    };

    auto exact = execute(sim::SamplingConfig::Mode::Off);
    auto sampled = execute(sim::SamplingConfig::Mode::Auto);
    auto sampled2 = execute(sim::SamplingConfig::Mode::Auto);

    const RunSummary se = summarizeSystem(*exact, local);
    const RunSummary ss = summarizeSystem(*sampled, local);
    const RunSummary ss2 = summarizeSystem(*sampled2, local);

    // Sampled execution is deterministic like everything else.
    if (const auto d = firstDifference(ss, ss2); !d.empty())
        return fail("sampled run not deterministic: " + d);

    // run(n) advances exactly n cycles either way, and the scope
    // histogram conserves mass exactly (one sample per cycle —
    // weighted extrapolation must not create or lose counts).
    if (ss.cycles != se.cycles) {
        return fail("sampled cycles " + std::to_string(ss.cycles) +
                    " != exact " + std::to_string(se.cycles));
    }
    if (ss.histTotal != se.histTotal) {
        return fail("sampled histogram mass " +
                    std::to_string(ss.histTotal) + " != exact " +
                    std::to_string(se.histTotal));
    }

    const sim::SamplingReport rep = sampled->samplingReport();
    const double frac = rep.simulatedFraction();
    if (!(std::isfinite(frac) && frac > 0.0 && frac <= 1.0)) {
        return fail("simulated fraction " + num(frac) +
                    " outside (0, 1]");
    }
    for (const auto &[name, bound] : rep.namedBounds()) {
        if (!(std::isfinite(bound) && bound >= 0.0))
            return fail("bound " + name + " = " + num(bound) +
                        " is not a finite non-negative number");
    }

    if (rep.extrapolatedCycles == 0) {
        // Nothing was fast-forwarded (ineligible system, unstable
        // workload, or guard-banded throughout): the sampled run must
        // be bit-identical to the exact one.
        if (const auto d = firstDifference(ss, se); !d.empty())
            return fail("no cycles extrapolated, yet sampled != "
                        "exact: " + d);
        return true;
    }

    // Post-skip execution is a different realization of the same
    // process, so every extrapolated metric is checked against the
    // report's own error bound.
    auto checkBound = [&](const std::string &name, double a, double b,
                          double bound) {
        if (std::abs(a - b) <= bound)
            return true;
        fail(name + ": |sampled " + num(a) + " - exact " + num(b) +
             "| > bound " + num(bound));
        return false;
    };

    if (!checkBound("max droop (hist min)", ss.histMin, se.histMin,
                    rep.maxDroopBound))
        return false;
    if (!checkBound("max overshoot (hist max)", ss.histMax, se.histMax,
                    rep.maxOvershootBound))
        return false;

    if (ss.bankEvents.size() != se.bankEvents.size())
        return fail("detector bank size differs");
    for (std::size_t i = 0; i < ss.bankEvents.size(); ++i) {
        if (!checkBound(
                "droop events at margin " + std::to_string(i),
                static_cast<double>(ss.bankEvents[i]),
                static_cast<double>(se.bankEvents[i]),
                rep.eventCountBound))
            return false;
        const double ds = ss.bankDeepest[i];
        const double de = se.bankDeepest[i];
        if (ds != 0.0 && de != 0.0) {
            if (!checkBound(
                    "deepest event at margin " + std::to_string(i),
                    ds, de, rep.deepestEventBound))
                return false;
        } else if (ds != de) {
            // Exactly one realization crossed this margin at all, so
            // the other's deepest is the no-event sentinel 0 and no
            // dispersion bound relates a full event depth to zero.
            // The sound statement is that such a lone event is
            // marginal: its depth exceeds the armed margin by no more
            // than the bound.
            const double depth = ds != 0.0 ? ds : de;
            const double margin =
                exact->droopBank().detector(i).margin();
            if (std::abs(std::abs(depth) - margin) >
                rep.deepestEventBound) {
                return fail("lone deepest event at margin " +
                            std::to_string(i) + ": depth " +
                            num(depth) + " not within bound " +
                            num(rep.deepestEventBound) +
                            " of margin " + num(margin));
            }
        }
    }

    if (local.enableTimeline) {
        if (ss.timeline.size() != se.timeline.size()) {
            return fail("timeline length " +
                        std::to_string(ss.timeline.size()) +
                        " != exact " +
                        std::to_string(se.timeline.size()));
        }
        for (std::size_t i = 0; i < ss.timeline.size(); ++i) {
            if (!checkBound("timeline[" + std::to_string(i) + "]",
                            ss.timeline[i], se.timeline[i],
                            rep.timelineElementBound))
                return false;
        }
    }

    for (std::size_t i = 0; i < local.cores.size(); ++i) {
        if (!checkBound(
                "core " + std::to_string(i) + " instructions",
                static_cast<double>(ss.coreInstructions[i]),
                static_cast<double>(se.coreInstructions[i]),
                rep.coreInstructionBound))
            return false;
        // The bound covers the per-core *total* stall count; the
        // per-cause split is a realization detail.
        std::uint64_t stallS = 0;
        std::uint64_t stallE = 0;
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses;
             ++c) {
            stallS += ss.coreStallCycles[
                i * cpu::PerfCounters::kNumCauses + c];
            stallE += se.coreStallCycles[
                i * cpu::PerfCounters::kNumCauses + c];
        }
        if (!checkBound("core " + std::to_string(i) + " stall cycles",
                        static_cast<double>(stallS),
                        static_cast<double>(stallE),
                        rep.coreStallCycleBound))
            return false;
    }

    // CDF fraction queries through the merged histogram (the fig07
    // observables).
    if (!checkBound("fraction below idle margin",
                    sampled->scope().fractionBelow(-sim::kIdleMargin),
                    exact->scope().fractionBelow(-sim::kIdleMargin),
                    rep.histFractionBound))
        return false;
    if (!checkBound(
            "fraction outside typical band",
            sampled->scope().fractionOutside(sim::kTypicalCaseBand),
            exact->scope().fractionOutside(sim::kTypicalCaseBand),
            rep.histFractionBound))
        return false;
    return true;
}

// ---------------------------------------------------------------------
// pdn_linearity
// ---------------------------------------------------------------------

/** Transient die-voltage response to a load waveform, from the
 *  zero-load DC operating point, ripple off. */
std::vector<double>
pdnResponse(const pdn::SecondOrderParams &params,
            const std::vector<double> &load)
{
    pdn::SecondOrderPdn pdn(params, sim::clockPeriod());
    pdn.reset(0.0);
    std::vector<double> v(load.size());
    for (std::size_t i = 0; i < load.size(); ++i)
        v[i] = pdn.step(load[i]);
    return v;
}

bool
checkPdnLinearity(const FuzzConfig &cfg, std::string *why)
{
    const auto params = pdn::secondOrderEquivalent(toPackageConfig(cfg));
    const double vdd = params.vdd.value();
    Rng rng(cfg.seed ^ 0x70646e6cULL); // "pdnl"

    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // Random piecewise-constant stimuli (10-100-cycle segments, up to
    // ~30 A — the scale of a few cores' di/dt events).
    constexpr std::size_t kSteps = 2'000;
    auto stimulus = [&]() {
        std::vector<double> u(kSteps);
        std::size_t i = 0;
        while (i < kSteps) {
            const std::size_t len = static_cast<std::size_t>(
                rng.uniformInt(10, 100));
            const double amps = rng.uniform(0.0, 30.0);
            for (std::size_t k = 0; k < len && i < kSteps; ++k, ++i)
                u[i] = amps;
        }
        return u;
    };

    const auto u1 = stimulus();
    const auto u2 = stimulus();
    std::vector<double> u12(kSteps);
    std::vector<double> u1x2(kSteps);
    for (std::size_t i = 0; i < kSteps; ++i) {
        u12[i] = u1[i] + u2[i];
        u1x2[i] = 2.0 * u1[i];
    }

    const auto y1 = pdnResponse(params, u1);
    const auto y2 = pdnResponse(params, u2);
    const auto y12 = pdnResponse(params, u12);
    const auto y1x2 = pdnResponse(params, u1x2);

    // Superposition: with the zero-load response identically vdd,
    // y(u1+u2) - vdd == (y(u1) - vdd) + (y(u2) - vdd) up to bounded
    // floating-point drift of the stable recurrence.
    constexpr double kTol = 1e-8;
    for (std::size_t i = 0; i < kSteps; ++i) {
        const double lhs = y12[i] - vdd;
        const double rhs = (y1[i] - vdd) + (y2[i] - vdd);
        if (std::abs(lhs - rhs) > kTol) {
            return fail("superposition violated at step " +
                        std::to_string(i) + ": " + num(lhs) + " vs " +
                        num(rhs));
        }
        const double sl = y1x2[i] - vdd;
        const double sr = 2.0 * (y1[i] - vdd);
        if (std::abs(sl - sr) > kTol) {
            return fail("scaling violated at step " +
                        std::to_string(i) + ": " + num(sl) + " vs " +
                        num(sr));
        }
    }

    // DC gain: the trapezoidal update's fixed point matches the
    // continuous DC solution exactly — droop == rSeries * I.
    const double amps = rng.uniform(1.0, 40.0);
    pdn::SecondOrderPdn pdn(params, sim::clockPeriod());
    pdn.reset(0.0);
    constexpr std::size_t kSettle = 6'000;
    double peak = 0.0;
    for (std::size_t i = 0; i < kSettle; ++i) {
        const double v = pdn.step(amps);
        peak = std::max(peak, vdd - v);
    }
    const double dcDroop = vdd - pdn.voltage();
    const double expected = params.rSeries.value() * amps;
    if (std::abs(dcDroop - expected) > 1e-9 + 1e-9 * expected) {
        return fail("DC gain: droop " + num(dcDroop) + " != R*I " +
                    num(expected));
    }

    // Step-response bound: a second-order tank driven by a current
    // step cannot droop deeper than the resistive drop plus one
    // characteristic-impedance swing (I * (Rs + Rd + sqrt(L/C))),
    // with headroom for the discrete-time peak.
    const double zc =
        std::sqrt(params.l.value() / params.c.value());
    const double bound = amps *
        (params.rSeries.value() + params.rDamp.value() + zc) * 1.2;
    if (peak > bound) {
        return fail("step-response peak droop " + num(peak) +
                    " exceeds second-order bound " + num(bound));
    }
    return true;
}

// ---------------------------------------------------------------------
// histogram_invariants
// ---------------------------------------------------------------------

std::string
histDifference(const Histogram &a, const Histogram &b)
{
    if (a.totalCount() != b.totalCount())
        return "total " + std::to_string(a.totalCount()) + " != " +
            std::to_string(b.totalCount());
    if (a.underflowCount() != b.underflowCount())
        return "underflow differs";
    if (a.overflowCount() != b.overflowCount())
        return "overflow differs";
    if (a.totalCount() > 0 &&
        (a.minSample() != b.minSample() ||
         a.maxSample() != b.maxSample())) {
        return "min/max differ";
    }
    for (std::size_t i = 0; i < a.numBins(); ++i) {
        if (a.binCount(i) != b.binCount(i))
            return "bin " + std::to_string(i) + " differs";
    }
    return "";
}

bool
checkHistogramInvariants(const FuzzConfig &cfg, std::string *why)
{
    Rng rng(cfg.seed ^ 0x68697374ULL); // "hist"
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    const double lo = rng.uniform(-0.3, 0.0);
    const double hi = lo + rng.uniform(0.01, 0.5);
    const std::size_t bins =
        static_cast<std::size_t>(rng.uniformInt(1, 64));

    // Three sample sets mixing in-range bulk, out-of-range tails, and
    // exact-edge values (lo itself, and just under hi).
    auto drawSamples = [&]() {
        std::vector<double> xs(
            static_cast<std::size_t>(rng.uniformInt(0, 300)));
        for (double &x : xs) {
            const double p = rng.uniform();
            if (p < 0.75)
                x = rng.uniform(lo, hi);
            else if (p < 0.85)
                x = rng.uniform(lo - 0.5, hi + 0.5);
            else if (p < 0.95)
                x = lo;
            else
                x = std::nextafter(hi, lo);
        }
        return xs;
    };
    const auto s1 = drawSamples();
    const auto s2 = drawSamples();
    const auto s3 = drawSamples();

    auto fill = [&](const std::vector<double> &xs) {
        Histogram h(lo, hi, bins);
        for (double x : xs)
            h.add(x);
        return h;
    };
    const Histogram h1 = fill(s1);
    const Histogram h2 = fill(s2);
    const Histogram h3 = fill(s3);

    // Mass conservation: every sample is counted exactly once.
    std::uint64_t binned = 0;
    for (std::size_t i = 0; i < h1.numBins(); ++i)
        binned += h1.binCount(i);
    if (h1.totalCount() != s1.size() ||
        binned + h1.underflowCount() + h1.overflowCount() !=
            h1.totalCount()) {
        return fail("histogram mass not conserved: " +
                    std::to_string(binned) + " binned + " +
                    std::to_string(h1.underflowCount()) + " under + " +
                    std::to_string(h1.overflowCount()) + " over != " +
                    std::to_string(h1.totalCount()));
    }

    // Block feed == scalar feed.
    Histogram hb(lo, hi, bins);
    hb.addBlock(s1.data(), s1.size());
    if (const auto d = histDifference(h1, hb); !d.empty())
        return fail("addBlock != add: " + d);

    // Quantile extremes are the exact tracked samples.
    if (h1.totalCount() > 0) {
        if (h1.quantile(0.0) != h1.minSample() ||
            h1.quantile(1.0) != h1.maxSample()) {
            return fail("quantile(0)/quantile(1) are not the exact "
                        "min/max samples");
        }
    }

    auto merged = [&](const Histogram &a, const Histogram &b) {
        Histogram m = a;
        m.merge(b);
        return m;
    };

    // Commutativity.
    if (const auto d =
            histDifference(merged(h1, h2), merged(h2, h1));
        !d.empty()) {
        return fail("merge not commutative: " + d);
    }
    // Associativity.
    if (const auto d = histDifference(merged(merged(h1, h2), h3),
                                      merged(h1, merged(h2, h3)));
        !d.empty()) {
        return fail("merge not associative: " + d);
    }
    // Merge == concatenation.
    std::vector<double> concat = s1;
    concat.insert(concat.end(), s2.begin(), s2.end());
    if (const auto d = histDifference(merged(h1, h2), fill(concat));
        !d.empty()) {
        return fail("merge != concatenated samples: " + d);
    }
    return true;
}

// ---------------------------------------------------------------------
// result_roundtrip
// ---------------------------------------------------------------------

bool
checkResultRoundtrip(const FuzzConfig &cfg, std::string *why)
{
    Rng rng(cfg.seed ^ 0x726a736eULL); // "rjsn"
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // Values chosen to stress the %.17g round-trip: signed zeros,
    // non-terminating binary fractions, denormal-adjacent and huge
    // magnitudes, plus uniform draws.
    static const double kAwkward[] = {0.0,     -0.0,   1.0 / 3.0,
                                      1.1e-308, 1e308, -9.87654321e300,
                                      6.02214076e23};
    auto value = [&]() {
        if (rng.bernoulli(0.4)) {
            return kAwkward[rng.uniformInt(
                0, std::size(kAwkward) - 1)];
        }
        return rng.uniform(-1e6, 1e6);
    };

    Result r("fuzz_" + std::to_string(cfg.seed));
    r.setSeed(cfg.seed);
    r.setJobs(cfg.jobs);
    const std::size_t nMetrics = rng.uniformInt(0, 12);
    for (std::size_t i = 0; i < nMetrics; ++i)
        r.metric("metric_" + std::to_string(i), value());
    const std::size_t nSeries = rng.uniformInt(0, 4);
    for (std::size_t i = 0; i < nSeries; ++i) {
        std::vector<double> vs(rng.uniformInt(0, 16));
        for (double &v : vs)
            v = value();
        r.series("series_" + std::to_string(i), std::move(vs));
    }

    const std::string text = r.toJson().dump(2);
    std::string error;
    const Json parsed = Json::parse(text, &error);
    if (!error.empty())
        return fail("emitted JSON does not parse: " + error);
    Result back;
    if (!Result::fromJson(parsed, back, &error))
        return fail("emitted JSON does not load as Result: " + error);
    const std::string text2 = back.toJson().dump(2);
    if (text != text2) {
        return fail("Result JSON round-trip not lossless (re-dump "
                    "differs)");
    }
    const auto report = compareResults(r, back, nullptr,
                                       Tolerance{0.0, 0.0});
    if (!report.pass) {
        return fail("round-tripped Result fails zero-tolerance "
                    "comparison at '" +
                    report.diffs.front().name + "'");
    }
    return true;
}

// ---------------------------------------------------------------------
// adaptive_margin_invariants
// ---------------------------------------------------------------------

bool
checkAdaptiveMarginInvariants(const FuzzConfig &cfg, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // Arm the controller whatever the draw said, dropping the fixed
    // fail-safe (the two are mutually exclusive margin authorities).
    FuzzConfig on = cfg;
    on.controller = true;
    on.emergencyMargin = 0.0;
    on.recoveryCost = 0;
    on.cycles = std::min<Cycles>(cfg.cycles, 30'000);

    sim::System sys(toSystemConfig(on, false));
    addCores(sys, on);
    sys.run(on.cycles);

    const auto *mc = sys.marginController();
    if (!mc)
        return fail("controller configured but not constructed");

    // Saturation: every margin ever in force stayed inside the bounds.
    const double lo = on.ctrlMinMargin;
    const double hi = on.ctrlMaxMargin;
    if (!(mc->margin() >= lo && mc->margin() <= hi)) {
        return fail("final margin " + num(mc->margin()) +
                    " outside [" + num(lo) + ", " + num(hi) + "]");
    }
    if (mc->minMarginSeen() < lo || mc->maxMarginSeen() > hi) {
        return fail("margin excursion [" + num(mc->minMarginSeen()) +
                    ", " + num(mc->maxMarginSeen()) +
                    "] outside bounds [" + num(lo) + ", " + num(hi) +
                    "]");
    }
    if (mc->minMarginSeen() > mc->maxMarginSeen())
        return fail("min margin seen exceeds max margin seen");
    const double avg = mc->averageMargin();
    if (avg < mc->minMarginSeen() - 1e-12 ||
        avg > mc->maxMarginSeen() + 1e-12) {
        return fail("average margin " + num(avg) +
                    " outside seen range [" + num(mc->minMarginSeen()) +
                    ", " + num(mc->maxMarginSeen()) + "]");
    }

    // The trajectory is deterministic, controller observables included.
    const RunSummary s1 = summarizeSystem(sys, on);
    if (!s1.controllerActive)
        return fail("summary did not capture the controller");
    if (const auto d = firstDifference(s1, summarizeRun(on, false));
        !d.empty()) {
        return fail("controller trajectory not deterministic: " + d);
    }

    // Controller-off bit-identity: the ctrl knobs must be inert when
    // the controller is off.
    FuzzConfig off = on;
    off.controller = false;
    FuzzConfig plain = off;
    const FuzzConfig defaults;
    plain.ctrlInitialMargin = defaults.ctrlInitialMargin;
    plain.ctrlMinMargin = defaults.ctrlMinMargin;
    plain.ctrlMaxMargin = defaults.ctrlMaxMargin;
    plain.ctrlWidenStep = defaults.ctrlWidenStep;
    plain.ctrlRecoveryCost = defaults.ctrlRecoveryCost;
    if (const auto d = firstDifference(summarizeRun(off, false),
                                       summarizeRun(plain, false));
        !d.empty()) {
        return fail("controller-off run depends on controller params: " +
                    d);
    }

    // Zero-gain identity: a controller frozen at margin m (equal
    // bounds, zero gains, zero widen step) is the fixed-margin
    // emergency engine at m, bit for bit.
    {
        const double m = on.ctrlInitialMargin;

        sim::SystemConfig fixedCfg = toSystemConfig(on, false);
        fixedCfg.enableMarginController = false;
        fixedCfg.marginControllerParams = {};
        fixedCfg.emergencyMargin = m;
        fixedCfg.recoveryCostCycles = on.ctrlRecoveryCost;
        sim::System fixedSys(fixedCfg);
        addCores(fixedSys, on);

        sim::SystemConfig frozenCfg = toSystemConfig(on, false);
        frozenCfg.marginControllerParams.initialMargin = m;
        frozenCfg.marginControllerParams.minMargin = m;
        frozenCfg.marginControllerParams.maxMargin = m;
        frozenCfg.marginControllerParams.kp = 0.0;
        frozenCfg.marginControllerParams.ki = 0.0;
        frozenCfg.marginControllerParams.widenStep = 0.0;
        sim::System frozenSys(frozenCfg);
        addCores(frozenSys, on);

        fixedSys.run(on.cycles);
        frozenSys.run(on.cycles);

        const auto *fz = frozenSys.marginController();
        if (!fz || fz->minMarginSeen() != m || fz->maxMarginSeen() != m)
            return fail("zero-gain controller moved its margin");
        if (frozenSys.emergencies() != fz->widenings()) {
            return fail("frozen-controller emergencies " +
                        std::to_string(frozenSys.emergencies()) +
                        " != violations " +
                        std::to_string(fz->widenings()));
        }

        // Compare engine observables only — the frozen side reports
        // controller stats the fixed engine has no counterpart for.
        auto engineOnly = [](RunSummary s) {
            s.controllerActive = false;
            s.ctrlFinalMargin = 0.0;
            s.ctrlAvgMargin = 0.0;
            s.ctrlMinMargin = 0.0;
            s.ctrlMaxMargin = 0.0;
            s.ctrlUpdates = 0;
            s.ctrlWidenings = 0;
            return s;
        };
        if (const auto d = firstDifference(
                engineOnly(summarizeSystem(fixedSys, on)),
                engineOnly(summarizeSystem(frozenSys, on)));
            !d.empty()) {
            return fail("zero-gain controller != fixed margin " +
                        num(m) + ": " + d);
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// fault_injection_determinism
// ---------------------------------------------------------------------

bool
checkFaultInjectionDeterminism(const FuzzConfig &cfg, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    cpu::FaultModelParams fm;
    fm.rateAtZeroMargin = cfg.faultRate;

    // Exactly zero at the safe margin — not "very unlikely", zero.
    {
        cpu::FaultInjector inj(fm, cfg.seed);
        const std::size_t id = inj.registerStructure();
        inj.setMargin(fm.safeMargin);
        if (inj.faultProbability() != 0.0 || inj.threshold() != 0)
            return fail("nonzero fault probability at the safe margin");
        for (std::uint64_t i = 0; i < 4096; ++i)
            if (inj.shouldFault(id, i))
                return fail("fault fired at the safe margin");
    }

    // Decision-level invariants at two margins below safe: replay
    // identity, and exact nesting (every access that faults at the
    // wider margin also faults at the thinner one).
    const double thin = std::min(cfg.faultMargin, 0.6 * fm.safeMargin);
    const double wide = 0.5 * (thin + fm.safeMargin);
    constexpr std::uint64_t kAccesses = 50'000;

    auto decisions = [&](double margin) {
        cpu::FaultInjector inj(fm, cfg.seed);
        const std::size_t id = inj.registerStructure();
        inj.setMargin(margin);
        std::vector<char> out(kAccesses);
        for (std::uint64_t i = 0; i < kAccesses; ++i)
            out[i] = inj.shouldFault(id, i) ? 1 : 0;
        return out;
    };
    const auto thinSeq = decisions(thin);
    if (decisions(thin) != thinSeq)
        return fail("same seed, different fault sequence");
    const auto wideSeq = decisions(wide);
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        if (wideSeq[i] && !thinSeq[i]) {
            return fail("fault sets not nested: access " +
                        std::to_string(i) + " faults at margin " +
                        num(wide) + " but not at thinner " + num(thin));
        }
    }

    // Shard invariance: the pure decision oracle partitioned across
    // cfg.jobs worker threads reproduces the serial sequence exactly.
    {
        cpu::FaultInjector inj(fm, cfg.seed);
        const std::size_t id = inj.registerStructure();
        inj.setMargin(thin);
        const std::uint64_t threshold = inj.threshold();
        const std::uint64_t seed = cfg.seed;

        constexpr std::size_t kShards = 8;
        JobsGuard guard;
        setJobs(static_cast<std::size_t>(cfg.jobs));
        const auto sharded = parallelMap<std::vector<char>>(
            kShards, [&](std::size_t s) {
                std::vector<char> out;
                for (std::uint64_t i = s; i < kAccesses; i += kShards) {
                    out.push_back(cpu::FaultInjector::wouldFault(
                                      seed, id, i, threshold)
                                      ? 1
                                      : 0);
                }
                return out;
            });
        for (std::uint64_t i = 0; i < kAccesses; ++i) {
            if (sharded[i % kShards][i / kShards] != thinSeq[i]) {
                return fail("sharded decision differs from serial at "
                            "access " + std::to_string(i));
            }
        }
    }

    // System level: the fault rig's per-structure fault/miss counters
    // are conserved between the blocked and per-cycle paths, and
    // replay exactly.
    const Cycles cycles = std::min<Cycles>(cfg.cycles, 20'000);
    const auto blocked =
        runFaultRig(cfg.seed, thin, cfg.faultRate, cycles, false);
    const auto scalar =
        runFaultRig(cfg.seed, thin, cfg.faultRate, cycles, true);
    if (!(blocked == scalar)) {
        return fail("fault rig blocked != scalar: faults l1d " +
                    std::to_string(blocked.l1dFaults) + "/" +
                    std::to_string(scalar.l1dFaults) + ", l2 " +
                    std::to_string(blocked.l2Faults) + "/" +
                    std::to_string(scalar.l2Faults) + ", tlb " +
                    std::to_string(blocked.tlbFaults) + "/" +
                    std::to_string(scalar.tlbFaults) +
                    ", instructions " +
                    std::to_string(blocked.instructions) + "/" +
                    std::to_string(scalar.instructions));
    }
    if (!(runFaultRig(cfg.seed, thin, cfg.faultRate, cycles, false) ==
          blocked)) {
        return fail("fault rig replay differs");
    }
    return true;
}

} // namespace

const std::vector<Property> &
propertyRegistry()
{
    static const std::vector<Property> registry = {
        {"blocked_vs_scalar", "sim/system",
         "batched tick pipeline bit-identical to per-cycle execution",
         nullptr, &checkBlockedVsScalar},
        {"run_twice_determinism", "sim/system",
         "same seed reproduces every observable exactly",
         nullptr, &checkRunTwiceDeterminism},
        {"sampled_within_bounds", "sim/sampler",
         "sampled execution deterministic, mass-conserving, and "
         "within its reported error bounds vs exact",
         "samplingWindow {2,4,8,16} blocks; samplingStable 1..4; "
         "samplingSkip {2,8,32,128}; samplingGuard 2e-4..5e-3",
         &checkSampledWithinBounds},
        {"parallel_vs_serial", "sim/sweep",
         "parallelMap sweep bit-identical for any job count",
         "jobs 1..6", &checkParallelVsSerial},
        {"laned_vs_scalar", "sim/sweep",
         "scenario-lane engine bit-identical to solo runs at any "
         "lane width and SIMD level",
         "laneWidth 0 (seed-derived) or 1..16; simdLevel ambient or "
         "host-clamped scalar/avx2/avx512",
         &checkLanedVsScalar},
        {"pdn_linearity", "pdn",
         "PDN superposition/scaling, exact DC gain, bounded step "
         "response",
         nullptr, &checkPdnLinearity},
        {"histogram_invariants", "common",
         "mass conservation, block==scalar feed, merge "
         "commutativity/associativity",
         nullptr, &checkHistogramInvariants},
        {"result_roundtrip", "common",
         "Result -> JSON -> Result is lossless",
         nullptr, &checkResultRoundtrip},
        {"adaptive_margin_invariants", "resilience",
         "controller margin bounded and deterministic; controller-off "
         "bit-identical to the plain engine; zero gains == fixed "
         "margin",
         "ctrlMinMargin 0.01..0.04; ctrlMaxMargin +0.02..0.12; "
         "ctrlWidenStep 0 or 0.002..0.03; ctrlRecoveryCost 1..2000",
         &checkAdaptiveMarginInvariants},
        {"fault_injection_determinism", "cpu",
         "fault sets exactly nested across margins, zero at the safe "
         "margin, identical under any shard or blocked/scalar "
         "partition",
         "faultMargin 0..0.06; faultRate 1e-4..0.05",
         &checkFaultInjectionDeterminism},
    };
    return registry;
}

const Property *
findProperty(std::string_view name)
{
    for (const Property &p : propertyRegistry())
        if (name == p.name)
            return &p;
    return nullptr;
}

} // namespace vsmooth::simtest
