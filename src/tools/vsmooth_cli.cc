/**
 * @file
 * vsmooth — command-line driver for the simulation stack.
 *
 * A downstream user's entry point: run any workload combination on
 * any platform variant and get the noise characterization, the
 * resilient-design analysis, or a raw waveform trace without writing
 * C++.
 *
 * Each command declares its flags once, as rows of the command table
 * below; one parser walks argv against that table, and the usage text
 * is printed from it. An unknown flag prints the command's own flags
 * and exits 2. Only `run` takes operands (its benchmark names).
 *
 *   vsmooth run [flags] <benchmark> [benchmark2]
 *     --decap F        package decap fraction (1.0 = Proc100, default)
 *     --cycles N       cycles to simulate (default 2000000)
 *     --margin M       operating margin fraction; enables the fail-safe
 *     --recovery N     recovery cost in cycles (with --margin)
 *     --predictor      enable the signature emergency predictor
 *     --damper         enable resonance-aware throttling
 *     --split          split per-core supplies
 *     --trace FILE     write a CSV waveform trace of the last 64K cycles
 *     --seed S         RNG seed
 *     --sampling M     off|auto: phase-sampled execution (default:
 *                      the VSMOOTH_SAMPLING environment variable;
 *                      off is bit-identical to exact execution)
 *   vsmooth list                        workloads
 *   vsmooth impedance [--decap F]       PDN impedance sweep (Fig 4)
 *   vsmooth reset-droop [--decap F]     reset-stimulus droop (Fig 5)
 *   vsmooth verify [flags]              golden-result regression
 *     --bench-dir D    directory of experiment binaries (build/bench)
 *     --golden-dir D   directory of golden JSONs (bench/golden)
 *     --work-dir D     where fresh results are written (default: a
 *                      per-process directory under the temp dir)
 *     --experiments L  comma-separated experiment names (repeatable)
 *     --all            run every registered experiment
 *     --update         rewrite the goldens from this run
 *     --list           print the experiment registry and exit
 *     --verbose        let experiment output through to stderr
 *   vsmooth fuzz [flags]                property-based differential testing
 *     --seed S         generation seed (default 1)
 *     --iters N        configs to generate and check (default 1000)
 *     --properties L   comma-separated property names, repeatable
 *                      (default: all)
 *     --repro FILE     replay one repro file instead of generating
 *     --corpus DIR     replay every *.json repro in DIR
 *     --repro-out F    where a newly shrunk repro is written
 *     --summary FILE   write a deterministic per-property JSON summary
 *     --lanes K        force every config's lane width (1..16)
 *     --list           print the property registry and exit
 *     --verbose        per-property progress output
 *   vsmooth serve [flags]               sweep-as-a-service daemon
 *     --socket PATH    listen on a Unix-domain socket
 *     --port N         listen on 127.0.0.1:N (0 = ephemeral)
 *     --workers N      executor threads (default 2)
 *     --cache-bytes N  Result cache budget (default 64 MiB, 0 = off)
 *     --queue N        bounded queue capacity (default 256)
 *     --ready-file F   write "<kind> <address>" here once listening
 *   vsmooth client [flags]              submit a batch to a daemon
 *     --socket PATH | --port N   where the daemon listens
 *     --batch FILE     items array (or {"items": [...]}) to submit
 *     --id NAME        batch id echoed in responses (default "cli")
 *     --local          run the batch in-process (offline reference)
 *     --results-only   print one serialized Result per item
 *     --shutdown       ask the daemon to drain and exit
 *     --stats          print cache/queue counters
 *
 * run, verify, fuzz, serve and client also take
 *     --jobs N         worker threads for parallel sweeps (default: all
 *                      cores; 1 forces the serial path). It sets
 *                      VSMOOTH_JOBS too, so the experiments `verify`
 *                      spawns inherit it; results are identical for
 *                      any job count.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/ac.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "pdn/droop_analysis.hh"
#include "pdn/ladder.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "simtest/fuzz.hh"
#include "verify.hh"
#include "workload/microbench.hh"
#include "workload/parsec.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

std::uint64_t
parseU64(const char *value, const char *flag, std::uint64_t lo = 0,
         std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
{
    // Integer flags parse as integers: no silent precision loss for
    // 64-bit seeds, no "1e6"-style or partially-numeric input.
    const auto v = tryParseU64(value);
    if (!v)
        fatal("bad value '%s' for %s (expected an unsigned integer)",
              value, flag);
    if (*v < lo || *v > hi)
        fatal("%s %llu outside [%llu, %llu]", flag,
              static_cast<unsigned long long>(*v),
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    return *v;
}

/** The non-empty items of a comma-separated list. */
std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::istringstream in(list);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            items.push_back(item);
    }
    return items;
}

/**
 * One flag of a command. `value` names the flag's argument in the
 * usage text, or is nullptr for a switch; `set` receives the argument
 * (nullptr for a switch).
 */
struct Flag
{
    const char *name;
    const char *value;
    std::function<void(const char *)> set;
};

Flag
toggle(const char *name, bool &out)
{
    return {name, nullptr, [&out](const char *) { out = true; }};
}

Flag
text(const char *name, const char *value, std::string &out)
{
    return {name, value, [&out](const char *v) { out = v; }};
}

Flag
commaList(const char *name, std::vector<std::string> &out)
{
    return {name, "a,b,c",
            [&out](const char *v) {
                for (auto &item : splitList(v))
                    out.push_back(std::move(item));
            }};
}

Flag
real(const char *name, const char *value, double &out)
{
    return {name, value, [&out, name](const char *v) {
                const auto d = tryParseDouble(v);
                if (!d)
                    fatal("bad value '%s' for %s", v, name);
                out = *d;
            }};
}

/** An unsigned integer flag, range-checked to [lo, hi] (by default
 *  everything the member can hold). */
template <typename T>
Flag
integer(const char *name, const char *value, T &out,
        std::uint64_t lo = 0,
        std::uint64_t hi = std::numeric_limits<T>::max())
{
    return {name, value, [&out, name, lo, hi](const char *v) {
                out = static_cast<T>(parseU64(v, name, lo, hi));
            }};
}

/** `--jobs N`: sizes this process's pool and, through VSMOOTH_JOBS,
 *  the pool of every experiment binary `verify` spawns. */
Flag
jobsFlag()
{
    return {"--jobs", "N", [](const char *v) {
                const std::uint64_t n = parseU64(v, "--jobs", 1);
                setJobs(static_cast<std::size_t>(n));
                setenv("VSMOOTH_JOBS", std::to_string(n).c_str(), 1);
            }};
}

/** One subcommand: its flag table, its operands and what it runs. */
struct Command
{
    const char *name;
    /** Operands shown after the flags in usage; nullptr when the
     *  command takes none. */
    const char *operands;
    std::vector<Flag> flags;
    /** Runs the command once its flags are applied. */
    std::function<int(std::vector<std::string>)> run;
};

/** Print `vsmooth <name> [flags] <operands>`, wrapped. */
void
printSynopsis(const Command &c)
{
    std::string line = std::string("  vsmooth ") + c.name;
    auto add = [&](const std::string &word) {
        if (line.size() + 1 + word.size() > 76) {
            std::cerr << line << "\n";
            line = "     ";
        }
        line += " " + word;
    };
    for (const Flag &f : c.flags) {
        std::string word = std::string("[") + f.name;
        if (f.value)
            word.append(" ").append(f.value);
        add(word + "]");
    }
    if (c.operands)
        add(c.operands);
    std::cerr << line << "\n";
}

[[noreturn]] void
usage(const std::vector<Command> &commands)
{
    std::cerr << "usage:\n";
    for (const Command &c : commands)
        printSynopsis(c);
    std::exit(2);
}

/**
 * Apply argv[2..] to `cmd`'s flags and return its operands. An
 * unknown flag, or an operand the command does not take, prints the
 * command's usage and exits 2.
 */
std::vector<std::string>
parseFlags(const Command &cmd, int argc, char **argv)
{
    std::vector<std::string> operands;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto flag =
            std::find_if(cmd.flags.begin(), cmd.flags.end(),
                         [&](const Flag &f) { return arg == f.name; });
        if (flag != cmd.flags.end()) {
            if (flag->value && i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            flag->set(flag->value ? argv[++i] : nullptr);
        } else if (cmd.operands && !arg.empty() && arg[0] != '-') {
            operands.push_back(arg);
        } else {
            usage({cmd});
        }
    }
    return operands;
}

int
cmdList()
{
    TextTable spec("SPEC CPU2006 workloads");
    spec.setHeader({"name", "stall ratio", "memory-bound", "IPC",
                    "phases"});
    for (const auto &b : workload::specCpu2006()) {
        const char *pattern =
            b.pattern == workload::PhasePattern::Flat ? "flat"
            : b.pattern == workload::PhasePattern::Steps ? "steps"
                                                         : "oscillating";
        spec.addRow({b.name, TextTable::num(b.stallRatio, 2),
                     TextTable::num(b.memoryBoundness, 2),
                     TextTable::num(b.ipcRunning, 2), pattern});
    }
    spec.print(std::cout);

    TextTable parsec("PARSEC workloads (multi-threaded)");
    parsec.setHeader({"name", "stall ratio", "memory-bound", "IPC"});
    for (const auto &b : workload::parsecSuite()) {
        parsec.addRow({b.name, TextTable::num(b.stallRatio, 2),
                       TextTable::num(b.memoryBoundness, 2),
                       TextTable::num(b.ipcRunning, 2)});
    }
    std::cout << "\n";
    parsec.print(std::cout);
    return 0;
}

int
cmdImpedance(double decap)
{
    const auto cfg =
        pdn::PackageConfig::core2duo().withDecapFraction(decap);
    auto net = pdn::buildLadder(cfg, 1);
    const auto sweep = circuit::impedanceSweep(net.net, net.dieNode,
                                               Hertz(1e6), Hertz(500e6),
                                               40);
    TextTable t("impedance, decap fraction " + TextTable::num(decap, 2));
    t.setHeader({"freq (MHz)", "|Z| (mOhm)"});
    for (const auto &p : sweep)
        t.addRow({TextTable::num(p.frequencyHz / 1e6, 2),
                  TextTable::num(p.magnitude() * 1e3, 3)});
    t.print(std::cout);
    const auto peak = circuit::resonancePeak(sweep);
    std::cout << "resonance: " << TextTable::num(peak.frequencyHz / 1e6, 0)
              << " MHz, " << TextTable::num(peak.magnitude() * 1e3, 2)
              << " mOhm\n";
    return 0;
}

int
cmdResetDroop(double decap)
{
    const auto cfg =
        pdn::PackageConfig::core2duo().withDecapFraction(decap);
    const auto wf = pdn::simulateReset(cfg);
    std::cout << "decap fraction " << TextTable::num(decap, 2)
              << ": droop " << TextTable::num(wf.maxDroop() * 1e3, 1)
              << " mV, overshoot "
              << TextTable::num(wf.maxOvershoot() * 1e3, 1)
              << " mV, p2p " << TextTable::num(wf.peakToPeak() * 1e3, 1)
              << " mV\n";
    return 0;
}

struct RunOptions
{
    double decap = 1.0;
    Cycles cycles = 2'000'000;
    double margin = 0.0;
    std::uint32_t recovery = 0;
    bool predictor = false;
    bool damper = false;
    bool split = false;
    std::string traceFile;
    std::uint64_t seed = 1;
    /** Resolved sampling mode (Env = defer to VSMOOTH_SAMPLING). */
    sim::SamplingConfig::Mode sampling = sim::SamplingConfig::Mode::Env;
    std::vector<std::string> benchmarks;
};

int
cmdRun(const RunOptions &opt)
{
    if (opt.benchmarks.empty() || opt.benchmarks.size() > 2)
        fatal("run takes one or two benchmark names");
    // A fail-safe request that cannot arm is an error, not a silent
    // run without one.
    if (!(opt.margin >= 0.0))
        fatal("--margin %g outside [0, inf)", opt.margin);
    if (opt.recovery > 0 && opt.margin == 0.0)
        fatal("--recovery needs a positive --margin");

    sim::SystemConfig cfg;
    cfg.package =
        pdn::PackageConfig::core2duo().withDecapFraction(opt.decap);
    cfg.enableTrace = !opt.traceFile.empty();
    cfg.splitSupplies = opt.split;
    cfg.enableEmergencyPredictor = opt.predictor;
    cfg.enableResonanceDamper = opt.damper;
    if (opt.margin > 0.0) {
        cfg.emergencyMargin = opt.margin;
        cfg.recoveryCostCycles = opt.recovery > 0 ? opt.recovery : 1000;
    }
    cfg.sampling.mode = opt.sampling;

    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(opt.benchmarks[0]),
                              opt.cycles, true),
        opt.seed + 1));
    if (opt.benchmarks.size() == 2) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(
                workload::specByName(opt.benchmarks[1]), opt.cycles,
                true),
            opt.seed + 2));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), opt.seed + 2));
    }
    sys.run(opt.cycles);

    TextTable t("vsmooth run");
    t.setHeader({"metric", "value"});
    t.addRow({"cycles", TextTable::num(sys.cycles())});
    t.addRow({"max droop (%)",
              TextTable::num(sys.scope().maxDroop() * 100, 2)});
    t.addRow({"max overshoot (%)",
              TextTable::num(sys.scope().maxOvershoot() * 100, 2)});
    t.addRow({"droops/1K cycles (2.3%)",
              TextTable::num(1000.0 * sys.scope().fractionBelow(-0.023),
                             1)});
    t.addRow({"samples beyond +/-4% (%)",
              TextTable::num(sys.scope().fractionOutside(0.04) * 100,
                             4)});
    for (std::size_t c = 0; c < sys.numCores(); ++c) {
        t.addRow({"core" + TextTable::num(static_cast<int>(c)) + " IPC",
                  TextTable::num(sys.core(c).counters().ipc(), 2)});
        t.addRow({"core" + TextTable::num(static_cast<int>(c)) +
                      " stall ratio",
                  TextTable::num(sys.core(c).counters().stallRatio(),
                                 2)});
    }
    if (opt.margin > 0.0)
        t.addRow({"emergencies", TextTable::num(sys.emergencies())});
    if (sys.predictor()) {
        t.addRow({"predictor throttled cycles",
                  TextTable::num(sys.predictor()->throttledCycles())});
    }
    if (sys.damper()) {
        t.addRow({"damper throttled cycles",
                  TextTable::num(sys.damper()->throttledCycles())});
    }
    if (sys.samplingActive()) {
        const sim::SamplingReport rep = sys.samplingReport();
        t.addRow({"sampling: simulated fraction",
                  TextTable::num(rep.simulatedFraction(), 4)});
        t.addRow({"sampling: fast-forward skips",
                  TextTable::num(rep.skips)});
        t.addRow({"sampling: max droop bound (%)",
                  TextTable::num(rep.maxDroopBound * 100, 3)});
        t.addRow({"sampling: CDF fraction bound",
                  TextTable::num(rep.histFractionBound, 4)});
    }
    t.print(std::cout);

    if (!opt.traceFile.empty()) {
        std::ofstream out(opt.traceFile);
        if (!out)
            fatal("cannot open trace file '%s'", opt.traceFile.c_str());
        sys.trace().writeCsv(out);
        std::cout << "trace written to " << opt.traceFile << "\n";
    }
    return 0;
}

int
cmdVerifyList()
{
    TextTable t("registered experiments");
    t.setHeader({"experiment", "default subset"});
    for (const auto &e : tools::experimentRegistry())
        t.addRow({e.name, e.fast ? "yes" : "no (--all)"});
    t.print(std::cout);
    return 0;
}

/** Every command's options, filled in by its flag table. */
struct Options
{
    double decap = 1.0;
    RunOptions run;
    tools::VerifyOptions verify;
    bool verifyList = false;
    simtest::FuzzOptions fuzz;
    serve::ServeOptions serve;
    serve::ClientOptions client;
};

/** The command table. Its setters and runners refer into `o`, which
 *  must outlive the table. */
std::vector<Command>
commandTable(Options &o)
{
    using Mode = sim::SamplingConfig::Mode;
    RunOptions &r = o.run;
    tools::VerifyOptions &v = o.verify;
    simtest::FuzzOptions &f = o.fuzz;
    serve::ServeOptions &s = o.serve;
    serve::ClientOptions &c = o.client;
    return {
        {"run", "<benchmark> [benchmark2]",
         {real("--decap", "F", r.decap),
          integer("--cycles", "N", r.cycles),
          real("--margin", "M", r.margin),
          integer("--recovery", "N", r.recovery),
          toggle("--predictor", r.predictor),
          toggle("--damper", r.damper), toggle("--split", r.split),
          text("--trace", "FILE", r.traceFile),
          integer("--seed", "S", r.seed),
          {"--sampling", "off|auto",
           [&r](const char *m) {
               if (std::string(m) == "off")
                   r.sampling = Mode::Off;
               else if (std::string(m) == "auto")
                   r.sampling = Mode::Auto;
               else
                   fatal("bad value '%s' for --sampling (off|auto)", m);
           }},
          jobsFlag()},
         [&r](std::vector<std::string> benchmarks) {
             r.benchmarks = std::move(benchmarks);
             return cmdRun(r);
         }},
        {"list", nullptr, {}, [](auto) { return cmdList(); }},
        {"impedance", nullptr, {real("--decap", "F", o.decap)},
         [&o](auto) { return cmdImpedance(o.decap); }},
        {"reset-droop", nullptr, {real("--decap", "F", o.decap)},
         [&o](auto) { return cmdResetDroop(o.decap); }},
        {"verify", nullptr,
         {text("--bench-dir", "D", v.benchDir),
          text("--golden-dir", "D", v.goldenDir),
          text("--work-dir", "D", v.workDir),
          commaList("--experiments", v.experiments),
          toggle("--all", v.all), toggle("--update", v.update),
          toggle("--list", o.verifyList),
          toggle("--verbose", v.verbose), jobsFlag()},
         [&o](auto) {
             return o.verifyList ? cmdVerifyList()
                                 : tools::runVerify(o.verify);
         }},
        {"fuzz", nullptr,
         {integer("--seed", "S", f.seed),
          integer("--iters", "N", f.iters),
          commaList("--properties", f.properties),
          text("--repro", "FILE", f.reproFile),
          text("--corpus", "DIR", f.corpusDir),
          text("--repro-out", "F", f.reproOut),
          text("--summary", "FILE", f.summaryFile),
          integer("--lanes", "K", f.forceLanes, 1, simd::kMaxLanes),
          toggle("--list", f.listProperties),
          toggle("--verbose", f.verbose), jobsFlag()},
         [&f](auto) { return simtest::runFuzz(f); }},
        {"serve", nullptr,
         {text("--socket", "PATH", s.socketPath),
          integer("--port", "N", s.port, 0, 65535),
          integer("--workers", "N", s.workers, 1),
          integer("--cache-bytes", "N", s.cacheBytes),
          integer("--queue", "N", s.queueCapacity, 1),
          text("--ready-file", "F", s.readyFile), jobsFlag()},
         [&s](auto) {
             if (s.socketPath.empty() && s.port == 0)
                 warn("serve: no --socket or --port given; using an "
                      "ephemeral TCP port (see --ready-file)");
             return serve::runServe(s);
         }},
        {"client", nullptr,
         {text("--socket", "PATH", c.socketPath),
          integer("--port", "N", c.port, 1, 65535),
          text("--batch", "FILE", c.batchFile),
          text("--id", "NAME", c.batchId),
          toggle("--local", c.local),
          toggle("--results-only", c.resultsOnly),
          toggle("--shutdown", c.shutdown), toggle("--stats", c.stats),
          jobsFlag()},
         [&c](auto) {
             if (c.batchFile.empty() && !c.shutdown && !c.stats)
                 fatal("client needs --batch FILE (or --shutdown / "
                       "--stats)");
             return serve::runClient(c);
         }},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    const std::vector<Command> commands = commandTable(options);
    if (argc < 2)
        usage(commands);
    // Resolve the SIMD dispatch level up front: a bad VSMOOTH_SIMD or
    // VSMOOTH_LANES value fails before any work starts, and the
    // selected kernel/lane-width report lands once at the top of the
    // output instead of mid-run.
    simd::activeLevel();
    for (const Command &cmd : commands) {
        if (argv[1] == std::string(cmd.name))
            return cmd.run(parseFlags(cmd, argc, argv));
    }
    usage(commands);
}
