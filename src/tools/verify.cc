#include "verify.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/fsio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/table.hh"

namespace vsmooth::tools {

namespace fs = std::filesystem;

const std::vector<ExperimentInfo> &
experimentRegistry()
{
    // `fast` marks the default verify subset: experiments that finish
    // in a few seconds even single-threaded, chosen to still cover
    // the PDN analysis, the tech-node model, the full simulator stack
    // (fig12), a parallelMap sweep (fig15, so jobs-invariance is
    // exercised end-to-end), and the sliding-window scheduler (fig16).
    static const std::vector<ExperimentInfo> registry = {
        {"fig01_future_swings", true},
        {"fig02_margin_frequency", true},
        {"fig04_impedance", true},
        {"fig05_reset_droops", true},
        {"fig06_decap_swings", true},
        {"fig07_voltage_cdf", false},
        {"fig08_typical_case", false},
        {"fig09_future_cdf", false},
        {"fig10_heatmaps", false},
        {"fig11_tlb_overshoot", false},
        {"fig12_event_swings", true},
        {"fig13_interference", false},
        {"fig14_noise_phases", false},
        {"fig15_stall_correlation", true},
        {"fig16_sliding_window", true},
        {"fig17_coschedule_spread", false},
        {"fig18_policy_scatter", false},
        {"fig19_pass_increase", false},
        {"table1_optimal_margins", false},
        {"ablation_core_scaling", true},
        {"ablation_mitigations", false},
        {"ablation_noise_model", false},
        {"adaptive_margin", false},
        {"fault_injection", true},
    };
    return registry;
}

namespace {

bool
knownExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry())
        if (name == e.name)
            return true;
    return false;
}

std::vector<std::string>
selectExperiments(const VerifyOptions &opt)
{
    if (!opt.experiments.empty()) {
        for (const auto &name : opt.experiments)
            if (!knownExperiment(name))
                fatal("unknown experiment '%s' (see `vsmooth verify"
                      " --list`)",
                      name.c_str());
        return opt.experiments;
    }
    std::vector<std::string> out;
    for (const auto &e : experimentRegistry())
        if (opt.all || e.fast)
            out.push_back(e.name);
    return out;
}

/** Load <path> as a Result; false (with a report line) on failure. */
bool
loadResult(const std::string &path, Result &out, Json *rawOut)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "  cannot open '" << path << "'\n";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json j = Json::parse(buf.str(), &error);
    if (!error.empty()) {
        std::cerr << "  " << path << ": " << error << "\n";
        return false;
    }
    if (!Result::fromJson(j, out, &error)) {
        std::cerr << "  " << path << ": " << error << "\n";
        return false;
    }
    if (rawOut)
        *rawOut = std::move(j);
    return true;
}

/**
 * Run one experiment binary with result emission to `resultPath`. The
 * binary is spawned directly, not through a shell, so every path is
 * passed verbatim whatever characters it holds. It inherits this
 * process's environment (the CLI's --jobs sets VSMOOTH_JOBS);
 * its stdout is discarded, or sent to stderr under --verbose.
 */
bool
runExperiment(const VerifyOptions &opt, const std::string &name,
              const std::string &resultPath)
{
    std::string binary = (fs::path(opt.benchDir) / name).string();
    if (!fs::exists(binary)) {
        std::cerr << "  missing binary '" << binary
                  << "' (build the bench targets first)\n";
        return false;
    }
    setenv("VSMOOTH_RESULT_FILE", resultPath.c_str(), 1);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (opt.verbose) {
        posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                         STDOUT_FILENO);
    } else {
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         "/dev/null", O_WRONLY, 0);
    }
    char *argv[] = {binary.data(), nullptr};
    pid_t pid = 0;
    const int err = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0) {
        std::cerr << "  cannot run '" << binary
                  << "': " << std::strerror(err) << "\n";
        return false;
    }
    int status = 0;
    pid_t waited;
    do
        waited = waitpid(pid, &status, 0);
    while (waited < 0 && errno == EINTR);
    if (waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return true;
    std::cerr << "  '" << binary << "' "
              << (WIFSIGNALED(status) ? "killed by signal "
                                      : "exited with status ")
              << (WIFSIGNALED(status) ? WTERMSIG(status)
                                      : WEXITSTATUS(status))
              << "\n";
    return false;
}

/** In --update mode: write the fresh result as the new golden,
 *  preserving a "tolerances" object already present in the old one.
 *  The replacement is atomic (temp + rename): an interrupt mid-update
 *  must never leave a truncated golden where a valid one stood. */
bool
updateGolden(const std::string &goldenPath, const Result &actual)
{
    Json out = actual.toJson();
    std::ifstream in(goldenPath);
    if (in) {
        std::stringstream buf;
        buf << in.rdbuf();
        std::string error;
        const Json old = Json::parse(buf.str(), &error);
        if (error.empty() && old.isObject() && old.contains("tolerances"))
            out.set("tolerances", old.at("tolerances"));
    }
    std::string error;
    if (!writeFileAtomic(
            goldenPath,
            [&](std::ostream &os) {
                out.write(os, 2);
                os << "\n";
                return os.good();
            },
            &error)) {
        std::cerr << "  " << error << "\n";
        return false;
    }
    return true;
}

void
printDiffs(const std::string &name, const CompareReport &report)
{
    TextTable t("drift: " + name);
    t.setHeader({"metric", "golden", "actual", "note"});
    for (const auto &d : report.diffs) {
        t.addRow({d.name,
                  d.note.empty() ? TextTable::num(d.golden, 9) : "",
                  d.note.empty() ? TextTable::num(d.actual, 9) : "",
                  d.note});
    }
    t.print(std::cerr);
}

} // namespace

int
runVerify(const VerifyOptions &opt)
{
    const auto names = selectExperiments(opt);

    std::string workDir = opt.workDir;
    if (workDir.empty()) {
        workDir = (fs::temp_directory_path() /
                   ("vsmooth-verify-" + std::to_string(getpid())))
                      .string();
    }
    std::error_code ec;
    fs::create_directories(workDir, ec);
    if (ec)
        fatal("cannot create work dir '%s': %s", workDir.c_str(),
              ec.message().c_str());
    if (opt.update)
        fs::create_directories(opt.goldenDir, ec);

    std::size_t failures = 0;
    for (const auto &name : names) {
        const std::string resultPath = workDir + "/" + name + ".json";
        const std::string goldenPath =
            opt.goldenDir + "/" + name + ".json";

        if (!runExperiment(opt, name, resultPath)) {
            std::cout << name << ": FAIL (run error)\n";
            ++failures;
            continue;
        }
        Result actual;
        if (!loadResult(resultPath, actual, nullptr)) {
            std::cout << name << ": FAIL (bad result file)\n";
            ++failures;
            continue;
        }

        if (opt.update) {
            if (!updateGolden(goldenPath, actual)) {
                std::cout << name << ": FAIL (cannot update golden)\n";
                ++failures;
            } else {
                std::cout << name << ": golden updated ("
                          << actual.metrics().size() << " metrics, "
                          << actual.allSeries().size() << " series)\n";
            }
            continue;
        }

        Result golden;
        Json goldenRaw;
        if (!loadResult(goldenPath, golden, &goldenRaw)) {
            std::cout << name
                      << ": FAIL (missing/bad golden; run with"
                         " --update to create it)\n";
            ++failures;
            continue;
        }
        const Json *tolerances = goldenRaw.isObject()
                                     ? goldenRaw.find("tolerances")
                                     : nullptr;
        const auto report = compareResults(golden, actual, tolerances);
        if (report.pass) {
            std::cout << name << ": PASS (" << report.checked
                      << " metrics/series checked)\n";
        } else {
            std::cout << name << ": FAIL (" << report.diffs.size()
                      << " drifting value(s) across " << report.checked
                      << " metrics/series)\n";
            printDiffs(name, report);
            ++failures;
        }
    }

    if (opt.update) {
        std::cout << names.size() << " golden(s) written to "
                  << opt.goldenDir << "\n";
        return failures == 0 ? 0 : 1;
    }
    std::cout << (names.size() - failures) << "/" << names.size()
              << " experiments matched their goldens\n";
    return failures == 0 ? 0 : 1;
}

} // namespace vsmooth::tools
