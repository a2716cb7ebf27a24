/**
 * @file
 * Error-path tests for the vsmooth CLI: every user mistake (missing
 * directories, malformed JSON, unknown experiment or property names,
 * bad flag values) must exit nonzero with an actionable message, not
 * crash or silently pass.
 *
 * Tests run the real binary (path injected via VSMOOTH_CLI_PATH at
 * compile time) through popen and assert on exit status + combined
 * stdout/stderr.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/fsio.hh"

namespace fs = std::filesystem;

namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr interleaved
};

CliResult
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(VSMOOTH_CLI_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult r;
    std::array<char, 4096> buf;
    while (pipe && fgets(buf.data(), buf.size(), pipe))
        r.output += buf.data();
    if (pipe) {
        const int status = pclose(pipe);
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return r;
}

/** Fresh scratch directory under the test tmp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("vsmooth_cli_errors_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Create an executable fake experiment "binary" that emits a minimal
 *  valid Result to $VSMOOTH_RESULT_FILE. */
void
writeFakeExperiment(const fs::path &benchDir, const std::string &name)
{
    const fs::path script = benchDir / name;
    {
        std::ofstream os(script);
        os << "#!/bin/sh\n"
           << "printf '{\"experiment\": \"" << name
           << "\", \"metrics\": {\"m\": 1}}' > \"$VSMOOTH_RESULT_FILE\"\n";
    }
    fs::permissions(script, fs::perms::owner_all);
}

} // namespace

TEST(CliErrors, NoArgumentsPrintsUsage)
{
    const auto r = runCli("");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("usage"), std::string::npos);
}

TEST(CliErrors, VerifyUnknownExperiment)
{
    const auto r = runCli("verify --experiments not_an_experiment");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown experiment"), std::string::npos);
    // The message points at the discovery command.
    EXPECT_NE(r.output.find("--list"), std::string::npos);
}

TEST(CliErrors, VerifyMissingBenchBinary)
{
    const auto bench = scratchDir("verify_nobin_bench");
    const auto golden = scratchDir("verify_nobin_golden");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("missing binary"), std::string::npos);
    EXPECT_NE(r.output.find("build the bench targets"),
              std::string::npos);
}

TEST(CliErrors, VerifyMissingGolden)
{
    const auto bench = scratchDir("verify_nogold_bench");
    const auto golden = scratchDir("verify_nogold_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("missing/bad golden"), std::string::npos);
    // ... and how to fix it.
    EXPECT_NE(r.output.find("--update"), std::string::npos);
}

TEST(CliErrors, VerifyTakesPathsWithQuotesAndSpacesVerbatim)
{
    // The experiment is spawned without a shell, so a quote or a space
    // in the bench or work directory reaches it unchanged.
    const auto root = scratchDir("verify_quoted") / "it's a dir";
    const auto bench = root / "bench";
    const auto golden = root / "golden";
    const auto work = root / "work";
    fs::create_directories(bench);
    fs::create_directories(golden);
    writeFakeExperiment(bench, "fig01_future_swings");
    std::ofstream(golden / "fig01_future_swings.json")
        << "{\"experiment\": \"fig01_future_swings\","
           " \"metrics\": {\"m\": 1}}\n";
    const auto r = runCli("verify --bench-dir \"" + bench.string() +
                          "\" --golden-dir \"" + golden.string() +
                          "\" --work-dir \"" + work.string() +
                          "\" --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("1/1 experiments matched"), std::string::npos)
        << r.output;
    EXPECT_TRUE(fs::exists(work / "fig01_future_swings.json"));
}

TEST(CliErrors, VerifyMalformedGoldenJson)
{
    const auto bench = scratchDir("verify_badgold_bench");
    const auto golden = scratchDir("verify_badgold_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    std::ofstream(golden / "fig01_future_swings.json")
        << "{\"experiment\": \"fig01_future_swings\", oops";
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("FAIL"), std::string::npos);
    EXPECT_NE(r.output.find("fig01_future_swings.json"),
              std::string::npos);
}

namespace {

/** Every regular file in `dir` (for temp-leftover assertions). */
std::vector<std::string>
filesIn(const fs::path &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    return names;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(CliErrors, AtomicWriteSurvivesSimulatedPartialWrite)
{
    // A golden update that dies mid-write (Ctrl-C, crash, full disk)
    // must leave the previous golden intact — the old in-place
    // ofstream truncated the target before the first byte landed.
    const auto dir = scratchDir("atomic_partial");
    const fs::path target = dir / "golden.json";
    const std::string original = "{\"experiment\": \"x\"}\n";
    std::ofstream(target) << original;

    std::string error;
    const bool ok = vsmooth::writeFileAtomic(
        target.string(),
        [](std::ostream &os) {
            os << "{\"experiment\": \"y\", \"metr"; // partial write...
            return false;                           // ...then die
        },
        &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());

    // Original untouched, and the aborted temp file cleaned up.
    EXPECT_EQ(slurp(target), original);
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"golden.json"});

    // A successful writer replaces the content whole.
    ASSERT_TRUE(vsmooth::writeFileAtomic(
        target.string(),
        [](std::ostream &os) {
            os << "{\"experiment\": \"z\"}\n";
            return os.good();
        },
        &error))
        << error;
    EXPECT_EQ(slurp(target), "{\"experiment\": \"z\"}\n");
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"golden.json"});
}

TEST(CliErrors, VerifyUpdateReplacesGoldenAtomically)
{
    const auto bench = scratchDir("verify_update_bench");
    const auto golden = scratchDir("verify_update_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    // Pre-existing golden with a tolerances block that must survive
    // the update, written through the temp + rename path.
    std::ofstream(golden / "fig01_future_swings.json")
        << "{\"experiment\": \"fig01_future_swings\","
           " \"metrics\": {\"m\": 2},"
           " \"tolerances\": {\"m\": {\"abs\": 0.5}}}\n";

    const auto r = runCli("verify --update --bench-dir " +
                          bench.string() + " --golden-dir " +
                          golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 0) << r.output;

    const std::string updated =
        slurp(golden / "fig01_future_swings.json");
    EXPECT_NE(updated.find("\"m\": 1"), std::string::npos) << updated;
    EXPECT_NE(updated.find("tolerances"), std::string::npos) << updated;
    // No .tmp.<pid> debris left behind.
    EXPECT_EQ(filesIn(golden),
              std::vector<std::string>{"fig01_future_swings.json"});
}

TEST(CliErrors, FuzzUnknownProperty)
{
    const auto r = runCli("fuzz --iters 1 --properties not_a_property");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown property"), std::string::npos);
    // The actionable part: the known names are listed.
    EXPECT_NE(r.output.find("blocked_vs_scalar"), std::string::npos);
}

TEST(CliErrors, RepeatedListFlagsAccumulate)
{
    // Each use of a list flag adds to the list: a bad name given first
    // is still checked, and every named property runs.
    const auto r = runCli("fuzz --iters 1 --properties not_a_property "
                          "--properties pdn_linearity");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("unknown property"), std::string::npos);

    const auto v = runCli("verify --experiments not_an_experiment "
                          "--experiments fig01_future_swings");
    EXPECT_EQ(v.exitCode, 1) << v.output;
    EXPECT_NE(v.output.find("unknown experiment"), std::string::npos);

    const fs::path summary =
        scratchDir("repeated_list_flags") / "summary.json";
    const auto ok = runCli("fuzz --seed 1 --iters 2 "
                           "--properties histogram_invariants "
                           "--properties pdn_linearity --summary " +
                           summary.string());
    EXPECT_EQ(ok.exitCode, 0) << ok.output;
    std::ifstream in(summary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"histogram_invariants\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"pdn_linearity\""), std::string::npos) << text;
}

TEST(CliErrors, FuzzMissingCorpusDir)
{
    const auto r =
        runCli("fuzz --corpus /nonexistent/vsmooth-corpus-dir");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("does not exist"), std::string::npos);
}

TEST(CliErrors, FuzzEmptyCorpusDir)
{
    const auto dir = scratchDir("fuzz_empty_corpus");
    const auto r = runCli("fuzz --corpus " + dir.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("no .json"), std::string::npos);
}

TEST(CliErrors, FuzzMissingReproFile)
{
    const auto r = runCli("fuzz --repro /nonexistent/repro.json");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("cannot open repro"), std::string::npos);
}

TEST(CliErrors, FuzzMalformedReproJson)
{
    const auto dir = scratchDir("fuzz_bad_repro");
    const fs::path repro = dir / "repro.json";
    std::ofstream(repro) << "{oops";
    const auto r = runCli("fuzz --repro " + repro.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("not valid JSON"), std::string::npos);
}

TEST(CliErrors, FuzzInvalidReproConfig)
{
    const auto dir = scratchDir("fuzz_invalid_repro");
    const fs::path repro = dir / "repro.json";
    std::ofstream(repro) << "{\"cycles\": 0}";
    const auto r = runCli("fuzz --repro " + repro.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("not a valid fuzz config"),
              std::string::npos);
}

TEST(CliErrors, FuzzBadFlagValue)
{
    const auto r = runCli("fuzz --iters not_a_number");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("bad value"), std::string::npos);

    const auto r2 = runCli("fuzz --no-such-flag");
    EXPECT_EQ(r2.exitCode, 2);
    EXPECT_NE(r2.output.find("usage"), std::string::npos);
}

TEST(CliErrors, CommandsRejectFlagsAndOperandsTheyDoNotTake)
{
    // impedance and reset-droop take only --decap, and list takes no
    // flags; each used to accept every run flag and any benchmark name.
    for (const char *args : {"impedance --cycles 5", "impedance mcf",
                             "list --bogus", "reset-droop --seed 3"}) {
        const auto r = runCli(args);
        EXPECT_EQ(r.exitCode, 2) << args;
        EXPECT_NE(r.output.find("usage"), std::string::npos)
            << args << ": " << r.output;
    }
}

TEST(CliErrors, UnknownFlagListsThatCommandsFlags)
{
    const auto r = runCli("serve --bogus");
    EXPECT_EQ(r.exitCode, 2);
    for (const char *flag :
         {"--socket PATH", "--port N", "--workers N", "--cache-bytes N",
          "--queue N", "--ready-file F", "--jobs N"})
        EXPECT_NE(r.output.find(flag), std::string::npos)
            << flag << "\n" << r.output;
    // ... and only serve's.
    EXPECT_EQ(r.output.find("--batch"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("vsmooth run"), std::string::npos)
        << r.output;
}

TEST(CliErrors, IntegerFlagsAreRangeChecked)
{
    for (const char *args :
         {"fuzz --lanes 17", "fuzz --lanes 0", "serve --port 65536",
          "serve --workers 0", "client --local --port 0",
          "run --recovery 4294967296 mcf", "verify --jobs 0"}) {
        const auto r = runCli(args);
        EXPECT_EQ(r.exitCode, 1) << args;
        EXPECT_NE(r.output.find("outside"), std::string::npos)
            << args << ": " << r.output;
    }
}

TEST(CliErrors, RunRejectsNegativeMargin)
{
    const auto r = runCli("run --cycles 1000 --margin -0.5 --recovery 9 mcf");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("--margin"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("vsmooth run"), std::string::npos)
        << r.output;
}

TEST(CliErrors, RunRejectsRecoveryWithoutMargin)
{
    const auto r = runCli("run --cycles 1000 --recovery 9 mcf");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("--recovery"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("vsmooth run"), std::string::npos)
        << r.output;
}
