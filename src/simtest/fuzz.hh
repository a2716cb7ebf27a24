/**
 * @file
 * `vsmooth fuzz` — seeded, deterministic property-based fuzzing of
 * the whole simulator stack.
 *
 * Modes (mutually exclusive, checked in this order):
 *   --list            print the property registry and exit
 *   --repro FILE      replay one shrunk repro file
 *   --corpus DIR      replay every *.json repro in a directory
 *   (default)         generate --iters configs from --seed and check
 *                     the selected properties against each
 *
 * Generation checks every config against every selected property,
 * also after a failure, and reports each failure. The first failing
 * config is shrunk and written as a replayable repro JSON
 * (--repro-out) with the replay command line; the run then exits
 * nonzero once all --iters configs are checked. Runs are deterministic:
 * the same seed and iteration count produce byte-identical summary
 * files, which CI exploits to cross-check two fuzz passes.
 */

#ifndef VSMOOTH_SIMTEST_FUZZ_HH
#define VSMOOTH_SIMTEST_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vsmooth::simtest {

/** Options of one `vsmooth fuzz` invocation. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint64_t iters = 1'000;
    /** Property subset by name; empty = every registered property. */
    std::vector<std::string> properties;
    /** Replay a single repro file instead of generating. */
    std::string reproFile;
    /** Replay a directory of repro files instead of generating. */
    std::string corpusDir;
    /** Where a newly shrunk repro is written. */
    std::string reproOut = "vsmooth-fuzz-repro.json";
    /** Optional per-property pass/iteration summary (JSON artifact;
     *  byte-identical across same-seed runs). */
    std::string summaryFile;
    /** Force every generated config's laneWidth (0 = keep the drawn
     *  value) — CI's dedicated widest-lane passes pin 16 here. */
    std::uint32_t forceLanes = 0;
    bool listProperties = false;
    bool verbose = false;
};

/** Process exit code: 0 when every checked property held. */
int runFuzz(const FuzzOptions &opt);

} // namespace vsmooth::simtest

#endif // VSMOOTH_SIMTEST_FUZZ_HH
