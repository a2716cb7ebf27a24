/**
 * @file
 * `vsmooth verify` — golden-result regression checking.
 *
 * Re-runs a subset of the experiment binaries with structured-result
 * emission enabled, parses the JSON each one writes, and diffs it
 * against the checked-in golden under per-metric tolerances. Exits
 * nonzero naming every drifting metric, so a calibration or model
 * change can never silently alter a paper observable.
 */

#ifndef VSMOOTH_TOOLS_VERIFY_HH
#define VSMOOTH_TOOLS_VERIFY_HH

#include <string>
#include <vector>

namespace vsmooth::tools {

/** One golden-checked experiment binary. */
struct ExperimentInfo
{
    const char *name;
    /** In the default verify subset (seconds, not minutes, to run). */
    bool fast;
};

/** Every bench binary that emits a structured Result. */
const std::vector<ExperimentInfo> &experimentRegistry();

struct VerifyOptions
{
    /** Directory holding the experiment binaries. */
    std::string benchDir = "build/bench";
    /** Directory of golden <experiment>.json files. */
    std::string goldenDir = "bench/golden";
    /** Scratch directory for freshly produced results (defaults to a
     *  per-process directory under the system temp dir). */
    std::string workDir;
    /** Explicit experiment subset; empty means the fast default set
     *  (or everything with `all`). */
    std::vector<std::string> experiments;
    bool all = false;
    /** Regenerate the goldens from this run instead of diffing,
     *  carrying over any per-metric tolerances already checked in. */
    bool update = false;
    bool verbose = false;
};

/** Returns the process exit code: 0 if every experiment matched its
 *  golden (or was regenerated), 1 on any drift or run failure. */
int runVerify(const VerifyOptions &opt);

} // namespace vsmooth::tools

#endif // VSMOOTH_TOOLS_VERIFY_HH
