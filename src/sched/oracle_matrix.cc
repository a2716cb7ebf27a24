#include "oracle_matrix.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "workload/microbench.hh"

namespace vsmooth::sched {

OracleMatrix::OracleMatrix(
    const std::vector<workload::SpecBenchmark> &suite,
    const OracleConfig &cfg)
    : suite_(suite), cfg_(cfg), n_(suite.size())
{
    if (n_ == 0)
        fatal("OracleMatrix: empty suite");
    pairs_.resize(n_ * (n_ + 1) / 2);
    singles_.resize(n_);

    // Every measurement is an independent simulation whose seed
    // derives from (i, j) alone, so the matrix can be built in
    // parallel: each task writes its precomputed triangular slot and
    // the result is bit-identical for any job count.
    struct Task
    {
        std::size_t i, j;
        bool idleSecond;
        PairProfile *out;
    };
    std::vector<Task> tasks;
    tasks.reserve(singles_.size() + pairs_.size());
    for (std::size_t i = 0; i < n_; ++i)
        tasks.push_back({i, i, true, &singles_[i]});
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i; j < n_; ++j) {
            tasks.push_back(
                {i, j, false, &pairs_[i * n_ - i * (i + 1) / 2 + j]});
        }
    }

    sim::runSweep(
        tasks.size(),
        [&](std::size_t t) {
            const Task &task = tasks[t];
            return sim::Scenario{
                buildMeasure(suite_, cfg_, task.i, task.j,
                             task.idleSecond),
                cfg_.cyclesPerPair};
        },
        [&](std::size_t t, sim::System &sys) {
            const Task &task = tasks[t];
            *task.out = profileFrom(suite_, cfg_, sys, task.i, task.j,
                                    task.idleSecond);
        });
}

const PairProfile &
OracleMatrix::pair(std::size_t i, std::size_t j) const
{
    if (i >= n_ || j >= n_)
        panic("OracleMatrix::pair: index out of range");
    if (i > j)
        std::swap(i, j);
    return pairs_[i * n_ - i * (i + 1) / 2 + j];
}

PairProfile
OracleMatrix::measurePair(const std::vector<workload::SpecBenchmark> &suite,
                          const OracleConfig &cfg, std::size_t i,
                          std::size_t j)
{
    if (i >= suite.size() || j >= suite.size())
        panic("OracleMatrix::measurePair: index out of range");
    if (i > j)
        std::swap(i, j);
    sim::System sys = buildMeasure(suite, cfg, i, j, false);
    sys.run(cfg.cyclesPerPair);
    return profileFrom(suite, cfg, sys, i, j, false);
}

sim::System
OracleMatrix::buildMeasure(const std::vector<workload::SpecBenchmark> &suite,
                           const OracleConfig &cfg, std::size_t i,
                           std::size_t j, bool idleSecond)
{
    sim::SystemConfig sys_cfg = cfg.system;
    sys_cfg.osTickInterval = sim::kCompressedOsTick;
    sim::System sys(sys_cfg);
    // Deterministic but distinct seeds per pair and core.
    const std::uint64_t base = cfg.seed +
        1000003ULL * (i * suite.size() + j) + (idleSecond ? 7 : 0);

    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(suite[i], cfg.cyclesPerPair, true),
        base + 1));
    if (idleSecond) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), base + 2));
    } else {
        // An aligned self-pair reuses the first core's seed: identical
        // schedule + identical seed = lockstep streams whose current
        // transients stack in the same cycle.
        const bool aligned = cfg.alignedSelfPairs && i == j;
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(suite[j], cfg.cyclesPerPair, true),
            aligned ? base + 1 : base + 2));
    }
    return sys;
}

PairProfile
OracleMatrix::profileFrom(const std::vector<workload::SpecBenchmark> &suite,
                          const OracleConfig &cfg, sim::System &sys,
                          std::size_t i, std::size_t j, bool idleSecond)
{
    PairProfile profile;
    profile.droopsPer1k =
        1000.0 * sys.scope().fractionBelow(-cfg.droopMargin);
    profile.ipc = sys.core(0).counters().ipc() +
        (idleSecond ? 0.0 : sys.core(1).counters().ipc());
    if (!idleSecond) {
        // Shared-L2 / memory-bandwidth contention, modeled at the
        // profile level: two memory-bound programs slow each other
        // down. This is the effect the paper's IPC (cache-aware)
        // scheduling policy exploits.
        const double contention = 0.25 * suite[i].memoryBoundness *
            suite[j].memoryBoundness;
        profile.ipc *= 1.0 - contention;
    }
    profile.emergencies =
        resilience::profileFromBank(sys.droopBank(), sys.cycles());
    return profile;
}

} // namespace vsmooth::sched
