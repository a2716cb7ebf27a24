/**
 * @file
 * Scenario-lane engine: run K independent System simulations in
 * lockstep, feeding their carried per-cycle chains (current smoothing,
 * PDN recurrence, VRM ripple) to one cross-lane SIMD kernel per block
 * instead of K separate scalar loops.
 *
 * The sweep workloads (oracle matrix, population studies, figure
 * grids) are embarrassingly parallel across *scenarios*; threads
 * already cover the core count, so the remaining idle dimension is the
 * SIMD register width. A LaneGroup owns no simulation state — it
 * drains a list of LanePlans ("run this System for N cycles"), packing
 * up to `width` eligible plans into lanes that advance together
 * through the same 256-cycle block pipeline System::run uses. Lanes
 * that finish retire and the group refills from the remaining plans.
 * runSweep() fans a whole sweep out over the worker threads, one
 * LaneGroup per group of scenarios.
 *
 * Every per-lane result is bit-identical to running that plan alone
 * (see DESIGN.md "Scenario-lane execution"): the fused kernel performs
 * each lane's scalar arithmetic unchanged, block splits are already
 * result-invariant, and plans the fast path cannot fuse (per-cycle
 * feedback consumers, scalar-forced runs, >8-core systems) simply run
 * solo through System::run.
 */

#ifndef VSMOOTH_SIM_LANE_GROUP_HH
#define VSMOOTH_SIM_LANE_GROUP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "cpu/instruction.hh"
#include "sim/system.hh"

namespace vsmooth::sim {

/** One scenario for LaneGroup::run: System::run(cycles), laned. */
struct LanePlan
{
    System *system = nullptr;
    Cycles cycles = 0;
};

/** Lockstep executor for up to `width` concurrent scenarios. */
class LaneGroup
{
  public:
    /** @param width lane count; 0 = simd::defaultLaneWidth(). */
    explicit LaneGroup(std::size_t width = 0);

    std::size_t width() const { return width_; }

    /**
     * Drain all plans: admit up to `width` at a time, step them in
     * lockstep blocks, retire finished lanes and refill. Plans run in
     * order; each one's System ends in exactly the state a standalone
     * run(cycles) would leave it in.
     */
    void run(const std::vector<LanePlan> &plans);

  private:
    /**
     * Advance `count` same-core-count lanes together by n cycles:
     * each lane's System gathers, the fused cross-lane kernel runs
     * every lane's chains and PDN, and each System commits.
     * Bit-identical per lane to that lane running
     * System::tickBlock(n) alone.
     */
    void stepFused(LanePlan *const *lanes, std::size_t count, Cycles n);

    std::size_t width_;
    /** Active lanes, each counting its cycles left; reused across
     *  run() calls so a steady drain never reallocates (capacity is
     *  width_ after the first run). */
    std::vector<LanePlan> lanes_;
    // stepFused scratch, reused across blocks: per-lane contiguous
    // streams (lane l of core c at column (c*stride + l), columns
    // padded to whole cache lines and the base rounded up so every
    // column starts 64-byte aligned), assembled into vectors by the
    // kernel's register gather/scatter. Grow-only, so warm drains
    // never allocate.
    std::vector<double> steadyL_;
    std::vector<double> totalL_;
    std::vector<double> devL_;
};

/**
 * One scenario of a runSweep: a System, its run length, and the
 * instruction streams its cores borrow (a DetailedCore does not own
 * its source), kept alive until the scenario has been extracted.
 */
struct Scenario
{
    System system;
    Cycles cycles = 0;
    std::vector<std::unique_ptr<cpu::InstructionSource>> streams{};
};

/**
 * Run `total` independent scenarios across the worker-thread pool:
 * each worker claims a group of simd::defaultLaneWidth() consecutive
 * indices, builds them with `prepare`, drains them through one
 * LaneGroup, and hands each finished System to `extract` (called with
 * the scenario index, in group order). Group boundaries derive from
 * the index alone and every laned run is bit-identical to a solo run,
 * so results are invariant under both the job count and the lane
 * width.
 */
void runSweep(std::size_t total,
              const std::function<Scenario(std::size_t)> &prepare,
              const std::function<void(std::size_t, System &)> &extract);

} // namespace vsmooth::sim

#endif // VSMOOTH_SIM_LANE_GROUP_HH
