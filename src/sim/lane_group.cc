#include "lane_group.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace vsmooth::sim {

namespace {

/**
 * 64-byte-aligned view over a grow-only backing vector: keep 7 spare
 * doubles and round the base address up to the next cache line. The
 * backing store only ever grows (and the warm steady state never
 * resizes), so this preserves the zero-allocation drain guarantee the
 * alloc audit enforces while letting every lane column start on a
 * 64-byte boundary.
 */
double *
alignedGrow(std::vector<double> &raw, std::size_t n)
{
    if (raw.size() < n + 7)
        raw.resize(n + 7);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw.data());
    return reinterpret_cast<double *>((addr + 63) &
                                      ~std::uintptr_t{63});
}

} // namespace

LaneGroup::LaneGroup(std::size_t width)
    : width_(width == 0 ? simd::defaultLaneWidth() : width)
{
    if (width_ > simd::kMaxLanes)
        fatal("LaneGroup: width %zu exceeds the maximum of %zu", width_,
              simd::kMaxLanes);
}

void
LaneGroup::run(const std::vector<LanePlan> &plans)
{
    std::vector<LanePlan> &lanes = lanes_;
    lanes.clear();
    lanes.reserve(width_);
    std::size_t next = 0;

    // Per-round grouping of fusable lanes by core count (the kernel
    // shares one core loop across all lanes of a call).
    LanePlan *groups[simd::kMaxLaneCores + 1][simd::kMaxLanes];
    Cycles groupBlk[simd::kMaxLaneCores + 1];
    std::size_t groupSize[simd::kMaxLaneCores + 1];

    while (true) {
        while (lanes.size() < width_ && next < plans.size()) {
            const LanePlan &plan = plans[next++];
            System &sys = *plan.system;
            // Plans the fused kernel cannot express take System::run
            // unchanged: per-cycle feedback consumers (blockEligible_
            // is false), systems wider than the kernel's core arrays,
            // the degenerate one-lane group, and sampled runs (the
            // lockstep kernel drives the block step directly and would
            // silently bypass the PhaseSampler; run() engages it).
            if (!sys.blockEligible_ || width_ == 1 ||
                sys.cores_.size() > simd::kMaxLaneCores ||
                sys.samplingWanted()) {
                sys.run(plan.cycles);
                continue;
            }
            lanes.push_back(plan);
        }
        if (lanes.empty())
            break;

        // Retire lanes with no cycles left (like run(0), a zero-cycle
        // plan never starts its System) and refill the freed lanes
        // before stepping.
        const auto done =
            std::remove_if(lanes.begin(), lanes.end(),
                           [](const LanePlan &l) { return l.cycles == 0; });
        if (done != lanes.end()) {
            lanes.erase(done, lanes.end());
            continue;
        }

        // Per-lane step plans. A lane whose next cycle needs the
        // per-cycle path takes one tick; the rest group by core count
        // for the fused kernel.
        std::fill(groupSize, groupSize + simd::kMaxLaneCores + 1,
                  std::size_t{0});
        for (LanePlan &lane : lanes) {
            System &sys = *lane.system;
            sys.start();
            const Cycles blk = sys.stepLimit(lane.cycles);
            if (blk == 0) {
                lane.cycles -= sys.step(blk);
                continue;
            }
            const std::size_t nc = sys.cores_.size();
            if (groupSize[nc] == 0)
                groupBlk[nc] = blk;
            else
                groupBlk[nc] = std::min(groupBlk[nc], blk);
            groups[nc][groupSize[nc]++] = &lane;
        }

        for (std::size_t nc = 1; nc <= simd::kMaxLaneCores; ++nc) {
            const std::size_t count = groupSize[nc];
            if (count == 0)
                continue;
            const Cycles n = groupBlk[nc];
            if (count == 1)
                groups[nc][0]->system->tickBlock(n);
            else
                stepFused(groups[nc], count, n);
            for (std::size_t g = 0; g < count; ++g)
                groups[nc][g]->cycles -= n;
        }
    }
}

void
LaneGroup::stepFused(LanePlan *const *lanes, std::size_t count,
                     Cycles n)
{
    const auto nn = static_cast<std::size_t>(n);
    const std::size_t nCores = lanes[0]->system->cores_.size();
    const std::size_t vecW = simd::vectorWidth(simd::activeLevel());
    const std::size_t stride = ((count + vecW - 1) / vecW) * vecW;
    // Columns are padded to a whole number of cache lines so every
    // column starts 64-byte aligned (the AVX-512 transpose loads then
    // never split a cache line); the pad tail is never read or
    // written.
    const std::size_t colElems = (nn + 7) & ~std::size_t{7};

    double *const steadyBase =
        alignedGrow(steadyL_, nCores * stride * colElems);
    double *const totalBase = alignedGrow(totalL_, stride * colElems);
    double *const devBase = alignedGrow(devL_, stride * colElems);

    simd::LaneStepArgs args;
    args.n = nn;
    args.lanes = count;
    args.stride = stride;
    args.cores = nCores;
    // Every stream the kernel gathers from or scatters to is a
    // per-lane contiguous column; pad lanes beyond `count` point at
    // their own columns, which hold stale finite values (resize
    // zero-initializes, and every write is a finite double). Their
    // parameters below are benign (zero coefficients, unit ripple
    // period), every kernel operation is elementwise, and their
    // outputs are never read back.
    for (std::size_t l = 0; l < stride; ++l) {
        for (std::size_t c = 0; c < nCores; ++c)
            args.steady[c][l] =
                steadyBase + (c * stride + l) * colElems;
        args.total[l] = totalBase + l * colElems;
        args.deviation[l] = devBase + l * colElems;
    }

    // Gather: each lane's System fills its steady columns in place
    // (the same stage its solo block step runs — no transposed copy
    // is ever built); its chain and PDN state enter the kernel's
    // per-lane slots.
    for (std::size_t l = 0; l < count; ++l) {
        System &sys = *lanes[l]->system;
        sys.gather(steadyBase + l * colElems, stride * colElems, nn);
        const auto cur0 = sys.currents_[0].cursor();
        args.tau[l] = cur0.tau;
        args.alpha[l] = cur0.alpha;
        args.slew[l] = cur0.slew;
        for (std::size_t c = 0; c < nCores; ++c)
            args.prev[c][l] = sys.currents_[c].cursor().prev;
        const auto bs = sys.pdn_.cursor();
        args.m00[l] = bs.m00;
        args.m01[l] = bs.m01;
        args.m10[l] = bs.m10;
        args.m11[l] = bs.m11;
        args.n00[l] = bs.n00;
        args.n01[l] = bs.n01;
        args.n10[l] = bs.n10;
        args.n11[l] = bs.n11;
        args.vdd[l] = bs.vdd;
        args.invVdd[l] = bs.invVdd;
        args.rcDamp[l] = bs.rc;
        args.dtStep[l] = bs.dt;
        args.rippleAmp[l] = bs.rippleAmp;
        args.ripplePeriod[l] = sys.pdn_.ripplePeriod();
        args.iL[l] = bs.iL;
        args.vC[l] = bs.vC;
        args.vDie[l] = bs.vDie;
        args.tTime[l] = bs.t;
    }
    for (std::size_t l = count; l < stride; ++l)
        args.ripplePeriod[l] = 1.0; // avoid 0/0 in the pad division

    simd::kernels().laneStep(args);

    // Scatter the carried chain and PDN state back, then each System
    // commits its lane's contiguous deviation and current columns —
    // the same commit stage, over the same values, its solo block
    // step runs.
    for (std::size_t l = 0; l < count; ++l) {
        System &sys = *lanes[l]->system;
        for (std::size_t c = 0; c < nCores; ++c) {
            auto cur = sys.currents_[c].cursor();
            cur.prev = args.prev[c][l];
            sys.currents_[c].commit(cur);
        }
        auto bs = sys.pdn_.cursor();
        bs.iL = args.iL[l];
        bs.vC = args.vC[l];
        bs.vDie = args.vDie[l];
        bs.t = args.tTime[l];
        sys.pdn_.commit(bs);
        sys.commit(args.deviation[l], args.total[l], nn);
    }
}

void
runSweep(std::size_t total,
         const std::function<Scenario(std::size_t)> &prepare,
         const std::function<void(std::size_t, System &)> &extract)
{
    const std::size_t lanes = simd::defaultLaneWidth();
    const std::size_t nGroups = (total + lanes - 1) / lanes;
    parallelFor(0, nGroups, [&](std::size_t g) {
        const std::size_t begin = g * lanes;
        const std::size_t end = std::min(total, begin + lanes);
        std::vector<Scenario> scenarios;
        scenarios.reserve(end - begin);
        std::vector<LanePlan> plans;
        plans.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) {
            scenarios.push_back(prepare(t));
            plans.push_back(
                {&scenarios.back().system, scenarios.back().cycles});
        }
        LaneGroup(lanes).run(plans);
        for (std::size_t t = begin; t < end; ++t)
            extract(t, scenarios[t - begin].system);
    });
}

} // namespace vsmooth::sim
