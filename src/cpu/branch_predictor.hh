/**
 * @file
 * gshare branch predictor.
 *
 * Mispredictions cause the pipeline flush that the paper identifies
 * as the single largest source of voltage swing on one core (Fig 12:
 * 1.7x an idling machine). The BR microbenchmark defeats this
 * predictor with data-dependent random branches, exactly as the
 * paper's hand-crafted loop did.
 */

#ifndef VSMOOTH_CPU_BRANCH_PREDICTOR_HH
#define VSMOOTH_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "cpu/cache.hh"

namespace vsmooth::cpu {

/** gshare: global history XOR PC indexing a 2-bit counter table. */
class BranchPredictor
{
  public:
    /** @param tableBits log2 of the pattern-history-table size */
    explicit BranchPredictor(std::uint32_t tableBits = 14);

    /**
     * Predict and then train on the actual outcome.
     * @param pc branch address
     * @param taken actual direction
     * @return true if the prediction was correct
     */
    bool predictAndTrain(Addr pc, bool taken);

  private:
    std::vector<std::uint8_t> table_; // 2-bit saturating counters
    std::uint32_t mask_;
    std::uint64_t history_ = 0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_BRANCH_PREDICTOR_HH
