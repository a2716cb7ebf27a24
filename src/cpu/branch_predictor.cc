#include "branch_predictor.hh"

#include "common/logging.hh"

namespace vsmooth::cpu {

BranchPredictor::BranchPredictor(std::uint32_t tableBits)
{
    if (tableBits == 0 || tableBits > 24)
        fatal("branch predictor table bits %u outside (0,24]", tableBits);
    table_.assign(std::size_t(1) << tableBits, 1); // weakly not-taken
    mask_ = (1u << tableBits) - 1;
}

bool
BranchPredictor::predictAndTrain(Addr pc, bool taken)
{
    const std::uint32_t idx =
        static_cast<std::uint32_t>((pc >> 2) ^ history_) & mask_;
    std::uint8_t &ctr = table_[idx];
    const bool predicted = ctr >= 2;

    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask_;

    return predicted == taken;
}

} // namespace vsmooth::cpu
