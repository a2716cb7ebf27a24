#include "perf_counters.hh"

namespace vsmooth::cpu {

std::uint64_t
PerfCounters::totalStallCycles() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : stallCycles_)
        total += c;
    return total;
}

double
PerfCounters::ipc() const
{
    if (cycles_ == 0)
        return 0.0;
    return static_cast<double>(instructions_) /
        static_cast<double>(cycles_);
}

double
PerfCounters::stallRatio() const
{
    if (cycles_ == 0)
        return 0.0;
    return static_cast<double>(totalStallCycles()) /
        static_cast<double>(cycles_);
}

} // namespace vsmooth::cpu
