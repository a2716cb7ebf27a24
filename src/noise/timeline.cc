#include "timeline.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsmooth::noise {

NoiseTimeline::NoiseTimeline(Cycles intervalCycles, double margin)
    : intervalCycles_(intervalCycles), margin_(margin)
{
    if (intervalCycles == 0)
        fatal("NoiseTimeline: interval must be positive");
    if (margin <= 0.0)
        fatal("NoiseTimeline: margin must be positive");
}

void
NoiseTimeline::closeInterval()
{
    series_.push_back(static_cast<double>(droopsThisInterval_) * 1000.0 /
                      static_cast<double>(cyclesThisInterval_));
    totalCycles_ += cyclesThisInterval_;
    droopsThisInterval_ = 0;
    cyclesThisInterval_ = 0;
}

void
NoiseTimeline::feedExtrapolated(Cycles cycles, std::uint64_t droops)
{
    // Chunk at interval boundaries like feedBlock(). After consuming
    // c of the skipped cycles, exactly floor(droops * c / cycles)
    // droops have been credited — the final chunk lands on c ==
    // cycles, so the credited total is exactly `droops`. The 128-bit
    // intermediate keeps the product exact for any cycle count.
    Cycles done = 0;
    std::uint64_t credited = 0;
    while (done < cycles) {
        const Cycles room = intervalCycles_ - cyclesThisInterval_;
        const Cycles chunk = std::min<Cycles>(room, cycles - done);
        done += chunk;
        const auto upto = static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(droops) * done / cycles);
        const std::uint64_t d = upto - credited;
        credited = upto;
        droopsThisInterval_ += d;
        totalDroops_ += d;
        cyclesThisInterval_ += chunk;
        if (cyclesThisInterval_ == intervalCycles_)
            closeInterval();
    }
}

const std::vector<double> &
NoiseTimeline::finish()
{
    if (!finished_) {
        if (cyclesThisInterval_ > intervalCycles_ / 2)
            closeInterval(); // keep a mostly-complete tail interval
        finished_ = true;
    }
    return series_;
}

std::vector<NoisePhase>
detectPhases(const std::vector<double> &series, double threshold)
{
    std::vector<NoisePhase> phases;
    if (series.empty())
        return phases;

    NoisePhase current{0, 0, series[0]};
    double sum = series[0];
    std::size_t count = 1;

    for (std::size_t i = 1; i < series.size(); ++i) {
        const double mean = sum / static_cast<double>(count);
        if (std::abs(series[i] - mean) > threshold) {
            current.lastInterval = i - 1;
            current.meanDroopsPer1k = mean;
            phases.push_back(current);
            current = NoisePhase{i, i, series[i]};
            sum = series[i];
            count = 1;
        } else {
            sum += series[i];
            ++count;
        }
    }
    current.lastInterval = series.size() - 1;
    current.meanDroopsPer1k = sum / static_cast<double>(count);
    phases.push_back(current);
    return phases;
}

} // namespace vsmooth::noise
