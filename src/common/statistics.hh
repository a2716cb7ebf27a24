/**
 * @file
 * Descriptive statistics used throughout the characterization and
 * scheduling studies: the mean, percentiles of a sorted sample,
 * Pearson correlation, and five-number boxplot summaries (Fig 17 of
 * the paper is a boxplot).
 */

#ifndef VSMOOTH_COMMON_STATISTICS_HH
#define VSMOOTH_COMMON_STATISTICS_HH

#include <cstddef>
#include <span>
#include <vector>

namespace vsmooth {

/** Arithmetic mean of a sample; 0 if empty. */
double mean(std::span<const double> xs);

/**
 * Linear-interpolated percentile of an already ascending-sorted
 * sample, p in [0, 100]. O(1); lets callers that need several
 * percentiles (boxplot, Fig 17's per-benchmark spreads) sort once
 * instead of once per query.
 */
double percentileOfSorted(std::span<const double> sorted, double p);

/** Pearson linear correlation coefficient; 0 if degenerate. */
double pearson(std::span<const double> xs, std::span<const double> ys);

/**
 * Five-number summary for boxplots: min, first quartile, median, third
 * quartile, max (plus mean for convenience).
 */
struct BoxplotSummary
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
};

/** Compute the five-number summary of a (non-empty) sample. */
BoxplotSummary boxplot(std::span<const double> xs);

} // namespace vsmooth

#endif // VSMOOTH_COMMON_STATISTICS_HH
