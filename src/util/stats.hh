/**
 * @file
 * Lightweight statistics containers used across the experiment harnesses:
 * running mean/min/max, five-number box summaries (Fig. 10), and
 * decade-bucketed histograms (Figs. 3-5).
 */

#ifndef XISA_UTIL_STATS_HH
#define XISA_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xisa {

/** Incremental mean / min / max / count over doubles. */
class RunningStat
{
  public:
    /** Record one sample. */
    void add(double x);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Five-number summary of a sample set (box plot backing data). */
struct BoxSummary {
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    uint64_t count = 0;

    /** Render as "min/q1/med/q3/max" with the given format per number. */
    std::string str(const char *numFmt = "%.1f") const;
};

/**
 * Compute the five-number summary of a sample vector.
 *
 * Quartiles use linear interpolation between order statistics (type-7,
 * the numpy default). The input is copied and sorted internally.
 */
BoxSummary boxSummary(std::vector<double> samples);

/**
 * Histogram over powers-of-ten buckets, e.g. bucket k counts samples in
 * [10^k, 10^(k+1)). Reproduces the x-axes of the paper's Figs. 3-5
 * ("average number of instructions between function calls").
 */
class DecadeHistogram
{
  public:
    /**
     * @param lo lowest decade exponent (inclusive)
     * @param hi highest decade exponent (inclusive)
     */
    DecadeHistogram(int lo, int hi);

    /** Record a positive sample; clamps into the configured range. */
    void add(double x);

    uint64_t bucket(int decade) const;
    uint64_t total() const { return total_; }

    /** One text row per decade: "10^k: count". */
    std::string str() const;

  private:
    int lo_;
    int hi_;
    std::vector<uint64_t> buckets_;
    uint64_t total_ = 0;
};

/** Geometric mean of a positive sample set; 0 if empty. */
double geomean(const std::vector<double> &xs);

} // namespace xisa

#endif // XISA_UTIL_STATS_HH
