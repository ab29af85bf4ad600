// Sample statistics and outcome accounting for the repository benchmark.
#ifndef BLOSSOMBENCH_STATS_H_
#define BLOSSOMBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace blossombench {

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Geometric mean of strictly positive values; 0 for an empty input.
double GeoMean(const std::vector<double>& values);

/// The tail of a latency sample: the `max_percentile` (p99), or, when that
/// would leave fewer than `min_beyond` samples above it, the highest
/// percentile that still has `min_beyond` samples above. With n sorted
/// samples the value sits at 0-based rank
/// min(ceil(n * max_percentile / 100), n - min_beyond) - 1, and its
/// percentile is 100 * (rank + 1) / n. Short runs thus report the
/// 11th-largest sample, while long runs stop at p99 rather than chase an
/// ever-rarer order statistic whose value two runs would not agree on.
struct TailPick {
  double value = 0;       ///< The sample at the chosen rank.
  double percentile = 0;  ///< In (0, 100].
  size_t samples = 0;     ///< n.
  size_t beyond = 0;      ///< Samples ranked above the chosen one.
};

/// Picks the tail of `samples`. When there are no more than `min_beyond`
/// samples, the maximum is reported with fewer than `min_beyond` beyond it
/// (the caller can see that from `beyond`).
TailPick PickTail(std::vector<double> samples, size_t min_beyond = 10,
                  double max_percentile = 99.0);

/// Renders a TailPick as "p99.09 (n=1100, 10 beyond)".
std::string DescribeTail(const TailPick& tail);

/// Outcome of one attempted query.
enum class Outcome {
  kCorrect,   ///< Completed with the oracle's exact bytes.
  kWrong,     ///< Completed, but the bytes differ from the oracle.
  kError,     ///< The engine returned an error status.
  kRejected,  ///< The service refused admission.
};

/// Counts attempted queries by outcome. `failed_frac` is
/// (errors + wrong bytes + rejections) / attempted.
struct Tally {
  uint64_t correct = 0;
  uint64_t wrong = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;

  void Record(Outcome o);
  void MergeFrom(const Tally& o);
  uint64_t attempted() const { return correct + wrong + errors + rejected; }
  uint64_t failed() const { return wrong + errors + rejected; }
  double failed_frac() const;
};

}  // namespace blossombench

#endif  // BLOSSOMBENCH_STATS_H_
