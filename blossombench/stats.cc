#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace blossombench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

TailPick PickTail(std::vector<double> samples, size_t min_beyond,
                  double max_percentile) {
  TailPick t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = n > min_beyond ? n - 1 - min_beyond : n - 1;
  size_t capped = static_cast<size_t>(
      std::ceil(static_cast<double>(n) * max_percentile / 100.0));
  if (capped >= 1) rank = std::min(rank, capped - 1);
  t.value = samples[rank];
  t.beyond = n - 1 - rank;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

std::string DescribeTail(const TailPick& tail) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%.2f (n=%zu, %zu beyond)", tail.percentile,
                tail.samples, tail.beyond);
  return buf;
}

void Tally::Record(Outcome o) {
  switch (o) {
    case Outcome::kCorrect:
      ++correct;
      break;
    case Outcome::kWrong:
      ++wrong;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
  }
}

void Tally::MergeFrom(const Tally& o) {
  correct += o.correct;
  wrong += o.wrong;
  errors += o.errors;
  rejected += o.rejected;
}

double Tally::failed_frac() const {
  uint64_t n = attempted();
  return n == 0 ? 0 : static_cast<double>(failed()) / static_cast<double>(n);
}

}  // namespace blossombench
