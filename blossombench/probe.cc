#include "probe.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>

#include "stats.h"

namespace blossombench {

namespace {

constexpr int kTokens = 40000;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The probe's input: kTokens space-separated markup tokens such as
/// "<w12>8841523</w>", the same text for every probe and every run.
const std::string& ProbeText() {
  static const std::string kText = [] {
    std::string text;
    uint64_t state = 0x70726F6265ULL;
    for (int i = 0; i < kTokens; ++i) {
      uint64_t r = SplitMix(&state);
      text += "<w" + std::to_string(r % 37) + ">" +
              std::to_string(r >> 40) + "</w> ";
    }
    return text;
  }();
  return kText;
}

}  // namespace

SpeedProbe::SpeedProbe() { ProbeText(); }

void SpeedProbe::Slice() {
  const std::string& text = ProbeText();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    size_t j = text.find(' ', i);
    if (j == std::string::npos) j = text.size();
    tokens.emplace_back(text, i, j - i);
    i = j + 1;
  }
  std::sort(tokens.begin(), tokens.end());
  std::unordered_map<std::string, int> counts;
  for (const std::string& t : tokens) ++counts[t];
  sink_ += counts.size() + tokens.front().size();
  slice_ms_.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
}

double SpeedProbe::MedianMs() const { return Median(slice_ms_); }

double SpeedProbe::TotalSeconds() const {
  double ms = 0;
  for (double s : slice_ms_) ms += s;
  return ms / 1e3;
}

double SpeedProbe::TimeScale() const {
  double median = MedianMs();
  return median > 0 ? kReferenceSliceMs / median : 1.0;
}

}  // namespace blossombench
