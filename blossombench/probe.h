// A fixed machine-speed probe for the repository benchmark.
//
// The benchmark runs on shared machines whose speed drifts by half or more
// from one ten-second stretch to the next: neighbours compete for the
// caches and memory, and every timing of the engine moves with them. The
// probe is a fixed piece of work built like the engine's own and depending
// on nothing under src/: it splits a fixed markup text into tokens, each a
// std::string, sorts them and counts them in a hash map, so it allocates,
// compares strings and chases pointers over a few MiB as the engine does.
// A workload runs probe slices between its rounds of timed work; the median
// slice time, against a fixed reference, says how fast the machine was
// while that work ran, and the end-to-end timings are reported at the
// reference speed.
#ifndef BLOSSOMBENCH_PROBE_H_
#define BLOSSOMBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blossombench {

class SpeedProbe {
 public:
  /// Median slice time, in ms, at the reference speed (about what one
  /// slice takes on a 2.1 GHz Xeon VM with 4 vCPUs and a quiet host).
  static constexpr double kReferenceSliceMs = 15.0;

  SpeedProbe();

  /// Runs one slice of the fixed work and records its duration.
  void Slice();

  /// Median slice duration so far, in ms; 0 before the first slice.
  double MedianMs() const;

  /// Sum of all slice durations, in seconds.
  double TotalSeconds() const;

  size_t slices() const { return slice_ms_.size(); }

  /// Factor that takes a duration measured while the slices ran to the
  /// reference speed (rates are divided by it); 1 before the first slice.
  double TimeScale() const;

 private:
  uint64_t sink_ = 0;  ///< Keeps the work observable.
  std::vector<double> slice_ms_;
};

}  // namespace blossombench

#endif  // BLOSSOMBENCH_PROBE_H_
