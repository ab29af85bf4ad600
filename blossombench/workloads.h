// The benchmark's three workloads. Each one builds its inputs from the
// seed, computes the navigational oracle's answers outside the timed phase,
// measures for the requested time and checks every result byte for byte.
#ifndef BLOSSOMBENCH_WORKLOADS_H_
#define BLOSSOMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace blossombench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the files ingest_disk writes (created on demand,
  /// emptied again at the end of the run).
  std::string workdir = ".bench_build/work";
};

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< Printed beside the value, not part of the JSON.
};

struct RunReport {
  bool correct = true;
  Tally tally;
  std::vector<MetricValue> metrics;
  std::vector<std::string> problems;  ///< Why `correct` is false.

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// End-to-end metric names, in output order (the `--trace 0` set).
const std::vector<std::string>& EndToEndMetricNames();
/// Per-layer metric names, in output order (the `--trace 1` set).
const std::vector<std::string>& PerLayerMetricNames();

/// The flwor_service query mix as (label, query) pairs: one query per FLWOR
/// shape the engine evaluates differently.
const std::vector<std::pair<std::string, std::string>>& FlworMix();

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload`; returns false for an unknown workload name.
bool RunWorkload(const RunConfig& config, RunReport* report);

/// CPUs this process may run on (the `nproc` of the load generator).
unsigned UsableCpus();

}  // namespace blossombench

#endif  // BLOSSOMBENCH_WORKLOADS_H_
