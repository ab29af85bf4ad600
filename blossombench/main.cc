// The blossombench binary: runs one workload and prints its metrics, a
// table for people first and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   blossombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays every query
// stage by stage and reports the per-layer metrics. Exit status is 0 only
// when every result matched the navigational oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using blossombench::RunConfig;
using blossombench::RunReport;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: blossombench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(cfg.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      cfg.trace = value[0] == '1';
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  RunReport report;
  if (!blossombench::RunWorkload(cfg, &report)) {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d  cpus %u\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, blossombench::UsableCpus());
  std::printf("attempted %llu  correct %llu  wrong %llu  errors %llu  "
              "rejected %llu\n",
              static_cast<unsigned long long>(report.tally.attempted()),
              static_cast<unsigned long long>(report.tally.correct),
              static_cast<unsigned long long>(report.tally.wrong),
              static_cast<unsigned long long>(report.tally.errors),
              static_cast<unsigned long long>(report.tally.rejected));
  for (const auto& m : report.metrics) {
    std::printf("  %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& p : report.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  bool correct = report.correct && report.tally.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.tally.attempted());
  json += ", \"failed\": " + std::to_string(report.tally.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
