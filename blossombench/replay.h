// Staged replay: re-evaluates a query through the engine's public module
// functions (parse → pattern build/decompose/bind → plan → drain → project
// or bind/cross/where → construct) with a timer around each call. This is
// how the benchmark attributes time to layers without any tracing inside
// the engine. The replay must produce exactly the bytes
// BlossomTreeEngine::EvaluateQuery produces; the benchmark checks that.
#ifndef BLOSSOMBENCH_REPLAY_H_
#define BLOSSOMBENCH_REPLAY_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "opt/planner.h"
#include "util/status.h"
#include "xml/document.h"

namespace blossombench {

/// Layers a replayed query's time is split into. Every nanosecond between
/// the start and the end of a replay is charged to exactly one stage (the
/// innermost one entered), so the stages sum to the replay's wall time.
enum class Stage {
  kParse,      ///< flwor::ParseQuery.
  kCompile,    ///< pattern::BuildFrom* + Decompose + ComputeSlotBindings.
  kPlan,       ///< opt::PlanQuery.
  kDrain,      ///< Pulling every row out of the operator tree (exec).
  kProject,    ///< nestedlist::Project (path queries).
  kBind,       ///< engine::EnumerateBindings (FLWOR queries).
  kCross,      ///< engine::CrossEnvs.
  kWhere,      ///< engine::EvalWhere over the crossed tuples.
  kNaive,      ///< Per-iteration fallback (engine::NaiveFlworTuples).
  kConstruct,  ///< order by, result construction and serialization.
  kResidual,   ///< Glue between the calls above.
};
inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kResidual) + 1;

/// Exclusive-time accounting across nested stages.
class StageClock {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the clock in kResidual.
  StageClock();

  /// Charges the time since the last switch to the current stage and makes
  /// `s` current; returns the stage that was current.
  Stage Switch(Stage s);

  /// Charges the time since the last switch; call once at the end.
  void Stop() { Switch(Stage::kResidual); }

  uint64_t nanos(Stage s) const { return nanos_[static_cast<size_t>(s)]; }
  uint64_t total() const;

  /// Scope guard: enters a stage, restores the previous one on exit.
  class Scope {
   public:
    Scope(StageClock* clock, Stage s)
        : clock_(clock), prev_(clock->Switch(s)) {}
    ~Scope() { clock_->Switch(prev_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageClock* clock_;
    Stage prev_;
  };

 private:
  std::array<uint64_t, kNumStages> nanos_{};
  Stage current_ = Stage::kResidual;
  Clock::time_point last_;
};

/// Deterministic work counters of one replay, summed over every plan the
/// query ran (for a fixed document and query they repeat exactly).
struct WorkCounts {
  uint64_t nodes_scanned = 0;  ///< ExecStats::nodes_scanned, all operators.
  uint64_t rows_root = 0;      ///< Rows the plan roots emitted.
  uint64_t rows_all = 0;       ///< Rows every operator emitted.
  uint64_t nl_cells = 0;       ///< NestedList cells every operator emitted.
  uint64_t seek_probes = 0;    ///< Index entries IndexSeek operators read.
  uint64_t tuples_crossed = 0; ///< Tuples out of CrossEnvs.
  uint64_t tuples_kept = 0;    ///< Tuples left after the where clause.

  bool operator==(const WorkCounts&) const = default;
  void MergeFrom(const WorkCounts& o);
};

struct ReplayResult {
  std::string bytes;  ///< Serialized result.
  StageClock clock;
  WorkCounts counts;
  /// Exclusive operator time per operator kind (Name()): inclusive
  /// ExecStats::wall_nanos minus the children's.
  std::map<std::string, uint64_t> self_nanos;
};

/// Replays `query` over `doc` with `plan_options` (the options a
/// BlossomTreeEngine would plan with; no guard, no caches).
blossomtree::Result<ReplayResult> StagedReplay(
    const blossomtree::xml::Document* doc, std::string_view query,
    const blossomtree::opt::PlanOptions& plan_options);

}  // namespace blossombench

#endif  // BLOSSOMBENCH_REPLAY_H_
