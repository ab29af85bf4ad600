#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "exec/operator.h"
#include "exec/twigstack.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "pattern/builder.h"
#include "probe.h"
#include "replay.h"
#include "service/corpus.h"
#include "service/query_service.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/rng.h"
#include "workload/queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossombench {

namespace bt = blossomtree;
using bt::datagen::Dataset;

namespace {

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names; run.py checks that the
// printed set matches it exactly.

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"latency_p50_ms", "ms"},   {"latency_tail_ms", "ms"},
      {"queries_per_s", "1/s"},   {"query_geomean_ms", "ms"},
      {"success_frac", "fraction"}, {"peak_rss_mb", "MB"},
      {"setup_s", "s"},           {"ingest_mb_per_s", "MB/s"},
  };
  return kSpecs;
}

/// Operator kinds with their own exclusive-time metric; the rest are
/// summed into exec.self_ms.other.
const std::vector<std::string>& SelfTimeKinds() {
  static const std::vector<std::string> kKinds = {
      "NokScan", "IndexSeek", "PipelinedDescJoin", "BoundedNestedLoopJoin",
      "NestedLoopJoin"};
  return kKinds;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"exec.drain_ms", "ms"},
      {"exec.self_ms.NokScan", "ms"},
      {"exec.self_ms.IndexSeek", "ms"},
      {"exec.self_ms.PipelinedDescJoin", "ms"},
      {"exec.self_ms.BoundedNestedLoopJoin", "ms"},
      {"exec.self_ms.NestedLoopJoin", "ms"},
      {"exec.self_ms.other", "ms"},
      {"exec.nodes_scanned", "count"},
      {"exec.rows_out", "count"},
      {"exec.row_yield", "ratio"},
      {"exec.ns_per_node", "ns"},
      {"exec.ns_per_row", "ns"},
      {"nestedlist.cells", "count"},
      {"nestedlist.project_ms", "ms"},
      {"engine.bind_ms", "ms"},
      {"engine.cross_ms", "ms"},
      {"engine.where_ms", "ms"},
      {"engine.naive_ms", "ms"},
      {"engine.construct_ms", "ms"},
      {"engine.tuples", "count"},
      {"engine.tuple_yield", "ratio"},
      {"engine.plan_cache_hit_ratio", "ratio"},
      {"exec.result_cache_hit_ratio", "ratio"},
      {"service.queue_delay_p50_ms", "ms"},
      {"service.queue_delay_tail_ms", "ms"},
      {"service.rejected", "count"},
      {"xml.parse_ms", "ms"},
      {"storage.btsx2_write_ms", "ms"},
      {"storage.open_ms", "ms"},
      {"storage.block_reads", "count"},
      {"storage.block_evictions", "count"},
      {"storage.block_hit_ratio", "ratio"},
      {"index.build_ms", "ms"},
      {"index.btsi_write_ms", "ms"},
      {"index.seek_probes", "count"},
      {"flwor.parse_us", "us"},
      {"pattern.compile_us", "us"},
      {"opt.plan_us", "us"},
      {"ref.engine_over_oracle", "ratio"},
      {"ref.pl_over_ts", "ratio"},
      {"trace.e2e_ms", "ms"},
      {"trace.residual_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kSpecs;
}

std::vector<std::string> Names(const std::vector<MetricSpec>& specs) {
  std::vector<std::string> out;
  for (const MetricSpec& s : specs) out.push_back(s.name);
  return out;
}

/// Collects metric values by name and emits them in table order; a metric
/// the workload does not touch is reported as 0 with the note "n/a".
class MetricSheet {
 public:
  explicit MetricSheet(const std::vector<MetricSpec>& specs) : specs_(specs) {}

  void Set(const std::string& name, double value, std::string note = "") {
    values_[name] = {value, std::move(note)};
  }

  void EmitTo(RunReport* report) const {
    for (const MetricSpec& s : specs_) {
      auto it = values_.find(s.name);
      MetricValue m;
      m.name = s.name;
      m.unit = s.unit;
      if (it == values_.end()) {
        m.note = "n/a";
      } else {
        m.value = it->second.first;
        m.note = it->second.second;
      }
      report->metrics.push_back(std::move(m));
    }
  }

 private:
  const std::vector<MetricSpec>& specs_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// ---------------------------------------------------------------------------
// Small helpers.

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

/// Peak resident set of the process so far, in MB.
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A query of a workload together with its oracle answer.
struct Query {
  std::string label;  ///< "d5/Q1", "join", ...
  size_t doc = 0;     ///< Index into the workload's documents.
  std::string text;
  std::string expected;  ///< NavigationalEvaluator bytes.
  double oracle_ms = 0;  ///< Time the oracle took for it.
};

/// Seeded query order: each round is a fresh permutation of the mix.
class MixOrder {
 public:
  MixOrder(size_t n, uint64_t seed) : rng_(seed ^ 0x6D69786F72646572ULL) {
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }

  /// The next round's permutation.
  const std::vector<size_t>& NextRound() {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
    }
    return order_;
  }

 private:
  bt::Rng rng_;
  std::vector<size_t> order_;
};

/// A generated dataset, serialized to XML text and parsed back: the text is
/// the workload's input, the parse is its load.
struct LoadedDoc {
  std::string name;
  std::string xml;
  std::unique_ptr<bt::xml::Document> doc;
};

LoadedDoc GenerateText(Dataset d, double scale, uint64_t seed) {
  bt::datagen::GenOptions o;
  o.scale = scale;
  o.seed = seed;
  auto generated = bt::datagen::GenerateDataset(d, o);
  LoadedDoc out;
  out.name = bt::datagen::DatasetName(d);
  out.xml = bt::xml::Serialize(*generated);
  return out;
}

bool Parse(LoadedDoc* d, RunReport* report) {
  auto parsed = bt::xml::ParseDocument(d->xml);
  if (!parsed.ok()) {
    report->Fail(d->name + ": parse failed: " + parsed.status().ToString());
    return false;
  }
  d->doc = parsed.MoveValue();
  return true;
}

/// XML load rate of the RAM workloads: their documents parsed round-robin,
/// outside set-up and the timed phase. A single set-up parse is too short
/// to time steadily when the CPU speed changes within a second, so the
/// meter accumulates slices of parsing: one before the timed phase and one
/// after it, with a speed-probe slice after every kParseSecondsPerProbe of
/// parsing.
class LoadMeter {
 public:
  explicit LoadMeter(std::vector<const LoadedDoc*> docs)
      : docs_(std::move(docs)) {}

  /// Parses for `seconds` of parse time; false (and a failed report) when
  /// a parse fails.
  bool Measure(double seconds, RunReport* report) {
    double until = seconds_ + seconds;
    while (seconds_ < until) {
      const LoadedDoc& d = *docs_[parses_ % docs_.size()];
      Clock::time_point start = Clock::now();
      auto parsed = bt::xml::ParseDocument(d.xml);
      double took = SecondsSince(start);
      seconds_ += took;
      since_probe_ += took;
      if (!parsed.ok()) {
        report->Fail(d.name + ": parse failed: " + parsed.status().ToString());
        return false;
      }
      bytes_ += static_cast<double>(d.xml.size());
      ++parses_;
      if (since_probe_ >= kParseSecondsPerProbe) {
        probe_.Slice();
        since_probe_ = 0;
      }
    }
    return true;
  }

  double mb_per_s() const { return Ratio(bytes_ / 1e6, seconds_); }
  /// Time scale of the parsing, from the probe slices between parses.
  double time_scale() const { return probe_.TimeScale(); }
  double ms_per_parse() const {
    return Ratio(seconds_ * 1e3, static_cast<double>(parses_));
  }

 private:
  static constexpr double kParseSecondsPerProbe = 0.1;

  std::vector<const LoadedDoc*> docs_;
  SpeedProbe probe_;
  double bytes_ = 0;
  double seconds_ = 0;
  double since_probe_ = 0;
  size_t parses_ = 0;
};

/// Parse time of one LoadMeter slice.
constexpr double kLoadSliceSeconds = 2.0;

/// Computes the oracle answer of every query (outside any timed phase).
bool ComputeOracle(const std::vector<const bt::xml::Document*>& docs,
                   std::vector<Query>* queries, RunReport* report) {
  for (Query& q : *queries) {
    bt::baseline::NavigationalEvaluator nav(docs[q.doc]);
    Clock::time_point start = Clock::now();
    auto r = nav.EvaluateQuery(q.text);
    q.oracle_ms = MsSince(start);
    if (!r.ok()) {
      report->Fail(q.label + ": oracle failed: " + r.status().ToString());
      return false;
    }
    q.expected = r.MoveValue();
  }
  return true;
}

std::vector<Query> AppendixAQueries(Dataset d, size_t doc_index) {
  std::vector<Query> out;
  for (const bt::workload::QuerySpec& spec : bt::workload::QueriesFor(d)) {
    Query q;
    q.label = std::string(bt::datagen::DatasetName(d)) + "/" + spec.id;
    q.doc = doc_index;
    q.text = spec.xpath;
    out.push_back(std::move(q));
  }
  return out;
}

/// Latency samples of a timed phase, overall and per distinct query.
struct LatencyLog {
  std::vector<double> all_ms;
  std::vector<std::vector<double>> per_query_ms;

  explicit LatencyLog(size_t num_queries) : per_query_ms(num_queries) {}

  void Add(size_t query, double ms) {
    all_ms.push_back(ms);
    per_query_ms[query].push_back(ms);
  }
};

/// Checks `result` against the oracle and records the outcome.
void Check(const Query& q, const bt::Result<std::string>& result,
           RunReport* report) {
  if (!result.ok()) {
    report->tally.Record(Outcome::kError);
    report->problems.push_back(q.label + ": " + result.status().ToString());
    return;
  }
  if (*result != q.expected) {
    report->tally.Record(Outcome::kWrong);
    report->Fail(q.label + ": result differs from the navigational oracle");
    return;
  }
  report->tally.Record(Outcome::kCorrect);
}

/// Number of set-ups a run times; setup_s is their median.
constexpr int kSetupRuns = 5;

/// Speed-probe slices per set-up repetition.
constexpr int kProbeSlicesPerSetup = 3;

/// What a workload measured besides its latency samples. Durations and
/// rates are as measured; each `*_scale` is the SpeedProbe::TimeScale of
/// the phase they were measured in, and the end-to-end metrics report them
/// at the reference speed (durations times the scale, rates divided by it).
struct RunTotals {
  double elapsed_s = 0;  ///< Timed phase, less any probe slices run in it.
  double time_scale = 1;
  double setup_s = 0;
  double setup_scale = 1;
  double ingest_mb_per_s = 0;
  double ingest_scale = 1;
  double peak_rss_mb = 0;
};

std::string RawNote(double raw, const char* unit, double scale) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "as measured %.3f %s, speed scale %.3f", raw,
                unit, scale);
  return buf;
}

void EmitEndToEnd(const std::vector<Query>& queries, const LatencyLog& log,
                  const RunTotals& t, RunReport* report) {
  MetricSheet sheet(EndToEndSpecs());
  const double scale = t.time_scale;
  double p50 = Median(log.all_ms);
  sheet.Set("latency_p50_ms", p50 * scale, RawNote(p50, "ms", scale));
  TailPick tail = PickTail(log.all_ms);
  sheet.Set("latency_tail_ms", tail.value * scale,
            DescribeTail(tail) + ", " + RawNote(tail.value, "ms", scale));
  double qps = Ratio(static_cast<double>(report->tally.correct), t.elapsed_s);
  sheet.Set("queries_per_s", qps / scale, RawNote(qps, "1/s", scale));
  std::vector<double> medians;
  for (size_t qi = 0; qi < log.per_query_ms.size(); ++qi) {
    const std::vector<double>& q = log.per_query_ms[qi];
    if (q.empty()) continue;
    medians.push_back(Median(q));
    std::printf("  query %-16s median %9.3f ms as measured, n=%zu\n",
                queries[qi].label.c_str(), medians.back(), q.size());
  }
  double geomean = GeoMean(medians);
  sheet.Set("query_geomean_ms", geomean * scale,
            std::to_string(medians.size()) + " queries, " +
                RawNote(geomean, "ms", scale));
  uint64_t attempted = report->tally.attempted();
  sheet.Set("success_frac",
            attempted == 0 ? 0 : 1.0 - report->tally.failed_frac(),
            "failed_frac=" + std::to_string(report->tally.failed_frac()));
  sheet.Set("peak_rss_mb", t.peak_rss_mb);
  sheet.Set("setup_s", t.setup_s * t.setup_scale,
            "median of " + std::to_string(kSetupRuns) + " set-ups, " +
                RawNote(t.setup_s, "s", t.setup_scale));
  sheet.Set("ingest_mb_per_s", t.ingest_mb_per_s / t.ingest_scale,
            RawNote(t.ingest_mb_per_s, "MB/s", t.ingest_scale));
  sheet.EmitTo(report);
}

/// Runs `setup` kSetupRuns times and returns the median duration in
/// seconds; the state built by the last repetition is the one the run uses.
/// Speed-probe slices run after every repetition (outside its time), and
/// `*scale` receives their time scale.
double TimedSetup(const std::function<bool()>& setup, bool* ok,
                  double* scale) {
  std::vector<double> times;
  SpeedProbe probe;
  *ok = true;
  for (int i = 0; i < kSetupRuns && *ok; ++i) {
    Clock::time_point start = Clock::now();
    *ok = setup();
    times.push_back(SecondsSince(start));
    for (int k = 0; k < kProbeSlicesPerSetup; ++k) probe.Slice();
  }
  *scale = probe.TimeScale();
  return Median(times);
}

// ---------------------------------------------------------------------------
// Traced-run accounting.

/// Per-layer totals over every staged replay of a traced run, plus the
/// deterministic counters of the first pass over the distinct queries.
class LayerAccount {
 public:
  explicit LayerAccount(size_t num_queries)
      : first_(num_queries), traced_ms_(num_queries),
        untraced_ms_(num_queries) {}

  /// Records one replay of query `qi` and the untraced engine time of the
  /// same query measured just before it. Returns false when the replay's
  /// counters differ from the first replay of that query.
  bool Add(size_t qi, const ReplayResult& r, double untraced_ms) {
    ++replays_;
    for (size_t s = 0; s < kNumStages; ++s) {
      stage_ns_[s] += r.clock.nanos(static_cast<Stage>(s));
    }
    for (const auto& [kind, ns] : r.self_nanos) self_ns_[kind] += ns;
    totals_.MergeFrom(r.counts);
    traced_ms_[qi].push_back(static_cast<double>(r.clock.total()) / 1e6);
    untraced_ms_[qi].push_back(untraced_ms);
    if (!first_[qi].has_value()) {
      first_[qi] = r.counts;
      return true;
    }
    return *first_[qi] == r.counts;
  }

  /// Counters of the first replay of every distinct query, summed.
  WorkCounts FirstPass() const {
    WorkCounts c;
    for (const auto& f : first_) {
      if (f.has_value()) c.MergeFrom(*f);
    }
    return c;
  }

  /// Median untraced engine latency of query `qi`.
  double UntracedMedianMs(size_t qi) const {
    return Median(untraced_ms_[qi]);
  }

  void EmitTo(MetricSheet* sheet) const {
    double n = replays_ == 0 ? 1 : static_cast<double>(replays_);
    auto mean_ms = [&](Stage s) {
      return static_cast<double>(stage_ns_[static_cast<size_t>(s)]) / 1e6 / n;
    };
    auto mean_us = [&](Stage s) { return mean_ms(s) * 1e3; };
    sheet->Set("exec.drain_ms", mean_ms(Stage::kDrain));
    uint64_t other = 0;
    for (const auto& [kind, ns] : self_ns_) {
      const auto& kinds = SelfTimeKinds();
      if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
        other += ns;
      }
    }
    for (const std::string& kind : SelfTimeKinds()) {
      auto it = self_ns_.find(kind);
      if (it != self_ns_.end()) {
        sheet->Set("exec.self_ms." + kind,
                   static_cast<double>(it->second) / 1e6 / n);
      }
    }
    sheet->Set("exec.self_ms.other", static_cast<double>(other) / 1e6 / n);
    WorkCounts first = FirstPass();
    sheet->Set("exec.nodes_scanned", static_cast<double>(first.nodes_scanned),
               "one pass over the distinct queries");
    sheet->Set("exec.rows_out", static_cast<double>(first.rows_root));
    sheet->Set("exec.row_yield", Ratio(static_cast<double>(first.rows_root),
                                       static_cast<double>(first.rows_all)));
    double drain_ns =
        static_cast<double>(stage_ns_[static_cast<size_t>(Stage::kDrain)]);
    sheet->Set("exec.ns_per_node",
               Ratio(drain_ns, static_cast<double>(totals_.nodes_scanned)));
    sheet->Set("exec.ns_per_row",
               Ratio(drain_ns, static_cast<double>(totals_.rows_all)));
    sheet->Set("nestedlist.cells", static_cast<double>(first.nl_cells));
    sheet->Set("nestedlist.project_ms", mean_ms(Stage::kProject));
    sheet->Set("engine.bind_ms", mean_ms(Stage::kBind));
    sheet->Set("engine.cross_ms", mean_ms(Stage::kCross));
    sheet->Set("engine.where_ms", mean_ms(Stage::kWhere));
    sheet->Set("engine.naive_ms", mean_ms(Stage::kNaive));
    sheet->Set("engine.construct_ms", mean_ms(Stage::kConstruct));
    sheet->Set("engine.tuples", static_cast<double>(first.tuples_crossed));
    sheet->Set("engine.tuple_yield",
               Ratio(static_cast<double>(first.tuples_kept),
                     static_cast<double>(first.tuples_crossed)));
    sheet->Set("index.seek_probes", static_cast<double>(first.seek_probes));
    sheet->Set("flwor.parse_us", mean_us(Stage::kParse));
    sheet->Set("pattern.compile_us", mean_us(Stage::kCompile));
    sheet->Set("opt.plan_us", mean_us(Stage::kPlan));
    uint64_t total_ns = 0;
    for (uint64_t ns : stage_ns_) total_ns += ns;
    sheet->Set("trace.e2e_ms", static_cast<double>(total_ns) / 1e6 / n,
               std::to_string(replays_) + " replays");
    sheet->Set("trace.residual_ms", mean_ms(Stage::kResidual));
    std::vector<double> overhead;
    for (size_t qi = 0; qi < traced_ms_.size(); ++qi) {
      double untraced = Median(untraced_ms_[qi]);
      if (!traced_ms_[qi].empty() && untraced > 0) {
        overhead.push_back(Median(traced_ms_[qi]) / untraced);
      }
    }
    sheet->Set("trace.overhead_ratio", GeoMean(overhead),
               "staged replay vs EvaluateQuery, geomean over queries");
  }

 private:
  uint64_t replays_ = 0;
  std::array<uint64_t, kNumStages> stage_ns_{};
  std::map<std::string, uint64_t> self_ns_;
  WorkCounts totals_;
  std::vector<std::optional<WorkCounts>> first_;
  std::vector<std::vector<double>> traced_ms_;
  std::vector<std::vector<double>> untraced_ms_;
};

/// Times one untraced EvaluateQuery and one staged replay of `q`, checks
/// both against the oracle and records the replay.
void TraceQuery(const Query& q, size_t qi, const bt::xml::Document* doc,
                const bt::engine::EngineOptions& options, LayerAccount* acct,
                RunReport* report) {
  bt::engine::BlossomTreeEngine engine(doc, options);
  Clock::time_point start = Clock::now();
  bt::Result<std::string> direct = engine.EvaluateQuery(q.text);
  double untraced_ms = MsSince(start);
  Check(q, direct, report);
  start = Clock::now();
  bt::Result<ReplayResult> replay = StagedReplay(doc, q.text, options.plan);
  double traced_ms = MsSince(start);
  if (!replay.ok()) {
    report->Fail(q.label + ": staged replay failed: " +
                 replay.status().ToString());
    return;
  }
  if (replay->bytes != q.expected) {
    report->Fail(q.label + ": staged replay differs from EvaluateQuery");
  }
  // Layer times plus the residual are the replay's clock by construction;
  // the clock must also cover the wall time around the call, or some work
  // escaped the stages.
  double attributed_ms = static_cast<double>(replay->clock.total()) / 1e6;
  if (attributed_ms > traced_ms ||
      attributed_ms < 0.5 * traced_ms - 5.0) {
    report->Fail(q.label + ": layer times do not add up to the traced time");
  }
  if (!acct->Add(qi, *replay, untraced_ms)) {
    report->Fail(q.label + ": work counters changed between replays");
  }
}

double EngineOverOracle(const std::vector<Query>& queries,
                        const LayerAccount& acct) {
  std::vector<double> ratios;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    double engine_ms = acct.UntracedMedianMs(qi);
    if (engine_ms > 0 && queries[qi].oracle_ms > 0) {
      ratios.push_back(engine_ms / queries[qi].oracle_ms);
    }
  }
  return GeoMean(ratios);
}

// ---------------------------------------------------------------------------
// paths_ram: Appendix A Q1-Q6 on d2, d3, d5 at scale 1, in RAM, one
// closed-loop client on a serial engine with caches off.

bt::engine::EngineOptions SerialEngineOptions() {
  bt::engine::EngineOptions o;
  o.num_threads = 1;
  return o;
}

/// Timings (us) of the PL plan drain and TwigStack::Run for one cell.
struct PlVsTs {
  std::vector<double> pl_us;
  std::vector<double> ts_us;
};

void TimePlVsTs(const bt::xml::Document* doc, const std::string& xpath,
                PlVsTs* cell, RunReport* report) {
  auto path = bt::xpath::ParsePath(xpath);
  if (!path.ok()) {
    report->Fail(xpath + ": " + path.status().ToString());
    return;
  }
  auto tree = bt::pattern::BuildFromPath(*path);
  if (!tree.ok()) {
    report->Fail(xpath + ": " + tree.status().ToString());
    return;
  }
  bt::opt::PlanOptions po;
  po.strategy = bt::opt::JoinStrategy::kPipelined;
  auto plan = bt::opt::PlanQuery(doc, &*tree, po);
  if (!plan.ok()) {
    report->Fail(xpath + ": " + plan.status().ToString());
    return;
  }
  Clock::time_point start = Clock::now();
  std::vector<bt::nestedlist::NestedList> rows =
      bt::exec::Drain(plan->trees[0].root.get());
  cell->pl_us.push_back(MsSince(start) * 1e3);
  bt::exec::TwigStack twig(doc, &*tree);
  std::vector<bt::xml::NodeId> out;
  start = Clock::now();
  bt::Status st = twig.Run(tree->VertexOfVariable("result"), &out);
  cell->ts_us.push_back(MsSince(start) * 1e3);
  if (!st.ok()) report->Fail(xpath + ": TwigStack: " + st.ToString());
}

void RunPathsRam(const RunConfig& cfg, RunReport* report) {
  const Dataset kSets[] = {Dataset::kD2Address, Dataset::kD3Catalog,
                           Dataset::kD5Dblp};
  std::vector<LoadedDoc> docs;
  std::vector<Query> queries;
  for (size_t i = 0; i < 3; ++i) {
    for (Query& q : AppendixAQueries(kSets[i], i)) queries.push_back(q);
  }
  bt::engine::EngineOptions eo = SerialEngineOptions();
  bool ok = false;
  double setup_scale = 1;
  double setup_s = TimedSetup(
      [&] {
        docs.clear();
        for (Dataset d : kSets) {
          docs.push_back(GenerateText(d, 1.0, cfg.seed));
          if (!Parse(&docs.back(), report)) return false;
        }
        // Warm-up pass: allocator and page-cache state before timing.
        for (const Query& q : queries) {
          bt::engine::BlossomTreeEngine engine(docs[q.doc].doc.get(), eo);
          if (!engine.EvaluateQuery(q.text).ok()) {
            report->Fail(q.label + ": warm-up query failed");
            return false;
          }
        }
        return true;
      },
      &ok, &setup_scale);
  if (!ok) return;
  std::vector<const bt::xml::Document*> doc_ptrs;
  std::vector<const LoadedDoc*> texts;
  for (const LoadedDoc& d : docs) {
    doc_ptrs.push_back(d.doc.get());
    texts.push_back(&d);
  }
  LoadMeter load(texts);
  if (!load.Measure(kLoadSliceSeconds, report)) return;
  if (!ComputeOracle(doc_ptrs, &queries, report)) return;

  MixOrder mix(queries.size(), cfg.seed);
  if (!cfg.trace) {
    std::vector<std::unique_ptr<bt::engine::BlossomTreeEngine>> engines;
    for (const bt::xml::Document* d : doc_ptrs) {
      engines.push_back(std::make_unique<bt::engine::BlossomTreeEngine>(d, eo));
    }
    LatencyLog log(queries.size());
    RunTotals totals;
    totals.setup_s = setup_s;
    totals.setup_scale = setup_scale;
    SpeedProbe probe;
    Clock::time_point start = Clock::now();
    while (SecondsSince(start) < cfg.seconds) {
      for (size_t qi : mix.NextRound()) {
        const Query& q = queries[qi];
        Clock::time_point t0 = Clock::now();
        bt::Result<std::string> r = engines[q.doc]->EvaluateQuery(q.text);
        log.Add(qi, MsSince(t0));
        Check(q, r, report);
      }
      probe.Slice();
    }
    totals.elapsed_s = SecondsSince(start) - probe.TotalSeconds();
    totals.time_scale = probe.TimeScale();
    totals.peak_rss_mb = PeakRssMb();
    if (!load.Measure(kLoadSliceSeconds, report)) return;
    totals.ingest_mb_per_s = load.mb_per_s();
    totals.ingest_scale = load.time_scale();
    EmitEndToEnd(queries, log, totals, report);
    return;
  }

  LayerAccount acct(queries.size());
  std::vector<PlVsTs> cells(queries.size());
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < cfg.seconds) {
    for (size_t qi : mix.NextRound()) {
      const Query& q = queries[qi];
      TraceQuery(q, qi, doc_ptrs[q.doc], eo, &acct, report);
      TimePlVsTs(doc_ptrs[q.doc], q.text, &cells[qi], report);
    }
  }
  MetricSheet sheet(PerLayerSpecs());
  acct.EmitTo(&sheet);
  std::vector<double> pl_over_ts;
  for (size_t qi = 0; qi < cells.size(); ++qi) {
    double pl = Median(cells[qi].pl_us);
    double ts = Median(cells[qi].ts_us);
    if (pl > 0 && ts > 0) pl_over_ts.push_back(pl / ts);
    std::printf("  PL vs TS %-6s PL %10.1f us  TS %10.1f us  ratio %.3f\n",
                queries[qi].label.c_str(), pl, ts, Ratio(pl, ts));
  }
  sheet.Set("ref.pl_over_ts", GeoMean(pl_over_ts),
            "geomean over " + std::to_string(pl_over_ts.size()) + " cells");
  sheet.Set("ref.engine_over_oracle", EngineOverOracle(queries, acct));
  sheet.Set("xml.parse_ms", load.ms_per_parse(), "per document");
  sheet.EmitTo(report);
}

// ---------------------------------------------------------------------------
// flwor_service: a FLWOR mix on d5 at scale 0.25 through QueryService, with
// the corpus plan and result caches on and warm; one generator thread keeps
// nproc tickets outstanding on nproc - 1 slots (a closed loop).

void RunFlworService(const RunConfig& cfg, RunReport* report) {
  std::vector<Query> queries;
  for (const auto& [label, text] : FlworMix()) {
    Query q;
    q.label = label;
    q.text = text;
    queries.push_back(std::move(q));
  }
  size_t slots = std::max<size_t>(1, UsableCpus() - 1);
  size_t outstanding = std::max<size_t>(2, UsableCpus());
  LoadedDoc d5;
  std::unique_ptr<bt::service::Corpus> corpus;
  std::unique_ptr<bt::service::QueryService> service;
  bool ok = false;
  double setup_scale = 1;
  double setup_s = TimedSetup(
      [&] {
        service.reset();
        corpus.reset();
        d5 = GenerateText(Dataset::kD5Dblp, 0.25, cfg.seed);
        if (!Parse(&d5, report)) return false;
        bt::service::CorpusOptions co;
        co.plan_cache.enabled = true;
        co.result_cache.enabled = true;
        corpus = std::make_unique<bt::service::Corpus>(co);
        if (!corpus->Add("d5", std::move(d5.doc)).ok()) {
          report->Fail("d5: corpus load failed");
          return false;
        }
        bt::service::ServiceOptions so;
        so.slots = slots;
        service = std::make_unique<bt::service::QueryService>(corpus.get(), so);
        auto warm = service->CreateSession("warmup");
        for (const Query& q : queries) {
          if (!service->Execute(*warm, "d5", q.text).ok()) {
            report->Fail(q.label + ": warm-up query failed");
            return false;
          }
        }
        return true;
      },
      &ok, &setup_scale);
  if (!ok) return;
  LoadMeter load({&d5});
  if (!load.Measure(kLoadSliceSeconds, report)) return;
  // The corpus owns the parsed document; the oracle and the traced replays
  // read the same one.
  const bt::xml::Document* doc = corpus->Get("d5")->doc();
  if (!ComputeOracle({doc}, &queries, report)) return;

  MixOrder mix(queries.size(), cfg.seed);
  std::vector<size_t> pending_order;
  auto next_query = [&] {
    if (pending_order.empty()) {
      const std::vector<size_t>& round = mix.NextRound();
      pending_order.assign(round.rbegin(), round.rend());
    }
    size_t qi = pending_order.back();
    pending_order.pop_back();
    return qi;
  };

  // Closed loop: keeps `outstanding` tickets in flight until `seconds`
  // have passed, then drains.
  LatencyLog log(queries.size());
  std::vector<double> queue_ms;
  auto session = service->CreateSession("bench");
  bt::util::CacheStats plan0 = corpus->plan_cache()->Stats();
  bt::util::CacheStats result0 = corpus->result_cache()->Stats();
  double loop_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  struct InFlight {
    std::shared_ptr<bt::service::QueryTicket> ticket;
    size_t qi;
  };
  std::vector<InFlight> in_flight;
  RunTotals totals;
  totals.setup_s = setup_s;
  totals.setup_scale = setup_scale;
  // The generator thread runs a probe slice every kProbeEverySeconds while
  // the slots keep working on the tickets in flight.
  constexpr double kProbeEverySeconds = 0.25;
  SpeedProbe probe;
  Clock::time_point last_slice = Clock::now();
  Clock::time_point start = Clock::now();
  while (true) {
    bool submitting = SecondsSince(start) < loop_seconds;
    if (submitting && SecondsSince(last_slice) >= kProbeEverySeconds) {
      probe.Slice();
      last_slice = Clock::now();
    }
    while (submitting && in_flight.size() < outstanding) {
      size_t qi = next_query();
      in_flight.push_back({service->Submit(*session, "d5", queries[qi].text),
                           qi});
    }
    if (in_flight.empty()) break;
    bool progressed = false;
    for (size_t i = 0; i < in_flight.size();) {
      if (!in_flight[i].ticket->done()) {
        ++i;
        continue;
      }
      const InFlight& f = in_flight[i];
      const Query& q = queries[f.qi];
      const bt::Result<std::string>& r = f.ticket->Wait();
      if (!r.ok() && r.status().code() ==
                         bt::StatusCode::kResourceExhausted &&
          f.ticket->e2e_ns() == 0) {
        report->tally.Record(Outcome::kRejected);
      } else {
        log.Add(f.qi, static_cast<double>(f.ticket->e2e_ns()) / 1e6);
        queue_ms.push_back(static_cast<double>(f.ticket->queue_delay_ns()) /
                           1e6);
        Check(q, r, report);
      }
      in_flight[i] = std::move(in_flight.back());
      in_flight.pop_back();
      progressed = true;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  totals.elapsed_s = SecondsSince(start);
  totals.time_scale = probe.TimeScale();
  if (!cfg.trace) {
    totals.peak_rss_mb = PeakRssMb();
    if (!load.Measure(kLoadSliceSeconds, report)) return;
    totals.ingest_mb_per_s = load.mb_per_s();
    totals.ingest_scale = load.time_scale();
    EmitEndToEnd(queries, log, totals, report);
    return;
  }

  MetricSheet sheet(PerLayerSpecs());
  sheet.Set("service.queue_delay_p50_ms", Median(queue_ms));
  TailPick qtail = PickTail(queue_ms);
  sheet.Set("service.queue_delay_tail_ms", qtail.value, DescribeTail(qtail));
  sheet.Set("service.rejected", static_cast<double>(report->tally.rejected));
  bt::util::CacheStats plan1 = corpus->plan_cache()->Stats();
  bt::util::CacheStats result1 = corpus->result_cache()->Stats();
  auto hit_ratio = [](const bt::util::CacheStats& a,
                      const bt::util::CacheStats& b) {
    double hits = static_cast<double>(b.hits - a.hits);
    double misses = static_cast<double>(b.misses - a.misses);
    return Ratio(hits, hits + misses);
  };
  sheet.Set("engine.plan_cache_hit_ratio", hit_ratio(plan0, plan1));
  sheet.Set("exec.result_cache_hit_ratio", hit_ratio(result0, result1));

  // Second half: staged replays on a serial, uncached engine, so the layer
  // times show the work the caches would otherwise hide.
  bt::engine::EngineOptions eo = SerialEngineOptions();
  LayerAccount acct(queries.size());
  start = Clock::now();
  while (SecondsSince(start) < cfg.seconds - loop_seconds) {
    for (size_t qi : mix.NextRound()) {
      TraceQuery(queries[qi], qi, doc, eo, &acct, report);
    }
  }
  acct.EmitTo(&sheet);
  sheet.Set("ref.engine_over_oracle", EngineOverOracle(queries, acct));
  sheet.Set("xml.parse_ms", load.ms_per_parse());
  sheet.EmitTo(report);
}

// ---------------------------------------------------------------------------
// ingest_disk: cycles of XML parse -> .btsx2 write -> index build + .btsi
// write -> DiskStore open (cache budget 1/4 of the record section) -> two
// rounds of Appendix A Q1-Q6 over the store and its index, on d4 and d5 at
// scale 1.

struct IngestTimes {
  double parse_ms = 0;
  double btsx2_write_ms = 0;
  double index_build_ms = 0;
  double btsi_write_ms = 0;
  double open_ms = 0;
  double total_s() const {
    return (parse_ms + btsx2_write_ms + index_build_ms + btsi_write_ms +
            open_ms) /
           1e3;
  }
};

/// One ingest: text to an opened DiskStore with its index attached.
std::unique_ptr<bt::storage::DiskStore> Ingest(const LoadedDoc& src,
                                               const std::string& path,
                                               IngestTimes* t,
                                               RunReport* report) {
  Clock::time_point start = Clock::now();
  auto parsed = bt::xml::ParseDocument(src.xml);
  t->parse_ms = MsSince(start);
  if (!parsed.ok()) {
    report->Fail(src.name + ": parse failed: " + parsed.status().ToString());
    return nullptr;
  }
  const bt::xml::Document& doc = **parsed;
  start = Clock::now();
  bt::Status st = bt::storage::WriteBtsx2(doc, path);
  t->btsx2_write_ms = MsSince(start);
  if (!st.ok()) {
    report->Fail(src.name + ": .btsx2 write failed: " + st.ToString());
    return nullptr;
  }
  start = Clock::now();
  std::unique_ptr<bt::index::StructuralIndex> idx =
      bt::index::StructuralIndex::Build(doc);
  t->index_build_ms = MsSince(start);
  start = Clock::now();
  st = bt::index::WriteBtsi(*idx, bt::index::BtsiSidecarPath(path));
  t->btsi_write_ms = MsSince(start);
  if (!st.ok()) {
    report->Fail(src.name + ": .btsi write failed: " + st.ToString());
    return nullptr;
  }
  bt::storage::DiskStoreOptions so;
  so.cache_budget_bytes =
      doc.NumNodes() * sizeof(bt::storage::NodeRecord) / 4;
  start = Clock::now();
  auto store = bt::storage::DiskStore::Open(path, so);
  t->open_ms = MsSince(start);
  if (!store.ok()) {
    report->Fail(src.name + ": open failed: " + store.status().ToString());
    return nullptr;
  }
  if ((*store)->index() == nullptr || (*store)->document() == nullptr) {
    report->Fail(src.name + ": store opened without its index or document");
    return nullptr;
  }
  return store.MoveValue();
}

/// Rounds of Q1-Q6 over each freshly ingested store: the first reads a
/// cold block cache, the second one warmed (within its 1/4 budget) by the
/// first.
constexpr int kQueryRoundsPerIngest = 2;

bt::engine::EngineOptions StoreEngineOptions(
    const bt::storage::DiskStore& store) {
  bt::engine::EngineOptions o = SerialEngineOptions();
  o.plan.store = &store;
  o.plan.index = store.index();
  return o;
}

void RunIngestDisk(const RunConfig& cfg, RunReport* report) {
  const Dataset kSets[] = {Dataset::kD4Treebank, Dataset::kD5Dblp};
  std::vector<LoadedDoc> docs;
  std::vector<Query> queries;
  for (size_t i = 0; i < 2; ++i) {
    for (Query& q : AppendixAQueries(kSets[i], i)) queries.push_back(q);
  }
  bool ok = false;
  double setup_scale = 1;
  double setup_s = TimedSetup(
      [&] {
        docs.clear();
        for (Dataset d : kSets) docs.push_back(GenerateText(d, 1.0, cfg.seed));
        return true;
      },
      &ok, &setup_scale);
  if (!ok) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    report->Fail("cannot create " + cfg.workdir + ": " + ec.message());
    return;
  }

  // Oracle on a parsed copy of each document; the in-RAM engine on the
  // same parse must agree with it before the disk answers are compared.
  std::vector<const bt::xml::Document*> doc_ptrs;
  for (LoadedDoc& d : docs) {
    if (!Parse(&d, report)) return;
    doc_ptrs.push_back(d.doc.get());
  }
  if (!ComputeOracle(doc_ptrs, &queries, report)) return;
  for (const Query& q : queries) {
    bt::engine::BlossomTreeEngine ram(doc_ptrs[q.doc], SerialEngineOptions());
    bt::Result<std::string> r = ram.EvaluateQuery(q.text);
    if (!r.ok() || *r != q.expected) {
      report->Fail(q.label + ": in-RAM engine differs from the oracle");
    }
  }
  if (!report->correct) return;

  std::vector<std::vector<size_t>> by_doc(docs.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    by_doc[queries[qi].doc].push_back(qi);
  }
  MixOrder doc_mix(docs.size(), cfg.seed);
  MixOrder query_mix(by_doc[0].size(), cfg.seed + 1);

  LatencyLog log(queries.size());
  LayerAccount acct(queries.size());
  std::vector<IngestTimes> cycles;
  double ingest_bytes = 0;
  uint64_t block_reads = 0, block_hits = 0, block_misses = 0, evictions = 0;
  std::vector<bool> counted(docs.size(), false);
  RunTotals totals;
  totals.setup_s = setup_s;
  totals.setup_scale = setup_scale;
  SpeedProbe probe;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < cfg.seconds && report->correct) {
    for (size_t di : doc_mix.NextRound()) {
      std::string path = cfg.workdir + "/" + docs[di].name + ".btsx2";
      IngestTimes t;
      std::unique_ptr<bt::storage::DiskStore> store =
          Ingest(docs[di], path, &t, report);
      if (store == nullptr) return;
      cycles.push_back(t);
      ingest_bytes += static_cast<double>(docs[di].xml.size());
      probe.Slice();
      bt::engine::EngineOptions eo = StoreEngineOptions(*store);
      const bt::xml::Document* disk_doc = store->document();
      store->ResetCounters();
      bt::util::CacheStats before = store->BlockCacheStats();
      bt::engine::BlossomTreeEngine engine(disk_doc, eo);
      for (int round = 0; round < kQueryRoundsPerIngest; ++round) {
        for (size_t k : query_mix.NextRound()) {
          size_t qi = by_doc[di][k];
          const Query& q = queries[qi];
          if (cfg.trace) {
            TraceQuery(q, qi, disk_doc, eo, &acct, report);
            continue;
          }
          Clock::time_point t0 = Clock::now();
          bt::Result<std::string> r = engine.EvaluateQuery(q.text);
          log.Add(qi, MsSince(t0));
          Check(q, r, report);
        }
      }
      if (cfg.trace && !counted[di]) {
        // Store counters of the first cycle per document: a fresh store
        // running a fixed query sequence, so the block reads repeat.
        counted[di] = true;
        bt::util::CacheStats after = store->BlockCacheStats();
        block_reads += store->PageReads();
        block_hits += after.hits - before.hits;
        block_misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
      }
      store.reset();
      std::filesystem::remove(path, ec);
      std::filesystem::remove(bt::index::BtsiSidecarPath(path), ec);
      probe.Slice();
    }
  }
  totals.elapsed_s = SecondsSince(start) - probe.TotalSeconds();
  totals.time_scale = probe.TimeScale();
  totals.peak_rss_mb = PeakRssMb();
  std::filesystem::remove(cfg.workdir, ec);
  double ingest_s = 0;
  for (const IngestTimes& t : cycles) ingest_s += t.total_s();
  totals.ingest_mb_per_s = Ratio(ingest_bytes / 1e6, ingest_s);
  totals.ingest_scale = totals.time_scale;
  if (!cfg.trace) {
    EmitEndToEnd(queries, log, totals, report);
    return;
  }
  MetricSheet sheet(PerLayerSpecs());
  acct.EmitTo(&sheet);
  auto mean_of = [&](double IngestTimes::*field) {
    double sum = 0;
    for (const IngestTimes& t : cycles) sum += t.*field;
    return cycles.empty() ? 0 : sum / static_cast<double>(cycles.size());
  };
  std::string per_cycle = "mean over " + std::to_string(cycles.size()) +
                          " ingest cycles";
  sheet.Set("xml.parse_ms", mean_of(&IngestTimes::parse_ms), per_cycle);
  sheet.Set("storage.btsx2_write_ms", mean_of(&IngestTimes::btsx2_write_ms));
  sheet.Set("storage.open_ms", mean_of(&IngestTimes::open_ms));
  sheet.Set("index.build_ms", mean_of(&IngestTimes::index_build_ms));
  sheet.Set("index.btsi_write_ms", mean_of(&IngestTimes::btsi_write_ms));
  sheet.Set("storage.block_reads", static_cast<double>(block_reads),
            "first cycle per document");
  sheet.Set("storage.block_evictions", static_cast<double>(evictions));
  sheet.Set("storage.block_hit_ratio",
            Ratio(static_cast<double>(block_hits),
                  static_cast<double>(block_hits + block_misses)));
  sheet.Set("ref.engine_over_oracle", EngineOverOracle(queries, acct));
  sheet.EmitTo(report);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& FlworMix() {
  static const std::vector<std::pair<std::string, std::string>> kMix = {
      {"for-construct",
       "for $t in //phdthesis return <thesis>{$t/title}</thesis>"},
      {"let-where",
       "for $p in //proceedings let $e := $p/editor "
       "where $p/publisher = \"data\" return <p>{$e}</p>"},
      {"join",
       "for $p in //phdthesis, $m in //mastersthesis "
       "where $p/school = $m/school "
       "return <pair>{$p/author}{$m/author}</pair>"},
      {"order-by",
       "for $b in //book order by $b/title return <b>{$b/title}</b>"},
      {"exists-and-neq",
       "for $w in //www where exists($w/url) and $w/title != \"alpha\" "
       "return <w>{$w/url}</w>"},
      {"nested",
       "for $p in //phdthesis return "
       "<t>{for $a in $p/author return <a>{$a}</a>}</t>"},
  };
  return kMix;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = Names(EndToEndSpecs());
  return kNames;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = Names(PerLayerSpecs());
  return kNames;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paths_ram", "flwor_service",
                                                  "ingest_disk"};
  return kNames;
}

bool RunWorkload(const RunConfig& config, RunReport* report) {
  if (config.workload == "paths_ram") {
    RunPathsRam(config, report);
  } else if (config.workload == "flwor_service") {
    RunFlworService(config, report);
  } else if (config.workload == "ingest_disk") {
    RunIngestDisk(config, report);
  } else {
    return false;
  }
  return true;
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace blossombench
