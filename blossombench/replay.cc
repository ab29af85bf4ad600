#include "replay.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/binder.h"
#include "engine/construct.h"
#include "engine/engine.h"
#include "engine/path_eval.h"
#include "engine/where_eval.h"
#include "exec/operator.h"
#include "flwor/parser.h"
#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"

namespace blossombench {

namespace bt = blossomtree;
using bt::Result;
using bt::Status;
using bt::StatusCode;
using bt::engine::Env;

StageClock::StageClock() : last_(Clock::now()) {}

Stage StageClock::Switch(Stage s) {
  Clock::time_point now = Clock::now();
  nanos_[static_cast<size_t>(current_)] += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
          .count());
  last_ = now;
  Stage prev = current_;
  current_ = s;
  return prev;
}

uint64_t StageClock::total() const {
  uint64_t t = 0;
  for (uint64_t n : nanos_) t += n;
  return t;
}

void WorkCounts::MergeFrom(const WorkCounts& o) {
  nodes_scanned += o.nodes_scanned;
  rows_root += o.rows_root;
  rows_all += o.rows_all;
  nl_cells += o.nl_cells;
  seek_probes += o.seek_probes;
  tuples_crossed += o.tuples_crossed;
  tuples_kept += o.tuples_kept;
}

namespace {

/// Mirrors BlossomTreeEngine's private evaluation (engine/engine.cc) call
/// for call, with each public module call wrapped in its stage.
class Replayer {
 public:
  Replayer(const bt::xml::Document* doc, const bt::opt::PlanOptions& options,
           ReplayResult* out)
      : doc_(doc), options_(options), out_(out) {}

  Status EvalExpr(const bt::flwor::Expr& expr, const Env& env,
                  bt::engine::ResultBuilder* builder) {
    switch (expr.kind) {
      case bt::flwor::Expr::Kind::kPath: {
        std::vector<bt::xml::NodeId> nodes;
        if (env.empty() &&
            expr.path.start == bt::xpath::PathExpr::StartKind::kRoot) {
          BT_ASSIGN_OR_RETURN(nodes, EvalPathPlan(expr.path));
        } else {
          bt::engine::PathEvaluator ev(doc_);
          BT_ASSIGN_OR_RETURN(nodes, ev.EvaluateWith(expr.path, env, {}));
        }
        StageClock::Scope s(&out_->clock, Stage::kConstruct);
        for (bt::xml::NodeId n : nodes) builder->CopyNode(n);
        return Status::OK();
      }
      case bt::flwor::Expr::Kind::kConstructor: {
        {
          StageClock::Scope s(&out_->clock, Stage::kConstruct);
          builder->BeginElement(expr.ctor->name);
          for (const auto& [name, value] : expr.ctor->attributes) {
            builder->AddAttribute(name, value);
          }
        }
        for (const bt::flwor::ConstructorItem& item : expr.ctor->items) {
          if (item.kind == bt::flwor::ConstructorItem::Kind::kText) {
            StageClock::Scope s(&out_->clock, Stage::kConstruct);
            builder->AddText(item.text);
          } else {
            BT_RETURN_NOT_OK(EvalExpr(*item.expr, env, builder));
          }
        }
        StageClock::Scope s(&out_->clock, Stage::kConstruct);
        builder->EndElement();
        return Status::OK();
      }
      case bt::flwor::Expr::Kind::kFlwor:
        return EvalFlwor(*expr.flwor, env, builder);
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  /// Runs `fn` charged to stage `s` and returns its result.
  template <typename Fn>
  auto Timed(Stage s, Fn&& fn) {
    StageClock::Scope scope(&out_->clock, s);
    return fn();
  }

  Result<std::vector<bt::xml::NodeId>> EvalPathPlan(
      const bt::xpath::PathExpr& path) {
    bt::pattern::Decomposition decomposition;
    Result<bt::pattern::BlossomTree> built = Timed(Stage::kCompile, [&] {
      Result<bt::pattern::BlossomTree> r = bt::pattern::BuildFromPath(path);
      if (r.ok()) decomposition = bt::pattern::Decompose(*r);
      return r;
    });
    if (!built.ok()) {
      if (built.status().code() != StatusCode::kUnsupported) {
        return built.status();
      }
      StageClock::Scope s(&out_->clock, Stage::kNaive);
      bt::engine::PathEvaluator ev(doc_);
      return ev.Evaluate(path);
    }
    const bt::pattern::BlossomTree& tree = *built;
    Result<bt::opt::QueryPlan> planned = Timed(Stage::kPlan, [&] {
      return bt::opt::PlanQuery(doc_, &tree, options_, &decomposition);
    });
    BT_RETURN_NOT_OK(planned.status());
    bt::opt::QueryPlan& plan = *planned;
    std::vector<bt::nestedlist::NestedList> rows;
    {
      StageClock::Scope s(&out_->clock, Stage::kDrain);
      bt::exec::Batch batch;
      size_t batch_rows = bt::exec::ClampBatchRows(options_.exec.batch_rows);
      while (plan.trees[0].root->GetNextBatch(&batch, batch_rows) > 0) {
        for (bt::nestedlist::NestedList& nl : batch.rows) {
          rows.push_back(std::move(nl));
        }
      }
    }
    std::vector<bt::xml::NodeId> result;
    {
      StageClock::Scope s(&out_->clock, Stage::kProject);
      bt::pattern::SlotId slot = tree.SlotOfVariable("result");
      for (const bt::nestedlist::NestedList& nl : rows) {
        auto part =
            bt::nestedlist::Project(tree, plan.trees[0].tops, nl, slot);
        result.insert(result.end(), part.begin(), part.end());
      }
      std::sort(result.begin(), result.end());
      result.erase(std::unique(result.begin(), result.end()), result.end());
    }
    CountPlan(plan);
    return result;
  }

  Status EvalFlwor(const bt::flwor::Flwor& flwor, const Env& env,
                   bt::engine::ResultBuilder* builder) {
    std::vector<Env> tuples;
    bool naive = !env.empty();
    if (!naive) {
      Result<std::vector<Env>> r = FlworTuples(flwor);
      if (!r.ok() && r.status().code() == StatusCode::kUnsupported) {
        naive = true;
      } else {
        BT_RETURN_NOT_OK(r.status());
        tuples = r.MoveValue();
      }
    }
    if (naive) {
      StageClock::Scope s(&out_->clock, Stage::kNaive);
      bt::engine::PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(tuples,
                          bt::engine::NaiveFlworTuples(flwor, env, &ev));
    }
    return EmitTuples(flwor, std::move(tuples), builder);
  }

  Result<std::vector<Env>> FlworTuples(const bt::flwor::Flwor& flwor) {
    bt::pattern::Decomposition decomposition;
    std::vector<bt::engine::SlotBinding> bindings;
    Result<bt::pattern::BlossomTree> built = Timed(Stage::kCompile, [&] {
      Result<bt::pattern::BlossomTree> r = bt::pattern::BuildFromFlwor(flwor);
      if (r.ok()) {
        decomposition = bt::pattern::Decompose(*r);
        bindings = bt::engine::ComputeSlotBindings(*r, flwor);
      }
      return r;
    });
    BT_RETURN_NOT_OK(built.status());
    const bt::pattern::BlossomTree& tree = *built;
    Result<bt::opt::QueryPlan> planned = Timed(Stage::kPlan, [&] {
      return bt::opt::PlanQuery(doc_, &tree, options_, &decomposition);
    });
    BT_RETURN_NOT_OK(planned.status());
    bt::opt::QueryPlan& plan = *planned;
    std::vector<std::vector<Env>> per_tree;
    for (bt::opt::PatternTreePlan& tp : plan.trees) {
      std::vector<bt::nestedlist::NestedList> lists;
      {
        StageClock::Scope s(&out_->clock, Stage::kDrain);
        lists = bt::exec::Drain(tp.root.get());
      }
      StageClock::Scope s(&out_->clock, Stage::kBind);
      per_tree.push_back(
          bt::engine::EnumerateBindings(tree, tp.tops, lists, bindings));
    }
    CountPlan(plan);
    std::vector<Env> tuples;
    {
      StageClock::Scope s(&out_->clock, Stage::kCross);
      tuples = bt::engine::CrossEnvs(per_tree);
    }
    out_->counts.tuples_crossed += tuples.size();
    if (flwor.where != nullptr) {
      StageClock::Scope s(&out_->clock, Stage::kWhere);
      bt::engine::PathEvaluator ev(doc_);
      std::vector<Env> kept;
      for (Env& t : tuples) {
        BT_ASSIGN_OR_RETURN(bool ok,
                            bt::engine::EvalWhere(*flwor.where, t, *doc_, &ev));
        if (ok) kept.push_back(std::move(t));
      }
      tuples = std::move(kept);
    }
    out_->counts.tuples_kept += tuples.size();
    return tuples;
  }

  Status EmitTuples(const bt::flwor::Flwor& flwor, std::vector<Env> tuples,
                    bt::engine::ResultBuilder* builder) {
    if (flwor.order_by.has_value()) {
      StageClock::Scope s(&out_->clock, Stage::kConstruct);
      bt::engine::PathEvaluator ev(doc_);
      std::vector<std::pair<std::string, size_t>> keys;
      keys.reserve(tuples.size());
      for (size_t i = 0; i < tuples.size(); ++i) {
        BT_ASSIGN_OR_RETURN(std::vector<bt::xml::NodeId> nodes,
                            ev.EvaluateWith(*flwor.order_by, tuples[i], {}));
        keys.emplace_back(nodes.empty() ? "" : doc_->StringValue(nodes[0]), i);
      }
      std::stable_sort(keys.begin(), keys.end(),
                       [&](const auto& a, const auto& b) {
                         return flwor.order_descending ? a.first > b.first
                                                       : a.first < b.first;
                       });
      std::vector<Env> ordered;
      ordered.reserve(tuples.size());
      for (const auto& [key, idx] : keys) ordered.push_back(tuples[idx]);
      tuples = std::move(ordered);
    }
    StageClock::Scope s(&out_->clock, Stage::kConstruct);
    for (const Env& t : tuples) {
      BT_RETURN_NOT_OK(EvalExpr(*flwor.ret, t, builder));
    }
    return Status::OK();
  }

  /// Folds one executed plan's operator counters and exclusive times.
  void CountPlan(const bt::opt::QueryPlan& plan) {
    WorkCounts& c = out_->counts;
    for (const bt::opt::PatternTreePlan& tp : plan.trees) {
      c.rows_root += tp.root->Stats().matches;
    }
    bt::opt::ForEachOperator(
        plan, [&](const bt::exec::NestedListOperator& op, int) {
          bt::exec::ExecStats s = op.Stats();
          c.nodes_scanned += s.nodes_scanned;
          c.rows_all += s.matches;
          c.nl_cells += s.nl_cells;
          std::string kind = op.Name();
          if (kind == "IndexSeek") c.seek_probes += s.index_entries;
          uint64_t children = 0;
          for (size_t i = 0; i < op.NumChildren(); ++i) {
            children += op.Child(i)->Stats().wall_nanos;
          }
          out_->self_nanos[kind] +=
              s.wall_nanos > children ? s.wall_nanos - children : 0;
        });
  }

  const bt::xml::Document* doc_;
  const bt::opt::PlanOptions& options_;
  ReplayResult* out_;
};

}  // namespace

Result<ReplayResult> StagedReplay(const bt::xml::Document* doc,
                                  std::string_view query,
                                  const bt::opt::PlanOptions& plan_options) {
  ReplayResult out;
  Result<std::unique_ptr<bt::flwor::Expr>> parsed = [&] {
    StageClock::Scope s(&out.clock, Stage::kParse);
    return bt::flwor::ParseQuery(query);
  }();
  BT_RETURN_NOT_OK(parsed.status());
  Replayer replayer(doc, plan_options, &out);
  bt::engine::ResultBuilder builder(doc);
  BT_RETURN_NOT_OK(replayer.EvalExpr(**parsed, Env{}, &builder));
  {
    StageClock::Scope s(&out.clock, Stage::kConstruct);
    BT_ASSIGN_OR_RETURN(out.bytes, builder.ToXml());
  }
  out.clock.Stop();
  return out;
}

}  // namespace blossombench
