#include "service/query_service.h"

#include <utility>
#include <vector>

#include "util/trace.h"

namespace blossomtree {
namespace service {

namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// -- QueryTicket -------------------------------------------------------------

const Result<std::string>& QueryTicket::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return state_ == State::kDone; });
  return result_;  // Immutable once done.
}

QueryTicket::State QueryTicket::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void QueryTicket::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kDone) return;
  cancel_requested_ = true;
  // A queued query is skipped at dispatch; a running one is told through
  // its engine's cooperative token (observed at the next batch boundary).
  if (running_engine_ != nullptr) running_engine_->Cancel();
}

uint64_t QueryTicket::queue_delay_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_delay_ns_;
}

uint64_t QueryTicket::e2e_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return e2e_ns_;
}

void QueryTicket::Complete(Result<std::string> result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kDone) return;  // First completion wins.
  result_ = std::move(result);
  state_ = State::kDone;
  cv_.notify_all();
}

// -- QueryService ------------------------------------------------------------

QueryService::QueryService(Corpus* corpus, ServiceOptions options)
    : corpus_(corpus), options_(options), queue_(options.max_queue) {
  size_t slots = options_.slots == 0 ? util::ThreadPool::DefaultThreads()
                                     : options_.slots;
  if (options_.intra_query_threads > 1) {
    intra_pool_ =
        std::make_unique<util::ThreadPool>(options_.intra_query_threads);
  }
  pool_ = std::make_unique<util::ThreadPool>(slots);
  observer_ = std::make_unique<ServiceObserver>(&metrics_, options_.observer);
  observer_->set_gauge_sampler([this] { return ResourceGauges(); });
}

QueryService::~QueryService() {
  std::vector<std::shared_ptr<QueryTicket>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    drained = queue_.DrainAll();
    in_flight_ -= drained.size();
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  for (const std::shared_ptr<QueryTicket>& t : drained) {
    if (options_.collect_metrics) {
      metrics_.GetCounter("service.cancelled")->Increment();
    }
    // Recorded before Complete(): a ticket observed done always has its
    // summary visible in the flight recorder.
    if (observer_->enabled()) {
      QuerySummary s;
      s.id = observer_->NextId();
      s.tenant = t->tenant_;
      s.document = t->document_;
      s.query = t->query_;
      s.fingerprint = FingerprintQuery(t->query_);
      s.code = StatusCode::kCancelled;
      s.admitted = true;  // Was queued; shutdown cancelled it.
      s.e2e_ns = NanosSince(t->submit_time_);
      observer_->RecordCompletion(std::move(s));
    }
    t->Complete(Status::Cancelled("service: shut down while queued"));
  }
  // Joining the execution pool waits for every running query; the intra-
  // query pool (member order) is destroyed after it, so partitioned scans
  // of in-flight queries always have their workers.
  pool_.reset();
  intra_pool_.reset();
}

void QueryService::DefineTenant(const std::string& name,
                                const util::QueryLimits& limits) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[name] = TenantClass{name, limits};
}

std::shared_ptr<Session> QueryService::CreateSession(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  util::QueryLimits limits;
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) limits = it->second.limits;
  return std::shared_ptr<Session>(
      new Session(next_session_id_++, tenant, limits));
}

std::shared_ptr<QueryTicket> QueryService::Reject(
    std::shared_ptr<QueryTicket> ticket, Status status) {
  if (options_.collect_metrics) {
    metrics_.GetCounter("service.rejected")->Increment();
  }
  // Rejections are terminal outcomes too: they land in the flight recorder
  // and the status-labeled service.queries / service.e2e_ns rollups, so an
  // overloaded tenant is visible in the same surfaces as a healthy one.
  // Recorded before Complete() — once a waiter sees the ticket done, the
  // summary is already queryable.
  if (observer_->enabled()) {
    QuerySummary s;
    s.id = observer_->NextId();
    s.tenant = ticket->tenant_;
    s.document = ticket->document_;
    s.query = ticket->query_;
    s.fingerprint = FingerprintQuery(ticket->query_);
    s.code = status.code();
    s.admitted = false;
    s.e2e_ns = NanosSince(ticket->submit_time_);
    observer_->RecordCompletion(std::move(s));
  }
  ticket->Complete(std::move(status));
  return ticket;
}

std::shared_ptr<QueryTicket> QueryService::Submit(const Session& session,
                                                  const std::string& document,
                                                  std::string query) {
  auto ticket = std::shared_ptr<QueryTicket>(new QueryTicket(
      session.tenant(), document, std::move(query), session.limits()));
  ticket->submit_time_ = std::chrono::steady_clock::now();
  if (options_.collect_metrics) {
    metrics_.GetCounter("service.submitted")->Increment();
  }
  ticket->doc_ = corpus_->Get(document);
  if (ticket->doc_ == nullptr) {
    return Reject(std::move(ticket), Status::NotFound(
                                         "service: unknown corpus document '" +
                                         document + "'"));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Unlock-free path: Reject only touches the ticket and metrics.
    } else if (running_ < pool_->NumThreads()) {
      // A free slot implies an empty wait queue (DispatchLocked drains the
      // queue before any slot frees up), so starting immediately cannot
      // overtake an earlier queued query.
      ++running_;
      ++in_flight_;
      pool_->Submit([this, ticket] { RunQuery(ticket); });
      if (options_.collect_metrics) {
        metrics_.GetCounter("service.admitted")->Increment();
      }
      return ticket;
    } else if (queue_.Push(session.tenant(), ticket)) {
      ++in_flight_;
      if (options_.collect_metrics) {
        metrics_.GetCounter("service.admitted")->Increment();
        metrics_.GetCounter("service.queued")->Increment();
      }
      return ticket;
    } else {
      return Reject(std::move(ticket),
                    Status::ResourceExhausted(
                        "service: admission queue full (" +
                        std::to_string(queue_.max_queued()) + " waiting)"));
    }
  }
  return Reject(std::move(ticket),
                Status::Cancelled("service: shutting down"));
}

Result<std::string> QueryService::Execute(const Session& session,
                                          const std::string& document,
                                          std::string query) {
  return Submit(session, document, std::move(query))->Wait();
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void QueryService::DispatchLocked() {
  if (stopping_) return;
  while (running_ < pool_->NumThreads()) {
    std::shared_ptr<QueryTicket> next = queue_.Pop();
    if (next == nullptr) break;
    ++running_;
    pool_->Submit([this, next] { RunQuery(next); });
  }
}

void QueryService::RunQuery(const std::shared_ptr<QueryTicket>& ticket) {
  util::TraceSpan span("service", "query");
  auto run_start = std::chrono::steady_clock::now();
  uint64_t queue_delay = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          run_start - ticket->submit_time_)
          .count());
  if (options_.collect_metrics) {
    metrics_.GetHistogram("service.queue_delay_ns")->Record(queue_delay);
  }

  // Per-query engine over the shared document, wired to the corpus-wide
  // caches and the session's limits. Construction is cheap — the heavy
  // state (document, caches, pools) is all shared and borrowed.
  engine::EngineOptions eo;
  eo.num_threads =
      options_.intra_query_threads == 0 ? 1 : options_.intra_query_threads;
  eo.plan.pool = intra_pool_.get();
  eo.limits = ticket->limits_;
  eo.collect_profile = options_.collect_profile;
  // The observer reads each query's deterministic work counters and access-
  // path mix from its profile, and the slow log needs the EXPLAIN ANALYZE
  // text and metrics snapshot. Profiling never changes results (run-to-
  // completion normalization changes counters vs a short-circuiting run,
  // but identically at every thread count), so forcing it on preserves the
  // service's determinism contract.
  const bool observe = observer_->enabled();
  if (observe) {
    eo.collect_profile = true;
    eo.collect_metrics = true;
  }
  eo.shared_plan_cache = corpus_->plan_cache();
  eo.plan.result_cache = corpus_->result_cache();
  // Scans of disk-backed documents touch nodes through the DiskStore's
  // block cache so residency stays under its budget; in-RAM documents
  // (disk() == nullptr) keep the plain document scan.
  eo.plan.store = ticket->doc_->disk();
  // The `.btsi` structural index the corpus loaded with the document (if
  // any): plans cost index seeks against scans per NoK and short-circuit
  // provably-empty patterns. Access paths never change results.
  eo.plan.index = ticket->doc_->index();
  engine::BlossomTreeEngine engine(ticket->doc_->doc(), eo);

  // Corpus-cache hit counts sampled around the run, so the summary can
  // carry this query's (approximate under concurrency) hit delta.
  uint64_t plan_hits_before = 0;
  uint64_t result_hits_before = 0;
  if (observe) {
    if (corpus_->plan_cache() != nullptr) {
      plan_hits_before = corpus_->plan_cache()->Stats().hits;
    }
    if (corpus_->result_cache() != nullptr) {
      result_hits_before = corpus_->result_cache()->Stats().hits;
    }
  }

  bool cancelled_while_queued = false;
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    if (ticket->cancel_requested_) {
      cancelled_while_queued = true;
    } else {
      ticket->state_ = QueryTicket::State::kRunning;
      ticket->running_engine_ = &engine;
    }
  }

  Result<std::string> result = std::string{};
  if (cancelled_while_queued) {
    result = Status::Cancelled("service: cancelled before running");
  } else {
    result = engine.EvaluateQuery(ticket->query_);
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->running_engine_ = nullptr;
    if (options_.collect_profile) ticket->profile_ = engine.LastProfile();
  }

  uint64_t run_ns = NanosSince(run_start);
  uint64_t e2e = NanosSince(ticket->submit_time_);
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->queue_delay_ns_ = queue_delay;
    ticket->e2e_ns_ = e2e;
  }
  StatusCode code = result.ok() ? StatusCode::kOk : result.status().code();
  if (options_.collect_metrics) {
    metrics_.GetHistogram("service.run_ns")->Record(run_ns);
    metrics_.GetHistogram("service.e2e_ns")->Record(e2e);
    const char* outcome =
        result.ok() ? "service.completed"
                    : (code == StatusCode::kCancelled ? "service.cancelled"
                                                      : "service.failed");
    metrics_.GetCounter(outcome)->Increment();
  }
  if (code == StatusCode::kResourceExhausted) {
    guard_trips_.fetch_add(1, std::memory_order_relaxed);
  }
  // Observer bookkeeping happens before Complete() wakes the waiter: once
  // Wait() returns, the query's summary (and slow-log entry, if any) is
  // guaranteed to be visible to stats/profile readers.
  if (observe) {
    QuerySummary s;
    s.id = observer_->NextId();
    s.tenant = ticket->tenant_;
    s.document = ticket->document_;
    s.query = ticket->query_;
    s.fingerprint = FingerprintQuery(ticket->query_);
    s.code = code;
    s.admitted = true;
    s.queue_delay_ns = queue_delay;
    s.run_ns = run_ns;
    s.e2e_ns = e2e;
    s.threads = eo.num_threads;
    const engine::QueryProfile& prof = engine.LastProfile();
    s.work = WorkCounters::FromProfile(prof);
    s.paths = AccessPathMix::FromProfile(prof);
    if (corpus_->plan_cache() != nullptr) {
      uint64_t now = corpus_->plan_cache()->Stats().hits;
      s.plan_cache_hits = now > plan_hits_before ? now - plan_hits_before : 0;
    }
    if (corpus_->result_cache() != nullptr) {
      uint64_t now = corpus_->result_cache()->Stats().hits;
      s.result_cache_hits =
          now > result_hits_before ? now - result_hits_before : 0;
    }
    // Over-threshold queries capture full plan detail; the strings are
    // built only on this (already slow) path.
    SlowQueryRecord detail;
    bool slow = observer_->IsSlow(e2e) && !cancelled_while_queued;
    if (slow) {
      detail.explain_analyze = engine.LastExplainAnalyze();
      detail.profile_json = prof.ToJson();
      detail.metrics_json = prof.metrics_json;
    }
    observer_->RecordCompletion(std::move(s), slow ? &detail : nullptr);
  }
  ticket->Complete(std::move(result));

  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  --in_flight_;
  DispatchLocked();
  if (in_flight_ == 0) idle_cv_.notify_all();
}

std::map<std::string, uint64_t> QueryService::ResourceGauges() const {
  std::map<std::string, uint64_t> g;
  {
    std::lock_guard<std::mutex> lock(mu_);
    g["service.queue_depth"] = queue_.size();
    g["service.queue_capacity"] = queue_.max_queued();
    g["service.running"] = running_;
    g["service.in_flight"] = in_flight_;
  }
  g["service.slots"] = pool_->NumThreads();
  g["service.guard_trips"] = guard_trips_.load(std::memory_order_relaxed);
  g["corpus.documents"] = corpus_->size();
  if (corpus_->plan_cache() != nullptr) {
    util::CacheStats s = corpus_->plan_cache()->Stats();
    g["corpus.plan_cache.entries"] = s.entries;
    g["corpus.plan_cache.bytes"] = s.bytes;
  }
  if (corpus_->result_cache() != nullptr) {
    util::CacheStats s = corpus_->result_cache()->Stats();
    g["corpus.result_cache.entries"] = s.entries;
    g["corpus.result_cache.bytes"] = s.bytes;
  }
  // DiskStore block-cache residency across every disk-backed document: the
  // out-of-core working set actually held in RAM vs its configured budget.
  uint64_t resident = 0;
  uint64_t budget = 0;
  for (const std::string& name : corpus_->Names()) {
    std::shared_ptr<const CorpusDocument> doc = corpus_->Get(name);
    if (doc != nullptr && doc->disk() != nullptr) {
      resident += doc->disk()->BlockCacheStats().bytes;
      budget += doc->disk()->budget_bytes();
    }
  }
  g["corpus.disk_resident_bytes"] = resident;
  g["corpus.disk_budget_bytes"] = budget;
  return g;
}

service::ObservabilityReport QueryService::ObservabilityReport() const {
  service::ObservabilityReport report;
  report.prometheus = metrics_.PrometheusText() +
                      util::PrometheusGaugesText(observer_->Gauges());
  report.recent_json =
      observer_->RecentJson(observer_->options().recorder_capacity);
  report.slow_json = observer_->SlowJson();
  report.top_text = observer_->TopText(10);
  report.windows_json = observer_->WindowsJson();
  return report;
}

}  // namespace service
}  // namespace blossomtree
