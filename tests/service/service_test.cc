// Unit and concurrency tests for the src/service/ layer: Corpus registry
// semantics, QueryService execution / admission / cancellation / shutdown,
// and service.* metrics. Suite names stay under the Service* / Admission*
// prefixes so CI's TSan stress step picks them up via --gtest_filter.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "service/corpus.h"
#include "storage/btsx2.h"
#include "service/query_service.h"
#include "util/status.h"

namespace blossomtree {
namespace service {
namespace {

/// A small three-book library, built fresh (documents are non-movable).
std::unique_ptr<xml::Document> LibraryDoc() {
  auto d = std::make_unique<xml::Document>();
  d->BeginElement("lib");
  for (int i = 0; i < 3; ++i) {
    d->BeginElement("book");
    d->BeginElement("title");
    d->AddText("t" + std::to_string(i));
    d->EndElement();
    d->EndElement();
  }
  d->EndElement();
  EXPECT_TRUE(d->Finish().ok());
  return d;
}

constexpr char kTitles[] = "for $b in //book return $b/title";

// -- Corpus -------------------------------------------------------------------

TEST(ServiceCorpusTest, AddGetEvictNames) {
  Corpus corpus;
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(corpus.Get("lib"), nullptr);

  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  ASSERT_TRUE(corpus.Add("other", LibraryDoc()).ok());
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.Names(), (std::vector<std::string>{"lib", "other"}));

  auto doc = corpus.Get("lib");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->name(), "lib");
  EXPECT_NE(doc->generation(), 0u);

  EXPECT_TRUE(corpus.Evict("lib"));
  EXPECT_FALSE(corpus.Evict("lib"));
  EXPECT_EQ(corpus.Get("lib"), nullptr);
  EXPECT_EQ(corpus.size(), 1u);
}

TEST(ServiceCorpusTest, RejectsEmptyNameAndUnfinishedDocument) {
  Corpus corpus;
  EXPECT_FALSE(corpus.Add("", LibraryDoc()).ok());
  auto unfinished = std::make_unique<xml::Document>();
  unfinished->BeginElement("root");
  unfinished->EndElement();  // Never Finish()ed: generation stays 0.
  EXPECT_FALSE(corpus.Add("u", std::move(unfinished)).ok());
  EXPECT_EQ(corpus.size(), 0u);
}

TEST(ServiceCorpusTest, ReplaceBumpsGenerationAndKeepsOldHandleAlive) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  auto old_handle = corpus.Get("lib");
  uint64_t old_gen = old_handle->generation();

  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  auto new_handle = corpus.Get("lib");
  EXPECT_NE(new_handle->generation(), old_gen);
  EXPECT_EQ(corpus.size(), 1u);
  // The displaced document stays usable through the old shared handle —
  // the replacement-mid-traffic contract.
  EXPECT_EQ(old_handle->generation(), old_gen);
  EXPECT_EQ(old_handle->doc()->NumElements(), 7u);
}

TEST(ServiceCorpusTest, CachesAreOffByDefaultAndOnWhenConfigured) {
  Corpus plain;
  EXPECT_EQ(plain.plan_cache(), nullptr);
  EXPECT_EQ(plain.result_cache(), nullptr);

  CorpusOptions opts;
  opts.plan_cache.enabled = true;
  opts.result_cache.enabled = true;
  Corpus cached(opts);
  EXPECT_NE(cached.plan_cache(), nullptr);
  EXPECT_NE(cached.result_cache(), nullptr);
}

TEST(ServiceCorpusTest, AddDiskServesBtsx2WithoutParsing) {
  // Ingest once, register the file, and the disk-backed document answers
  // queries byte-identically to the in-RAM build it came from.
  auto ram = LibraryDoc();
  std::string path = ::testing::TempDir() + "/bt_service_disk.btsx2";
  ASSERT_TRUE(storage::WriteBtsx2(*ram, path).ok());

  Corpus corpus;
  ASSERT_TRUE(corpus.AddDisk("lib", path).ok());
  auto doc = corpus.Get("lib");
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->disk_backed());
  EXPECT_EQ(doc->doc()->NumNodes(), ram->NumNodes());
  EXPECT_EQ(doc->generation(), doc->doc()->generation());
  EXPECT_NE(doc->generation(), 0u);
  // Its scans go through the DiskStore itself.
  ASSERT_NE(doc->disk(), nullptr);
  EXPECT_EQ(doc->disk()->NumNodes(), ram->NumNodes());

  QueryService svc(&corpus, {});
  auto session = svc.CreateSession("tenant-a");
  auto got = svc.Execute(*session, "lib", kTitles);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  engine::BlossomTreeEngine ref(ram.get());
  auto expected = ref.EvaluateQuery(kTitles);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*got, *expected);
  std::remove(path.c_str());
}

TEST(ServiceCorpusTest, AddDiskRejectsMissingFileAndPreadMode) {
  Corpus corpus;
  EXPECT_FALSE(corpus.AddDisk("x", "/nonexistent/f.btsx2").ok());
  auto ram = LibraryDoc();
  std::string path = ::testing::TempDir() + "/bt_service_pread.btsx2";
  ASSERT_TRUE(storage::WriteBtsx2(*ram, path).ok());
  storage::DiskStoreOptions opts;
  opts.use_mmap = false;  // No document facade: nothing to query.
  EXPECT_FALSE(corpus.AddDisk("x", path, opts).ok());
  std::remove(path.c_str());
}

// -- QueryService: execution --------------------------------------------------

TEST(ServiceQueryTest, ExecuteMatchesStandaloneSerialEngine) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());

  auto reference_doc = LibraryDoc();
  engine::EngineOptions serial;
  serial.num_threads = 1;
  engine::BlossomTreeEngine ref(reference_doc.get(), serial);
  auto expected = ref.EvaluateQuery(kTitles);
  ASSERT_TRUE(expected.ok());

  ServiceOptions opts;
  opts.slots = 2;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("tenant-a");
  auto got = svc.Execute(*session, "lib", kTitles);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
}

TEST(ServiceQueryTest, UnknownDocumentRejectsWithNotFound) {
  Corpus corpus;
  QueryService svc(&corpus);
  auto session = svc.CreateSession("t");
  auto ticket = svc.Submit(*session, "nope", kTitles);
  ASSERT_NE(ticket, nullptr);
  const auto& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(ticket->done());
}

TEST(ServiceQueryTest, MalformedQuerySurfacesParseErrorOnTicket) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  QueryService svc(&corpus);
  auto session = svc.CreateSession("t");
  auto r = svc.Execute(*session, "lib", "for $b in ((( oops");
  ASSERT_FALSE(r.ok());
}

TEST(ServiceQueryTest, TicketCarriesSubmitMetadataAndTimings) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  QueryService svc(&corpus);
  auto session = svc.CreateSession("tenant-a");
  auto ticket = svc.Submit(*session, "lib", kTitles);
  ticket->Wait();
  EXPECT_EQ(ticket->tenant(), "tenant-a");
  EXPECT_EQ(ticket->document(), "lib");
  EXPECT_EQ(ticket->query(), kTitles);
  EXPECT_GT(ticket->e2e_ns(), 0u);
  EXPECT_LE(ticket->queue_delay_ns(), ticket->e2e_ns());
}

TEST(ServiceQueryTest, ProfileIsAttachedWhenRequested) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  ServiceOptions opts;
  opts.collect_profile = true;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");
  auto ticket = svc.Submit(*session, "lib", kTitles);
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_FALSE(ticket->profile().operators.empty());
}

TEST(ServiceQueryTest, SessionLimitsGovernSubmittedQueries) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  QueryService svc(&corpus);

  util::QueryLimits tight;
  tight.max_result_rows = 1;  // The library has three matching titles.
  svc.DefineTenant("tight", tight);
  auto session = svc.CreateSession("tight");
  EXPECT_EQ(session->limits().max_result_rows, 1u);

  auto r = svc.Execute(*session, "lib", kTitles);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // A per-session override lifts the inherited cap.
  session->set_limits(util::QueryLimits{});
  EXPECT_TRUE(svc.Execute(*session, "lib", kTitles).ok());
}

TEST(ServiceQueryTest, SessionsGetDistinctIdsAndKeepTenantName) {
  Corpus corpus;
  QueryService svc(&corpus);
  auto s1 = svc.CreateSession("a");
  auto s2 = svc.CreateSession("a");
  EXPECT_NE(s1->id(), s2->id());
  EXPECT_EQ(s1->tenant(), "a");
}

// -- QueryService: concurrency, admission, cancellation -----------------------

TEST(ServiceConcurrencyTest, ManyConcurrentQueriesAllSucceedIdentically) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 7;
  Corpus corpus;
  ASSERT_TRUE(
      corpus.Add("dblp", datagen::GenerateDataset(datagen::Dataset::kD5Dblp,
                                                  gen))
          .ok());

  auto handle = corpus.Get("dblp");
  engine::EngineOptions serial;
  serial.num_threads = 1;
  engine::BlossomTreeEngine ref(handle->doc(), serial);
  const char* q = "for $a in //article return $a/title";
  auto expected = ref.EvaluateQuery(q);
  ASSERT_TRUE(expected.ok());

  ServiceOptions opts;
  opts.slots = 4;
  opts.max_queue = 256;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(svc.Submit(*session, "dblp", q));
  }
  for (auto& t : tickets) {
    const auto& r = t->Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, *expected);
  }
  EXPECT_EQ(svc.metrics().GetCounter("service.admitted")->value(), 32u);
  EXPECT_EQ(svc.metrics().GetCounter("service.completed")->value(), 32u);
  EXPECT_EQ(svc.metrics().GetCounter("service.rejected")->value(), 0u);
}

TEST(ServiceConcurrencyTest, SharedCachesPreserveResultsUnderConcurrency) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 7;
  CorpusOptions copts;
  copts.plan_cache.enabled = true;
  copts.result_cache.enabled = true;
  Corpus corpus(copts);
  ASSERT_TRUE(
      corpus.Add("dblp", datagen::GenerateDataset(datagen::Dataset::kD5Dblp,
                                                  gen))
          .ok());

  auto handle = corpus.Get("dblp");
  engine::EngineOptions serial;
  serial.num_threads = 1;
  engine::BlossomTreeEngine ref(handle->doc(), serial);
  const char* queries[] = {
      "for $a in //article return $a/title",
      "for $a in //article where exists($a/year) return <hit>{$a/title}</hit>",
  };

  ServiceOptions opts;
  opts.slots = 4;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");
  for (const char* q : queries) {
    auto expected = ref.EvaluateQuery(q);
    ASSERT_TRUE(expected.ok());
    std::vector<std::shared_ptr<QueryTicket>> tickets;
    for (int i = 0; i < 16; ++i) {
      tickets.push_back(svc.Submit(*session, "dblp", q));
    }
    for (auto& t : tickets) {
      const auto& r = t->Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, *expected);
    }
  }
  // Sixteen identical queries through one shared plan cache: the plan is
  // compiled far fewer times than it is used.
  ASSERT_NE(corpus.plan_cache(), nullptr);
}

TEST(AdmissionControlTest, OverloadRejectsWithResourceExhausted) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 7;
  Corpus corpus;
  ASSERT_TRUE(
      corpus.Add("dblp", datagen::GenerateDataset(datagen::Dataset::kD5Dblp,
                                                  gen))
          .ok());

  ServiceOptions opts;
  opts.slots = 1;
  opts.max_queue = 2;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");

  // One slot + two waiters against a fast submit loop: the 64-query burst
  // must overflow the bound. Every outcome is still accounted for exactly.
  constexpr int kBurst = 64;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < kBurst; ++i) {
    tickets.push_back(
        svc.Submit(*session, "dblp", "for $a in //article return $a/title"));
  }
  int rejected = 0;
  for (auto& t : tickets) {
    const auto& r = t->Wait();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(svc.metrics().GetCounter("service.rejected")->value(),
            static_cast<uint64_t>(rejected));
  EXPECT_EQ(svc.metrics().GetCounter("service.admitted")->value(),
            static_cast<uint64_t>(kBurst - rejected));
}

TEST(AdmissionControlTest, ZeroQueueEitherRunsImmediatelyOrRejects) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  ServiceOptions opts;
  opts.slots = 1;
  opts.max_queue = 0;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(svc.Submit(*session, "lib", kTitles));
  }
  for (auto& t : tickets) {
    const auto& r = t->Wait();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(t->queue_delay_ns(), 0u);
    }
  }
}

TEST(ServiceCancelTest, QueuedQueriesCancelWithoutRunning) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 7;
  Corpus corpus;
  ASSERT_TRUE(
      corpus.Add("dblp", datagen::GenerateDataset(datagen::Dataset::kD5Dblp,
                                                  gen))
          .ok());
  ServiceOptions opts;
  opts.slots = 1;
  opts.max_queue = 64;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(
        svc.Submit(*session, "dblp", "for $a in //article return $a/title"));
  }
  for (auto& t : tickets) t->Cancel();
  svc.Drain();
  int cancelled = 0;
  for (auto& t : tickets) {
    ASSERT_TRUE(t->done());
    const auto& r = t->Wait();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  // The burst outruns the single slot, so cancellation must catch at least
  // the tail of the queue; completed-before-cancel is also legal.
  EXPECT_GT(cancelled, 0);
  EXPECT_EQ(svc.metrics().GetCounter("service.cancelled")->value(),
            static_cast<uint64_t>(cancelled));
}

TEST(ServiceCancelTest, CancelAfterCompletionIsANoOp) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  QueryService svc(&corpus);
  auto session = svc.CreateSession("t");
  auto ticket = svc.Submit(*session, "lib", kTitles);
  ASSERT_TRUE(ticket->Wait().ok());
  ticket->Cancel();
  EXPECT_TRUE(ticket->Wait().ok());
}

TEST(ServiceShutdownTest, DestructorCancelsQueuedAndCompletesEveryTicket) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 7;
  Corpus corpus;
  ASSERT_TRUE(
      corpus.Add("dblp", datagen::GenerateDataset(datagen::Dataset::kD5Dblp,
                                                  gen))
          .ok());
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  {
    ServiceOptions opts;
    opts.slots = 1;
    opts.max_queue = 64;
    QueryService svc(&corpus, opts);
    auto session = svc.CreateSession("t");
    for (int i = 0; i < 16; ++i) {
      tickets.push_back(
          svc.Submit(*session, "dblp", "for $a in //article return $a/title"));
    }
    // Destroyed with most of the burst still queued.
  }
  for (auto& t : tickets) {
    ASSERT_TRUE(t->done());
    const auto& r = t->Wait();
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kCancelled)
        << r.status().ToString();
  }
}

TEST(ServiceMetricsTest, LatencyHistogramsCountCompletedQueries) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  QueryService svc(&corpus);
  auto session = svc.CreateSession("t");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(svc.Execute(*session, "lib", kTitles).ok());
  }
  EXPECT_EQ(svc.metrics().GetHistogram("service.e2e_ns")->Snapshot().count,
            8u);
  EXPECT_EQ(svc.metrics().GetHistogram("service.run_ns")->Snapshot().count,
            8u);
  EXPECT_EQ(svc.metrics().GetCounter("service.completed")->value(), 8u);
}

TEST(ServiceMetricsTest, MetricsCanBeDisabled) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", LibraryDoc()).ok());
  ServiceOptions opts;
  opts.collect_metrics = false;
  QueryService svc(&corpus, opts);
  auto session = svc.CreateSession("t");
  ASSERT_TRUE(svc.Execute(*session, "lib", kTitles).ok());
  EXPECT_EQ(svc.metrics().GetCounter("service.admitted")->value(), 0u);
}

}  // namespace
}  // namespace service
}  // namespace blossomtree
