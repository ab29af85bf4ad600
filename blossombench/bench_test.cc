// Tests of the benchmark's own logic: tail-percentile selection, failure
// accounting, and staged replay reproducing the engine's bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "probe.h"
#include "replay.h"
#include "stats.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "workload/queries.h"
#include "workloads.h"

namespace blossombench {
namespace {

namespace bt = blossomtree;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PickTailTest, LeavesExactlyTenSamplesBeyond) {
  TailPick t = PickTail(OneTo(100));
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 90);
  EXPECT_DOUBLE_EQ(t.percentile, 90);
  EXPECT_EQ(DescribeTail(t), "p90.00 (n=100, 10 beyond)");
}

TEST(PickTailTest, PercentileRisesWithSampleCount) {
  TailPick t = PickTail(OneTo(500));
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 490);
  EXPECT_NEAR(t.percentile, 98, 1e-9);
  EXPECT_EQ(DescribeTail(t), "p98.00 (n=500, 10 beyond)");
}

TEST(PickTailTest, StopsAtP99) {
  // 1000 samples: p99 leaves exactly 10 beyond, the two rules meet.
  TailPick meet = PickTail(OneTo(1000));
  EXPECT_DOUBLE_EQ(meet.value, 990);
  EXPECT_EQ(meet.beyond, 10u);
  // Past that the tail stays at p99 and the samples beyond it grow.
  TailPick t = PickTail(OneTo(2500));
  EXPECT_DOUBLE_EQ(t.value, 2475);
  EXPECT_EQ(t.beyond, 25u);
  EXPECT_EQ(DescribeTail(t), "p99.00 (n=2500, 25 beyond)");
  // ceil: 1234 samples put p99 at the 1222nd (rank 1221).
  TailPick odd = PickTail(OneTo(1234));
  EXPECT_DOUBLE_EQ(odd.value, 1222);
  EXPECT_EQ(odd.beyond, 12u);
}

TEST(PickTailTest, SmallSamplesReportTheMaximum) {
  TailPick t = PickTail(OneTo(7));
  EXPECT_EQ(t.samples, 7u);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(t.value, 7);
  EXPECT_DOUBLE_EQ(t.percentile, 100);
  TailPick eleven = PickTail(OneTo(11));
  EXPECT_EQ(eleven.beyond, 10u);
  EXPECT_DOUBLE_EQ(eleven.value, 1);
  EXPECT_EQ(PickTail({}).samples, 0u);
}

TEST(PickTailTest, IgnoresInputOrder) {
  std::vector<double> v = {5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12};
  TailPick t = PickTail(v, 3);
  EXPECT_DOUBLE_EQ(t.value, 9);
  EXPECT_EQ(t.beyond, 3u);
}

TEST(StatsTest, MedianAndGeoMean) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
  EXPECT_NEAR(GeoMean({1, 4, 16}), 4, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0);
}

TEST(SpeedProbeTest, ScaleIsReferenceOverMedianSlice) {
  SpeedProbe probe;
  EXPECT_DOUBLE_EQ(probe.TimeScale(), 1.0);
  EXPECT_DOUBLE_EQ(probe.MedianMs(), 0.0);
  for (int i = 0; i < 3; ++i) probe.Slice();
  EXPECT_EQ(probe.slices(), 3u);
  ASSERT_GT(probe.MedianMs(), 0.0);
  EXPECT_DOUBLE_EQ(probe.TimeScale(),
                   SpeedProbe::kReferenceSliceMs / probe.MedianMs());
  EXPECT_GE(probe.TotalSeconds() * 1e3, probe.MedianMs());
}

TEST(TallyTest, CountsErrorsWrongBytesAndRejections) {
  Tally t;
  for (int i = 0; i < 7; ++i) t.Record(Outcome::kCorrect);
  t.Record(Outcome::kWrong);
  t.Record(Outcome::kError);
  t.Record(Outcome::kRejected);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.3);
  Tally u;
  u.Record(Outcome::kRejected);
  t.MergeFrom(u);
  EXPECT_EQ(t.rejected, 2u);
  EXPECT_EQ(t.attempted(), 11u);
  EXPECT_DOUBLE_EQ(Tally{}.failed_frac(), 0);
}

TEST(StageClockTest, StagesSumToTheWallTime) {
  StageClock clock;
  {
    StageClock::Scope a(&clock, Stage::kPlan);
    StageClock::Scope b(&clock, Stage::kDrain);
  }
  clock.Stop();
  uint64_t sum = 0;
  for (size_t s = 0; s < kNumStages; ++s) sum += clock.nanos(Stage(s));
  EXPECT_EQ(sum, clock.total());
}

/// Replays `query` and checks bytes against EvaluateQuery and counters
/// against a second replay.
void ExpectReplayMatchesEngine(const bt::xml::Document* doc,
                               const std::string& query,
                               const bt::engine::EngineOptions& options) {
  bt::engine::BlossomTreeEngine engine(doc, options);
  auto direct = engine.EvaluateQuery(query);
  ASSERT_TRUE(direct.ok()) << query << ": " << direct.status().ToString();
  auto first = StagedReplay(doc, query, options.plan);
  ASSERT_TRUE(first.ok()) << query << ": " << first.status().ToString();
  EXPECT_EQ(first->bytes, *direct) << query;
  auto second = StagedReplay(doc, query, options.plan);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->counts, second->counts) << query;
  EXPECT_GE(first->clock.total(), first->clock.nanos(Stage::kDrain));
}

bt::engine::EngineOptions Serial() {
  bt::engine::EngineOptions o;
  o.num_threads = 1;
  return o;
}

TEST(StagedReplayTest, AppendixAQueriesOnEveryDataset) {
  for (bt::datagen::Dataset d : bt::datagen::AllDatasets()) {
    bt::datagen::GenOptions g;
    g.scale = 0.01;
    g.seed = 7;
    auto doc = bt::datagen::GenerateDataset(d, g);
    for (const auto& q : bt::workload::QueriesFor(d)) {
      ExpectReplayMatchesEngine(doc.get(), q.xpath, Serial());
    }
  }
}

TEST(StagedReplayTest, FlworMixOnD5) {
  bt::datagen::GenOptions g;
  g.scale = 0.02;
  g.seed = 3;
  auto doc = bt::datagen::GenerateDataset(bt::datagen::Dataset::kD5Dblp, g);
  for (const auto& [label, query] : FlworMix()) {
    SCOPED_TRACE(label);
    ExpectReplayMatchesEngine(doc.get(), query, Serial());
  }
  auto join = StagedReplay(doc.get(), FlworMix()[2].second, Serial().plan);
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join->counts.tuples_crossed, join->counts.tuples_kept);
  auto nested = StagedReplay(doc.get(), FlworMix()[5].second, Serial().plan);
  ASSERT_TRUE(nested.ok());
  EXPECT_GT(nested->clock.nanos(Stage::kNaive), 0u);
}

TEST(StagedReplayTest, DiskStoreWithIndex) {
  bt::datagen::GenOptions g;
  g.scale = 0.02;
  g.seed = 5;
  const std::string path = "blossombench_test_d5.btsx2";
  auto doc = bt::datagen::GenerateDataset(bt::datagen::Dataset::kD5Dblp, g);
  ASSERT_TRUE(bt::storage::WriteBtsx2(*doc, path).ok());
  auto idx = bt::index::StructuralIndex::Build(*doc);
  ASSERT_TRUE(
      bt::index::WriteBtsi(*idx, bt::index::BtsiSidecarPath(path)).ok());
  {
    auto store = bt::storage::DiskStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_NE((*store)->index(), nullptr);
    bt::engine::EngineOptions o = Serial();
    o.plan.store = store->get();
    o.plan.index = (*store)->index();
    uint64_t probes = 0;
    for (const auto& q :
         bt::workload::QueriesFor(bt::datagen::Dataset::kD5Dblp)) {
      ExpectReplayMatchesEngine((*store)->document(), q.xpath, o);
      auto r = StagedReplay((*store)->document(), q.xpath, o.plan);
      ASSERT_TRUE(r.ok());
      probes += r->counts.seek_probes;
    }
    EXPECT_GT(probes, 0u);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(bt::index::BtsiSidecarPath(path));
}

TEST(MetricTablesTest, NamesAreUniqueAndWellFormed) {
  for (const auto* names : {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
    for (size_t i = 0; i < names->size(); ++i) {
      const std::string& n = (*names)[i];
      EXPECT_LE(n.size(), 64u);
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(n[0]))) << n;
      for (size_t j = i + 1; j < names->size(); ++j) EXPECT_NE(n, (*names)[j]);
    }
  }
}

}  // namespace
}  // namespace blossombench
