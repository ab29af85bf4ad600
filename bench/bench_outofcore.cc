// Out-of-core serving benchmark (DESIGN.md §13): ingests a generated d5
// corpus into a BTSX v2 file, reopens it through a DiskStore whose block
// cache budget is deliberately a quarter of the record section — so the
// corpus cannot be fully resident — and enforces three invariants before
// the counter diff in CI:
//
//   1. Byte-identity: every query answered from disk at 1/2/4 threads is
//      byte-identical to the in-RAM engine on the original document.
//   2. Budget: resident block-cache bytes never exceed the configured
//      budget (checked after every query), and the constrained run
//      actually evicts — proving the corpus was served out of core, not
//      silently cached whole.
//   3. Store parity: a sequential scan through the DiskStore returns the
//      source document's tag, subtree extent, level and text numbering at
//      every node, reading each block exactly once (NumPages), and its
//      partition decisions equal PartitionSubtrees on the document; the
//      pread fallback mode (no mapping, explicit block I/O) agrees
//      record-for-record too.
//
// Exit status is non-zero on any violation. The BENCH_outofcore.json
// artifact pins the per-operator work counters of the disk-served plans:
// with a fixed seed and scale they are pure functions of the plan, so the
// perf gate catches a change that makes out-of-core plans scan more.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "storage/node_store.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

struct QueryCase {
  const char* id;
  const char* text;
};

// The same shapes the service and cache gates exercise: a low-selectivity
// path (o1, every block of the record section is touched), a selective
// predicate path (o2), and a FLWOR pipeline (o3) whose binding scan goes
// through the store.
constexpr QueryCase kQueries[] = {
    {"o1", "//article/author"},
    {"o2", "//phdthesis[year]/title"},
    {"o3", "for $a in //article where exists($a/year) return "
           "<hit>{$a/title}</hit>"},
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  std::vector<unsigned> threads = flags.threads;
  if (threads.empty()) threads = {1, 2, 4};

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;
  auto doc = GenerateDataset(Dataset::kD5Dblp, o);

  const std::string path = "bench_outofcore_tmp.btsx2";
  if (auto s = blossomtree::storage::WriteBtsx2(*doc, path); !s.ok()) {
    std::printf("ingest failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Budget: a quarter of the record section, so a full-document scan must
  // evict. Small blocks keep the block count meaningful at bench scale.
  blossomtree::storage::DiskStoreOptions opts;
  opts.block_bytes = 4096;
  auto probe = blossomtree::storage::DiskStore::Open(path, opts);
  if (!probe.ok()) {
    std::printf("open failed: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  opts.cache_budget_bytes = (*probe)->RecordBytes() / 4;
  probe->reset();
  auto store = blossomtree::storage::DiskStore::Open(path, opts);
  if (!store.ok()) {
    std::printf("open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Out-of-core corpus: %s, %zu nodes, file %.1f KiB, records %.1f KiB, "
      "cache budget %.1f KiB (%zu blocks of %zu B)\n\n",
      DatasetName(Dataset::kD5Dblp), (*store)->NumNodes(),
      (*store)->FileBytes() / 1024.0, (*store)->RecordBytes() / 1024.0,
      (*store)->budget_bytes() / 1024.0, (*store)->NumPages(),
      (size_t)4096);

  bool ok = true;
  if ((*store)->budget_bytes() >= (*store)->RecordBytes()) {
    std::printf("FAIL: budget does not constrain the record section\n");
    ok = false;
  }

  ProfileSink sink("outofcore");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  std::printf("  %-3s %7s %11s %11s %9s %s\n", "id", "threads", "ram_ms",
              "disk_ms", "blk_reads", "identical");

  for (const QueryCase& q : kQueries) {
    // In-RAM reference on the original (built, non-adopted) document.
    blossomtree::engine::EngineOptions plain;
    plain.num_threads = 1;
    blossomtree::engine::BlossomTreeEngine ref(doc.get(), plain);
    auto ref_r = ref.EvaluateQuery(q.text);
    if (!ref_r.ok()) {
      std::printf("  %-3s reference error: %s\n", q.id,
                  ref_r.status().ToString().c_str());
      return 1;
    }

    // Serial disk-served profile for the artifact, outside the timed runs.
    {
      blossomtree::engine::EngineOptions po;
      po.num_threads = 1;
      po.collect_profile = true;
      po.plan.store = store->get();
      blossomtree::engine::BlossomTreeEngine prof((*store)->document(), po);
      if (prof.EvaluateQuery(q.text).ok()) {
        std::string context = "\"dataset\": \"" +
                              std::string(DatasetName(Dataset::kD5Dblp)) +
                              "\", \"id\": \"" + q.id +
                              "\", \"variant\": \"disk\"";
        sink.Add(WithContext(context, prof.LastProfile().ToJson()));
      }
    }

    for (unsigned t : threads) {
      blossomtree::engine::EngineOptions ro;
      ro.num_threads = t;
      blossomtree::engine::BlossomTreeEngine ram(doc.get(), ro);
      blossomtree::engine::EngineOptions dopt;
      dopt.num_threads = t;
      dopt.plan.store = store->get();
      blossomtree::engine::BlossomTreeEngine disk((*store)->document(), dopt);

      bool identical = true;
      uint64_t block_reads = 0;
      std::vector<double> ram_samples;
      std::vector<double> disk_samples;
      for (int run = 0; run < flags.runs; ++run) {
        blossomtree::Result<std::string> rr = std::string{};
        ram_samples.push_back(
            TimeSeconds([&] { rr = ram.EvaluateQuery(q.text); }));
        if (!rr.ok() || *rr != *ref_r) identical = false;

        (*store)->ResetCounters();
        blossomtree::Result<std::string> dr = std::string{};
        disk_samples.push_back(
            TimeSeconds([&] { dr = disk.EvaluateQuery(q.text); }));
        if (!dr.ok() || *dr != *ref_r) identical = false;
        block_reads = (*store)->PageReads();

        auto stats = (*store)->BlockCacheStats();
        if (stats.bytes > (*store)->budget_bytes()) {
          std::printf("FAIL: cache %llu bytes over budget %llu\n",
                      (unsigned long long)stats.bytes,
                      (unsigned long long)(*store)->budget_bytes());
          ok = false;
        }
      }
      ok = ok && identical;
      std::printf("  %-3s %7u %11.3f %11.3f %9llu %s\n", q.id, t,
                  Median(ram_samples) * 1e3, Median(disk_samples) * 1e3,
                  (unsigned long long)block_reads,
                  identical ? "yes" : "NO");
    }
  }

  // The constrained cache must actually have evicted: proof the corpus was
  // served out of core rather than resident end to end.
  auto stats = (*store)->BlockCacheStats();
  std::printf("\nBlock cache: %llu hits, %llu misses, %llu evictions, "
              "%llu bytes resident\n",
              (unsigned long long)stats.hits,
              (unsigned long long)stats.misses,
              (unsigned long long)stats.evictions,
              (unsigned long long)stats.bytes);
  if (stats.evictions == 0) {
    std::printf("FAIL: no evictions — the corpus fit in the budget\n");
    ok = false;
  }

  // Store parity: DiskStore records and partitions vs the source document.
  {
    namespace xml = blossomtree::xml;
    const size_t total = (*store)->NumNodes();
    if (total != doc->NumNodes()) {
      std::printf("FAIL: store holds %zu nodes, document %zu\n", total,
                  doc->NumNodes());
      ok = false;
    }
    blossomtree::storage::ScanCursor dc;
    uint32_t text_ref = 0;
    xml::NodeId n = 0;
    for (; n < std::min(total, doc->NumNodes()); ++n) {
      blossomtree::storage::NodeRecord r = (*store)->Get(n, &dc);
      bool elem = doc->IsElement(n);
      if (r.tag != (elem ? doc->Tag(n) : xml::kNullTag) ||
          r.subtree_end != doc->SubtreeEnd(n) || r.level != doc->Level(n) ||
          r.text_ref != (elem ? static_cast<uint32_t>(-1) : text_ref++)) {
        std::printf("FAIL: record mismatch vs document at node %u\n", n);
        ok = false;
        break;
      }
    }
    if (n == total && dc.reads != (*store)->NumPages()) {
      std::printf("FAIL: sequential scan read %llu blocks, expected %zu\n",
                  (unsigned long long)dc.reads, (*store)->NumPages());
      ok = false;
    }
    for (size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
      if ((*store)->Partition(k) !=
          blossomtree::storage::PartitionSubtrees(*doc, k)) {
        std::printf("FAIL: partition mismatch vs document at k=%zu\n", k);
        ok = false;
      }
    }
  }

  // Pread fallback: explicit block I/O, no mapping, scan API only.
  {
    blossomtree::storage::DiskStoreOptions po = opts;
    po.use_mmap = false;
    auto pread = blossomtree::storage::DiskStore::Open(path, po);
    if (!pread.ok()) {
      std::printf("FAIL: pread open: %s\n",
                  pread.status().ToString().c_str());
      ok = false;
    } else {
      blossomtree::storage::ScanCursor mc;
      blossomtree::storage::ScanCursor rc;
      for (blossomtree::xml::NodeId n = 0; n < (*pread)->NumNodes(); ++n) {
        blossomtree::storage::NodeRecord a = (*store)->Get(n, &mc);
        blossomtree::storage::NodeRecord b = (*pread)->Get(n, &rc);
        if (std::memcmp(&a, &b, sizeof a) != 0) {
          std::printf("FAIL: pread record mismatch at node %u\n", n);
          ok = false;
          break;
        }
      }
      auto ps = (*pread)->BlockCacheStats();
      if (ps.bytes > (*pread)->budget_bytes()) {
        std::printf("FAIL: pread cache over budget\n");
        ok = false;
      }
    }
  }

  sink.WriteAndReport();
  std::remove(path.c_str());

  if (!ok) {
    std::printf("FAIL: out-of-core invariants violated\n");
    return 1;
  }
  std::printf("OK: disk-served results byte-identical at every thread "
              "count, cache stayed under budget\n");
  return 0;
}
