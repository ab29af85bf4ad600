#include "exec/nok_scan.h"

#include <algorithm>
#include <memory>
#include <span>

#include "exec/kernels.h"
#include "exec/value_ops.h"
#include "nestedlist/ops.h"
#include "pattern/fingerprint.h"

namespace blossomtree {
namespace exec {

using nestedlist::Entry;
using nestedlist::Group;
using pattern::EdgeMode;
using pattern::SlotId;
using pattern::VertexId;

NokMatcher::NokMatcher(const xml::Document* doc,
                       const pattern::BlossomTree* tree,
                       const pattern::NokTree* nok)
    : doc_(doc), tree_(tree), nok_(nok) {
  // Build the local vertex table in the NoK's DFS vertex order; the root is
  // locals_[0].
  std::vector<uint32_t> local_of(tree->NumVertices(),
                                 static_cast<uint32_t>(-1));
  locals_.reserve(nok->vertices.size());
  for (VertexId v : nok->vertices) {
    local_of[v] = static_cast<uint32_t>(locals_.size());
    LocalVertex lv;
    lv.vertex = v;
    locals_.push_back(std::move(lv));
  }
  for (LocalVertex& lv : locals_) {
    for (VertexId c : tree->vertex(lv.vertex).children) {
      if (xpath::IsLocalAxis(tree->vertex(c).axis) &&
          local_of[c] != static_cast<uint32_t>(-1)) {
        lv.local_children.push_back(local_of[c]);
      }
    }
  }
  // next_slots: bottom-up over the NoK (children have larger local index
  // only if DFS order guarantees it — Algorithm 1 pushes children after
  // parents, so iterate in reverse).
  for (size_t i = locals_.size(); i-- > 0;) {
    LocalVertex& lv = locals_[i];
    const pattern::Vertex& vx = tree->vertex(lv.vertex);
    if (vx.returning) {
      lv.next_slots.push_back(tree->SlotOfVertex(lv.vertex));
    } else {
      for (uint32_t c : lv.local_children) {
        lv.next_slots.insert(lv.next_slots.end(),
                             locals_[c].next_slots.begin(),
                             locals_[c].next_slots.end());
      }
    }
    if (vx.returning) {
      // Map each child-contributed slot to its index in the global child
      // layout of this vertex's slot.
      SlotId my_slot = tree->SlotOfVertex(lv.vertex);
      for (uint32_t c : lv.local_children) {
        for (SlotId s : locals_[c].next_slots) {
          lv.child_slot_index.push_back(
              nestedlist::ChildIndex(*tree, my_slot, s));
        }
      }
    }
  }
  top_slots_ = locals_[0].next_slots;
}

bool NokMatcher::TagOk(const pattern::Vertex& v, xml::NodeId x) const {
  if (v.IsVirtualRoot()) return x == kVirtualRootNode;
  if (x == kVirtualRootNode) return false;
  if (!doc_->IsElement(x)) return false;
  return v.MatchesAnyTag() || doc_->TagName(x) == v.tag;
}

bool NokMatcher::ConstraintsOk(const pattern::Vertex& v, xml::NodeId x) const {
  if (!TagOk(v, x)) return false;
  if (v.value && x != kVirtualRootNode) {
    if (!CompareValues(doc_->StringValue(x), v.value->op, v.value->literal)) {
      return false;
    }
  }
  return true;
}

bool NokMatcher::RootTest(xml::NodeId x) const {
  return ConstraintsOk(tree_->vertex(locals_[0].vertex), x);
}

bool NokMatcher::MatchAt(xml::NodeId x, nestedlist::NestedList* out) {
  // Positional predicate on the NoK root (e.g. //book[2] after the cut):
  // positions count among same-parent siblings matching the tag test.
  const pattern::Vertex& root = tree_->vertex(locals_[0].vertex);
  if (root.position > 0 && x != kVirtualRootNode) {
    if (xml::SiblingRank(*doc_, x, root.tag) !=
        static_cast<uint32_t>(root.position)) {
      return false;
    }
  }
  std::vector<Group> groups;
  if (!MatchVertex(0, x, &groups)) return false;
  out->tops = std::move(groups);
  return true;
}

bool NokMatcher::MatchVertex(uint32_t local_index, xml::NodeId x,
                             std::vector<Group>* out_groups) {
  ++match_work_;
  // Guard sample (DESIGN.md §9): a full Check (clock + token) every ~1k
  // work units keeps deadline detection prompt even when one match recurses
  // for a long time, at negligible cost. A tripped guard aborts the match;
  // the driver stops the scan and the engine reports guard->status().
  if (guard_ != nullptr && (match_work_ & 0x3FF) == 0 && !guard_->Check()) {
    return false;
  }
  const LocalVertex& lv = locals_[local_index];
  const pattern::Vertex& vx = tree_->vertex(lv.vertex);
  if (!ConstraintsOk(vx, x)) return false;

  // Accumulate matches per local child (each child contributes a fixed
  // number of slot groups). Attribute children are constraints evaluated
  // directly on x.
  size_t n_children = lv.local_children.size();
  std::vector<std::vector<Group>> acc(n_children);
  std::vector<bool> matched(n_children, false);
  std::vector<int> tag_count(n_children, 0);
  for (size_t k = 0; k < n_children; ++k) {
    acc[k].resize(locals_[lv.local_children[k]].next_slots.size());
  }

  auto try_child = [&](size_t k, xml::NodeId u) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    const pattern::Vertex& sv = tree_->vertex(s.vertex);
    ++match_work_;
    if (!TagOk(sv, u)) return;
    if (sv.position > 0) {
      ++tag_count[k];
      if (tag_count[k] != sv.position) return;
    }
    std::vector<Group> sub;
    if (!MatchVertex(lv.local_children[k], u, &sub)) return;
    matched[k] = true;
    for (size_t g = 0; g < sub.size(); ++g) {
      acc[k][g].insert(acc[k][g].end(),
                       std::make_move_iterator(sub[g].begin()),
                       std::make_move_iterator(sub[g].end()));
    }
  };

  for (size_t k = 0; k < n_children; ++k) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    const pattern::Vertex& sv = tree_->vertex(s.vertex);
    if (!sv.tag.empty() && sv.tag[0] == '@') {
      // Attribute constraint: check presence (and value) on x itself.
      std::string_view value;
      if (x != kVirtualRootNode &&
          doc_->AttributeValue(x, sv.tag.substr(1), &value)) {
        if (!sv.value ||
            CompareValues(value, sv.value->op, sv.value->literal)) {
          matched[k] = true;
          if (sv.returning) {
            Entry e;
            e.node = x;  // Attribute matches surface their owner element.
            e.groups.resize(
                tree_->slot(tree_->SlotOfVertex(s.vertex)).children.size());
            acc[k][0].push_back(std::move(e));
          }
        }
      }
      continue;
    }
    if (sv.axis == xpath::Axis::kFollowingSibling) {
      if (x == kVirtualRootNode) continue;
      for (xml::NodeId u = doc_->NextSibling(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
      continue;
    }
    // Child axis.
    if (x == kVirtualRootNode) {
      if (!doc_->empty()) try_child(k, doc_->Root());
    } else {
      for (xml::NodeId u = doc_->FirstChild(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
    }
  }

  // Mandatory (f-mode) children must have matched (Algorithm 2 line 21:
  // unmatched pattern nodes invalidate the partial result).
  for (size_t k = 0; k < n_children; ++k) {
    const pattern::Vertex& sv =
        tree_->vertex(locals_[lv.local_children[k]].vertex);
    if (sv.mode == EdgeMode::kFor && !matched[k]) return false;
  }

  // Assemble this vertex's contribution.
  out_groups->clear();
  if (vx.returning) {
    SlotId my_slot = tree_->SlotOfVertex(lv.vertex);
    Entry e;
    e.node = x;
    e.groups.resize(tree_->slot(my_slot).children.size());
    size_t flat = 0;
    for (size_t k = 0; k < n_children; ++k) {
      for (size_t g = 0; g < acc[k].size(); ++g, ++flat) {
        Group& dst = e.groups[lv.child_slot_index[flat]];
        dst.insert(dst.end(), std::make_move_iterator(acc[k][g].begin()),
                   std::make_move_iterator(acc[k][g].end()));
      }
    }
    Group mine;
    mine.push_back(std::move(e));
    out_groups->push_back(std::move(mine));
  } else {
    for (size_t k = 0; k < n_children; ++k) {
      for (Group& g : acc[k]) {
        out_groups->push_back(std::move(g));
      }
    }
  }
  return true;
}

NokScanOperator::NokScanOperator(const xml::Document* doc,
                                 const pattern::BlossomTree* tree,
                                 const pattern::NokTree* nok,
                                 util::ThreadPool* pool,
                                 util::ResourceGuard* guard,
                                 NokResultCache* cache,
                                 const storage::DiskStore* store,
                                 ExecOptions exec)
    : doc_(doc),
      tree_(tree),
      nok_(nok),
      matcher_(doc, tree, nok),
      virtual_root_(tree->vertex(nok->root).IsVirtualRoot()),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      pool_(pool),
      guard_(guard),
      cache_(cache),
      store_(store),
      exec_(exec) {
  matcher_.set_guard(guard);
  if (cache_ != nullptr) {
    canonical_nok_ = pattern::CanonicalNok(*tree, *nok);
  }
  // Kernel candidate prefiltering needs a concrete element root tag: the
  // prefilter `tag_id(x) == target` then implies exactly the set of nodes
  // the reference loop's RootTest would spend any counted work on (TagOk
  // is a free string compare; value comparisons and match work only start
  // after it passes), so counters stay bitwise-identical. Wildcard,
  // attribute, and virtual roots use the per-node reference loop.
  const pattern::Vertex& rootv = tree->vertex(nok->root);
  kernel_eligible_ = !virtual_root_ && !rootv.MatchesAnyTag() &&
                     !rootv.tag.empty() && rootv.tag[0] != '@';
  if (kernel_eligible_) {
    // A tag absent from the document (Lookup -> kNullTag) means zero
    // candidates — the correct answer, since no node can pass TagOk.
    target_tag_ = doc->tags().Lookup(rootv.tag);
  }
}

void NokScanOperator::SetRange(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
  cursor_ = begin;
  parallel_done_ = false;
  parallel_buf_.clear();
  parallel_pos_ = 0;
  pending_.clear();
  pending_pos_ = 0;
  io_cursor_ = storage::ScanCursor();
}

bool NokScanOperator::ParallelEligible() const {
  return pool_ != nullptr && pool_->NumThreads() > 1 && !virtual_root_ &&
         range_begin_ == 0 && doc_->NumNodes() > 1 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

bool NokScanOperator::CacheEligible() const {
  // Full-document scans only: the BNLJ's range-restricted inner re-scans
  // are many, small, and keyed by arbitrary subtree ranges — caching them
  // would flood the budget with entries that rarely recur. An unfinished
  // document (generation 0) has no invalidation identity, so it is never
  // cached either.
  return cache_ != nullptr && doc_->generation() != 0 &&
         doc_->NumNodes() > 0 && range_begin_ == 0 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

bool NokScanOperator::ChargeAndCount(const nestedlist::NestedList& nl) {
  uint64_t cells = CountCells(nl);
  // Charge *before* counting: when the budget trips on this row the
  // consumer never receives it, and matches/cells must reflect what was
  // actually delivered (the mid-stream-cancellation stats audit).
  if (guard_ != nullptr &&
      !guard_->ChargeCells(cells, cells * sizeof(nestedlist::Entry))) {
    return false;
  }
  ++matches_emitted_;
  cells_emitted_ += cells;
  return true;
}

bool NokScanOperator::HandOutBuffered(nestedlist::NestedList* out) {
  // A trip during materialization leaves a partial buffer: end the stream
  // instead of handing out a truncated prefix as if complete.
  if (guard_ != nullptr && guard_->Tripped()) return false;
  if (parallel_pos_ >= parallel_buf_.size()) return false;
  *out = std::move(parallel_buf_[parallel_pos_++]);
  // Cell charging happens at handout (main thread, identical order at
  // every thread count and on cache hits) so the budget verdict is
  // deterministic.
  return ChargeAndCount(*out);
}

void NokScanOperator::FillCache(
    const NokCacheKey& key,
    const std::vector<nestedlist::NestedList>& matches) {
  if (guard_ != nullptr && guard_->Tripped()) return;
  util::TraceSpan span("cache", "result.fill");
  auto entry = std::make_shared<CachedNokScan>();
  entry->matches = matches;
  for (const nestedlist::NestedList& nl : matches) {
    entry->cells += CountCells(nl);
  }
  cache_->Put(key, std::move(entry));
}

void NokScanOperator::GatherCandidates(xml::NodeId first, xml::NodeId last,
                                       storage::ScanCursor* io,
                                       std::vector<xml::NodeId>* out) const {
  if (store_ != nullptr) {
    // Block-at-a-time through the store: NextBlock counts one read per
    // block entered — exactly what sequential per-node Gets count — and
    // the kernel filters each resident block in place.
    for (xml::NodeId n = first; n <= last;) {
      std::span<const storage::NodeRecord> block =
          store_->NextBlock(n, last, io);
      if (target_tag_ != xml::kNullTag) {
        FilterTagEqRecords(block.data(), block.size(), target_tag_, n,
                           exec_.simd, out);
      }
      if (block.size() >= static_cast<size_t>(last - n) + 1) break;
      n += static_cast<xml::NodeId>(block.size());
    }
    return;
  }
  if (target_tag_ == xml::kNullTag) return;
  size_t count = static_cast<size_t>(last - first) + 1;
  if (const xml::PackedNodeRecord* recs = doc_->ExternalRecords()) {
    FilterTagEqRecords(recs + first, count, target_tag_, first, exec_.simd,
                       out);
  } else {
    FilterTagEq(doc_->TagArray() + first, count, target_tag_, first,
                exec_.simd, out);
  }
}

bool NokScanOperator::ScanRange(NokMatcher* m, xml::NodeId begin,
                                xml::NodeId end, storage::ScanCursor* io,
                                uint64_t* scanned, uint64_t* vcmps,
                                std::vector<nestedlist::NestedList>* out)
    const {
  size_t total = doc_->NumNodes();
  if (total == 0 || begin > end) return true;
  if (static_cast<size_t>(end) >= total) {
    end = static_cast<xml::NodeId>(total - 1);
  }
  std::vector<xml::NodeId> candidates;
  nestedlist::NestedList nl;
  for (xml::NodeId x = begin;;) {
    // Chunk-top guard sample. Check() never mutates a counter, so the
    // coarser-than-legacy cadence leaves untripped-run counters bitwise
    // unchanged; only trip *timing* coarsens (results are discarded on a
    // trip, so nothing observable depends on it).
    if (guard_ != nullptr && (guard_->Tripped() || !guard_->Check())) {
      return false;
    }
    xml::NodeId chunk_end = end;
    if (chunk_end - x >= kScanChunk) {
      chunk_end = x + static_cast<xml::NodeId>(kScanChunk) - 1;
    }
    uint64_t cmp_before = ValueComparisonCount();
    if (kernel_eligible_) {
      candidates.clear();
      GatherCandidates(x, chunk_end, io, &candidates);
      *scanned += chunk_end - x + 1;
      for (xml::NodeId c : candidates) {
        if (m->RootTest(c) && m->MatchAt(c, &nl) &&
            (guard_ == nullptr || !guard_->Tripped())) {
          out->push_back(std::move(nl));
          nl = nestedlist::NestedList();
        }
        if (guard_ != nullptr && guard_->Tripped()) {
          *vcmps += ValueComparisonCount() - cmp_before;
          return false;
        }
      }
    } else {
      // Per-node body for roots the prefilter cannot represent
      // (wildcard / attribute roots).
      for (xml::NodeId c = x; c <= chunk_end; ++c) {
        ++*scanned;
        if (store_ != nullptr) store_->Get(c, io);
        if (m->RootTest(c) && m->MatchAt(c, &nl) &&
            (guard_ == nullptr || !guard_->Tripped())) {
          out->push_back(std::move(nl));
          nl = nestedlist::NestedList();
        }
        if (guard_ != nullptr && guard_->Tripped()) {
          *vcmps += ValueComparisonCount() - cmp_before;
          return false;
        }
      }
    }
    *vcmps += ValueComparisonCount() - cmp_before;
    if (chunk_end == end) break;
    x = chunk_end + 1;
  }
  return true;
}

void NokScanOperator::RunSerialCachedScan() {
  parallel_buf_.clear();
  parallel_pos_ = 0;
  NokCacheKey key{doc_->generation(), canonical_nok_, range_begin_,
                  range_end_};
  {
    util::TraceSpan span("cache", "result.lookup");
    if (std::shared_ptr<const CachedNokScan> hit = cache_->Get(key)) {
      // Deep copy: buffered matches are handed out by move, and the cached
      // master must stay intact for the next hit.
      parallel_buf_ = hit->matches;
      parallel_done_ = true;
      return;
    }
  }
  if (exec_.vectorize) {
    // Cold: the chunked driver, run eagerly into the buffer. Same stream
    // and untripped-run counters as the reference loop below.
    ScanRange(&matcher_, cursor_, range_end_, &io_cursor_, &nodes_scanned_,
              &value_cmps_, &parallel_buf_);
    parallel_done_ = true;
    FillCache(key, parallel_buf_);
    return;
  }
  // Cold: the lazy serial loop, run eagerly into the buffer with the same
  // per-node guard sampling and counters.
  nestedlist::NestedList nl;
  while (cursor_ <= range_end_ &&
         static_cast<size_t>(cursor_) < doc_->NumNodes()) {
    if (guard_ != nullptr &&
        (guard_->Tripped() ||
         ((nodes_scanned_ & 0x1FF) == 0x1FF && !guard_->Check()))) {
      break;
    }
    xml::NodeId x = cursor_++;
    ++nodes_scanned_;
    // Touch the backing store so block residency and read counters track
    // the scan even though matching runs over the document facade.
    if (store_ != nullptr) store_->Get(x, &io_cursor_);
    uint64_t cmp_before = ValueComparisonCount();
    bool matched = matcher_.RootTest(x) && matcher_.MatchAt(x, &nl);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (matched && (guard_ == nullptr || !guard_->Tripped())) {
      parallel_buf_.push_back(std::move(nl));
      nl = nestedlist::NestedList();
    }
  }
  parallel_done_ = true;
  FillCache(key, parallel_buf_);
}

void NokScanOperator::RunVirtualCachedScan() {
  parallel_buf_.clear();
  parallel_pos_ = 0;
  NokCacheKey key{doc_->generation(), canonical_nok_, range_begin_,
                  range_end_};
  {
    util::TraceSpan span("cache", "result.lookup");
    if (std::shared_ptr<const CachedNokScan> hit = cache_->Get(key)) {
      parallel_buf_ = hit->matches;
      parallel_done_ = true;
      return;
    }
  }
  ++nodes_scanned_;
  uint64_t cmp_before = ValueComparisonCount();
  nestedlist::NestedList nl;
  bool matched = matcher_.MatchAt(kVirtualRootNode, &nl);
  value_cmps_ += ValueComparisonCount() - cmp_before;
  if (matched && (guard_ == nullptr || !guard_->Tripped())) {
    parallel_buf_.push_back(std::move(nl));
  }
  parallel_done_ = true;
  FillCache(key, parallel_buf_);
}

void NokScanOperator::RunParallelScan() {
  util::TraceSpan span(
      "exec", util::Tracer::Get().enabled() ? Label() + ".parallel"
                                            : std::string());
  std::vector<storage::NodeRange> parts =
      store_ != nullptr ? store_->Partition(pool_->NumThreads())
                        : storage::PartitionSubtrees(*doc_, pool_->NumThreads());
  partitions_used_ = parts.size();
  std::vector<std::vector<nestedlist::NestedList>> results(parts.size());
  std::vector<uint64_t> scanned(parts.size(), 0);
  std::vector<uint64_t> work(parts.size(), 0);
  std::vector<uint64_t> vcmp(parts.size(), 0);
  // Per-partition cache probe (main thread): hit partitions replay their
  // stored matches; only the misses go to the pool. Partition ranges are a
  // pure function of (document, thread count), so a warm run at the same
  // thread count hits every key, and any hit replays exactly what a cold
  // scan of that range produced — concatenation stays byte-identical.
  std::vector<std::shared_ptr<const CachedNokScan>> hits(parts.size());
  std::vector<size_t> missing;
  if (CacheEligible()) {
    util::TraceSpan span("cache", "result.lookup");
    for (size_t i = 0; i < parts.size(); ++i) {
      hits[i] = cache_->Get(NokCacheKey{doc_->generation(), canonical_nok_,
                                        parts[i].begin, parts[i].end});
      if (hits[i] == nullptr) missing.push_back(i);
    }
  } else {
    missing.resize(parts.size());
    for (size_t i = 0; i < parts.size(); ++i) missing[i] = i;
  }
  pool_->ParallelFor(
      missing.size(),
      [&](size_t mi) {
        size_t i = missing[mi];
        util::TraceSpan part_span(
            "exec", util::Tracer::Get().enabled()
                        ? "partition[" + std::to_string(i) + "] nodes [" +
                              std::to_string(parts[i].begin) + "," +
                              std::to_string(parts[i].end) + "]"
                        : std::string());
        // A private matcher per partition: constraint checks are read-only
        // on the shared document, and counters stay thread-local. One
        // partition runs entirely on one worker, so the thread-local
        // value-comparison delta below is exactly this partition's
        // comparisons.
        NokMatcher m(doc_, tree_, nok_);
        m.set_guard(guard_);
        // Private I/O cursor per partition: block pins and read counts stay
        // local to this worker, so the aggregate equals the sum of
        // partition read counts at every thread count and interleaving.
        storage::ScanCursor io;
        if (exec_.vectorize) {
          ScanRange(&m, parts[i].begin, parts[i].end, &io, &scanned[i],
                    &vcmp[i], &results[i]);
        } else {
          uint64_t cmp_before = ValueComparisonCount();
          nestedlist::NestedList nl;
          for (xml::NodeId x = parts[i].begin; x <= parts[i].end; ++x) {
            // Batch-boundary guard sample: a cheap tripped probe per node
            // plus a full check every ~512 nodes.
            if (guard_ != nullptr &&
                (guard_->Tripped() ||
                 ((scanned[i] & 0x1FF) == 0x1FF && !guard_->Check()))) {
              break;
            }
            ++scanned[i];
            if (store_ != nullptr) store_->Get(x, &io);
            if (!m.RootTest(x)) continue;
            if (m.MatchAt(x, &nl)) {
              results[i].push_back(std::move(nl));
              nl = nestedlist::NestedList();
            }
          }
          vcmp[i] = ValueComparisonCount() - cmp_before;
        }
        work[i] = m.MatchWork();
      },
      guard_);
  // Fill the cache for every partition scanned cold (complete scans only;
  // FillCache refuses after a trip).
  if (CacheEligible()) {
    for (size_t i : missing) {
      FillCache(NokCacheKey{doc_->generation(), canonical_nok_,
                            parts[i].begin, parts[i].end},
                results[i]);
    }
  }
  parallel_buf_.clear();
  // Deterministic merge point (DESIGN.md §8): per-partition counters fold
  // in partition order, matching the result concatenation. Hit partitions
  // contribute no scan work — they replay a deep copy of their entry.
  for (size_t i = 0; i < parts.size(); ++i) {
    nodes_scanned_ += scanned[i];
    parallel_work_ += work[i];
    value_cmps_ += vcmp[i];
    if (hits[i] != nullptr) {
      parallel_buf_.insert(parallel_buf_.end(), hits[i]->matches.begin(),
                           hits[i]->matches.end());
    } else {
      parallel_buf_.insert(parallel_buf_.end(),
                           std::make_move_iterator(results[i].begin()),
                           std::make_move_iterator(results[i].end()));
    }
  }
  parallel_pos_ = 0;
  parallel_done_ = true;
}

bool NokScanOperator::GetNext(nestedlist::NestedList* out) {
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  return GetNextImpl(out);
}

size_t NokScanOperator::GetNextBatch(Batch* out, size_t max_rows) {
  // One timer + trace span for the whole batch: the per-row bookkeeping
  // that dominated the node-at-a-time hot path amortizes across max_rows.
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  out->rows.clear();
  max_rows = ClampBatchRows(max_rows);
  nestedlist::NestedList nl;
  while (out->rows.size() < max_rows && GetNextImpl(&nl)) {
    out->rows.push_back(std::move(nl));
    nl = nestedlist::NestedList();
  }
  return out->rows.size();
}

bool NokScanOperator::GetNextImpl(nestedlist::NestedList* out) {
  if (virtual_root_) {
    if (CacheEligible()) {
      if (!parallel_done_) RunVirtualCachedScan();
      return HandOutBuffered(out);
    }
    if (virtual_done_) return false;
    virtual_done_ = true;
    ++nodes_scanned_;
    uint64_t cmp_before = ValueComparisonCount();
    bool matched = matcher_.MatchAt(kVirtualRootNode, out);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (matched) {
      ++matches_emitted_;
      cells_emitted_ += CountCells(*out);
    }
    return matched;
  }
  if (ParallelEligible()) {
    if (!parallel_done_) RunParallelScan();
    return HandOutBuffered(out);
  }
  if (CacheEligible()) {
    if (!parallel_done_) RunSerialCachedScan();
    return HandOutBuffered(out);
  }
  if (exec_.vectorize) {
    // Chunked serial driver: scan one chunk at a time into the pending
    // buffer, hand matches out one per call. Emission order and charge
    // sequence are identical to the reference loop below — charges happen
    // only on handed-out matches, in the same document order.
    while (pending_pos_ >= pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
      if (cursor_ > range_end_ ||
          static_cast<size_t>(cursor_) >= doc_->NumNodes()) {
        return false;
      }
      xml::NodeId chunk_end = range_end_;
      if (chunk_end - cursor_ >= kScanChunk) {
        chunk_end = cursor_ + static_cast<xml::NodeId>(kScanChunk) - 1;
      }
      bool ok = ScanRange(&matcher_, cursor_, chunk_end, &io_cursor_,
                          &nodes_scanned_, &value_cmps_, &pending_);
      cursor_ = chunk_end + 1;
      if (!ok) return false;
    }
    *out = std::move(pending_[pending_pos_++]);
    if (guard_ != nullptr && guard_->Tripped()) return false;
    return ChargeAndCount(*out);
  }
  // Reference node-at-a-time loop (exec.vectorize == false): the pinned
  // baseline the equivalence suite compares the chunked driver against.
  while (cursor_ <= range_end_ &&
         static_cast<size_t>(cursor_) < doc_->NumNodes()) {
    if (guard_ != nullptr &&
        (guard_->Tripped() ||
         ((nodes_scanned_ & 0x1FF) == 0x1FF && !guard_->Check()))) {
      return false;
    }
    xml::NodeId x = cursor_++;
    ++nodes_scanned_;
    if (store_ != nullptr) store_->Get(x, &io_cursor_);
    uint64_t cmp_before = ValueComparisonCount();
    bool matched = matcher_.RootTest(x) && matcher_.MatchAt(x, out);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (matched) {
      if (guard_ != nullptr && guard_->Tripped()) return false;
      return ChargeAndCount(*out);
    }
  }
  return false;
}

ExecStats NokScanOperator::Stats() const {
  ExecStats s;
  s.wall_nanos = wall_nanos_;
  s.nodes_scanned = nodes_scanned_;
  s.comparisons = MatchWork() + value_cmps_;
  s.matches = matches_emitted_;
  s.nl_cells = cells_emitted_;
  return s;
}

void NokScanOperator::Rewind() {
  cursor_ = range_begin_;
  virtual_done_ = false;
  // Parallel buffers hand entries out by move, so a rewound parallel scan
  // recomputes — mirroring the serial driver, which also rescans.
  parallel_done_ = false;
  parallel_buf_.clear();
  parallel_pos_ = 0;
  pending_.clear();
  pending_pos_ = 0;
  io_cursor_ = storage::ScanCursor();
}

}  // namespace exec
}  // namespace blossomtree
