#include "exec/index_seek.h"

#include <algorithm>

#include "exec/value_ops.h"

namespace blossomtree {
namespace exec {

IndexSeekOperator::IndexSeekOperator(const xml::Document* doc,
                                     const pattern::BlossomTree* tree,
                                     const pattern::NokTree* nok,
                                     std::vector<xml::NodeId> candidates,
                                     util::ResourceGuard* guard,
                                     const storage::DiskStore* store)
    : doc_(doc),
      matcher_(doc, tree, nok),
      candidates_(std::move(candidates)),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      guard_(guard),
      store_(store) {
  if (guard_ != nullptr) matcher_.set_guard(guard_);
}

bool IndexSeekOperator::GetNext(nestedlist::NestedList* out) {
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  return GetNextImpl(out);
}

size_t IndexSeekOperator::GetNextBatch(Batch* out, size_t max_rows) {
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

bool IndexSeekOperator::GetNextImpl(nestedlist::NestedList* out) {
  while (pos_ < candidates_.size() && candidates_[pos_] <= range_end_) {
    if (guard_ != nullptr &&
        (guard_->Tripped() ||
         ((probed_ & 0x1FF) == 0x1FF && !guard_->Check()))) {
      return false;
    }
    xml::NodeId x = candidates_[pos_++];
    ++probed_;
    if (store_ != nullptr) store_->Get(x, &io_cursor_);
    uint64_t cmp_before = ValueComparisonCount();
    bool matched = matcher_.RootTest(x) && matcher_.MatchAt(x, out);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (matched) {
      if (guard_ != nullptr && guard_->Tripped()) return false;
      uint64_t cells = CountCells(*out);
      // Charge before counting: a budget trip on this row means the
      // consumer never received it, so matches/cells must not include it.
      if (guard_ != nullptr &&
          !guard_->ChargeCells(cells, cells * sizeof(nestedlist::Entry))) {
        return false;
      }
      ++matches_emitted_;
      cells_emitted_ += cells;
      return true;
    }
  }
  return false;
}

void IndexSeekOperator::Rewind() {
  pos_ = static_cast<size_t>(
      std::lower_bound(candidates_.begin(), candidates_.end(), range_begin_) -
      candidates_.begin());
  io_cursor_ = storage::ScanCursor();
}

void IndexSeekOperator::Restrict(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
}

ExecStats IndexSeekOperator::Stats() const {
  ExecStats s;
  s.wall_nanos = wall_nanos_;
  s.nodes_scanned = probed_;
  s.index_entries = probed_;
  s.comparisons = matcher_.MatchWork() + value_cmps_;
  s.matches = matches_emitted_;
  s.nl_cells = cells_emitted_;
  return s;
}

}  // namespace exec
}  // namespace blossomtree
