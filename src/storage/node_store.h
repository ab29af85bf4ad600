#ifndef BLOSSOMTREE_STORAGE_NODE_STORE_H_
#define BLOSSOMTREE_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// \brief The fixed-width node record DiskStore serves — the paper's paged
/// physical layout, one 16-byte record per node in document order, shared
/// with the external document layout (xml::PackedNodeRecord) so BTSX v2
/// files persist it byte-for-byte.
using NodeRecord = xml::PackedNodeRecord;

/// \brief A contiguous, inclusive range [begin, end] of NodeIds — one
/// partition of a document for intra-query parallel scanning.
struct NodeRange {
  xml::NodeId begin;
  xml::NodeId end;

  size_t size() const { return static_cast<size_t>(end) - begin + 1; }
  bool operator==(const NodeRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// \brief Per-scan sequential-reader state: which block the scan is
/// currently on, how many it has fetched, and a pin keeping the current
/// block resident (DiskStore parks the shared_ptr of the cached block here
/// so eviction can never pull bytes out from under an in-progress read).
///
/// One cursor belongs to exactly one scan (one thread); concurrent scans
/// over a shared store each carry their own, which is what keeps block-read
/// accounting deterministic under the service's concurrent readers.
struct ScanCursor {
  size_t page = static_cast<size_t>(-1);
  uint64_t reads = 0;
  std::shared_ptr<const void> pin;
  /// False for planning-time walks (DiskStore::Partition): the cursor
  /// still pins and pages normally, but neither the cursor's `reads` nor
  /// the store-wide aggregate is incremented — partitioning is planning,
  /// not scan I/O.
  bool count_reads = true;
};

/// \brief Splits a document into at most `max_partitions` contiguous node
/// ranges, cutting only at *top-level subtree boundaries* — the subtrees
/// rooted at the children of the document root — balanced by node count.
///
/// Every match of a NoK rooted inside a partition lies entirely within one
/// top-level subtree, so per-partition matching is independent, and the
/// partitions' ascending NodeId ranges mean concatenating per-partition
/// results in partition order yields exact document order (Theorem 1's
/// Dewey-order argument; see DESIGN.md §7). The root node itself falls in
/// the first partition. Returns an empty vector for an empty document and a
/// single full-document range when no useful cut exists.
std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions);

/// \brief Greedy balanced grouping of consecutive top-level subtrees
/// [cuts[i], cuts[i+1]) into at most `max_partitions` contiguous ranges.
/// `cuts` holds the NodeId where each top-level subtree starts (the first
/// entry is the document root itself, which precedes its first child), and
/// `total` is the number of nodes in the document.
std::vector<NodeRange> GroupSubtreeCuts(const std::vector<xml::NodeId>& cuts,
                                        size_t total, size_t max_partitions);

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_NODE_STORE_H_
