#include "storage/node_store.h"

#include "util/trace.h"

namespace blossomtree {
namespace storage {

std::vector<NodeRange> GroupSubtreeCuts(const std::vector<xml::NodeId>& cuts,
                                        size_t total, size_t max_partitions) {
  std::vector<NodeRange> out;
  if (total == 0) return out;
  xml::NodeId last = static_cast<xml::NodeId>(total - 1);
  if (max_partitions <= 1 || cuts.size() <= 1) {
    out.push_back({0, last});
    return out;
  }
  size_t target = (total + max_partitions - 1) / max_partitions;
  xml::NodeId begin = 0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    // cuts[i] starts a new top-level subtree: a legal cut point.
    size_t acc = cuts[i] - begin;
    if (acc >= target && out.size() + 1 < max_partitions) {
      out.push_back({begin, static_cast<xml::NodeId>(cuts[i] - 1)});
      begin = cuts[i];
    }
  }
  out.push_back({begin, last});
  return out;
}

std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions) {
  util::TraceSpan span("storage", "PartitionSubtrees");
  std::vector<xml::NodeId> cuts;
  if (!doc.empty()) {
    cuts.push_back(doc.Root());
    for (xml::NodeId c = doc.FirstChild(doc.Root()); c != xml::kNullNode;
         c = doc.NextSibling(c)) {
      cuts.push_back(c);
    }
  }
  return GroupSubtreeCuts(cuts, doc.NumNodes(), max_partitions);
}

}  // namespace storage
}  // namespace blossomtree
