#ifndef BLOSSOMTREE_XML_DOCUMENT_H_
#define BLOSSOMTREE_XML_DOCUMENT_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace blossomtree {
namespace xml {

/// \brief Index of a node inside a Document. Node ids are assigned in
/// *document (preorder) order*, so `a < b` iff node a precedes node b in
/// document order — the `<<` operator of XPath is integer comparison.
using NodeId = uint32_t;

/// \brief Interned tag-name identifier (see TagDictionary).
using TagId = uint32_t;

constexpr NodeId kNullNode = static_cast<NodeId>(-1);
constexpr TagId kNullTag = static_cast<TagId>(-1);

/// \brief Kind of a tree node. Attributes are stored out-of-band on their
/// owning element, not as tree nodes, matching the region-encoding papers.
enum class NodeKind : uint8_t {
  kElement = 0,
  kText = 1,
};

/// \brief Bidirectional map between tag names and dense TagIds.
class TagDictionary {
 public:
  /// \brief Returns the id for `name`, interning it if new.
  TagId Intern(std::string_view name);

  /// \brief Returns the id for `name`, or kNullTag if never interned.
  TagId Lookup(std::string_view name) const;

  /// \brief Returns the name for a valid id.
  const std::string& Name(TagId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId> ids_;
};

/// \brief One attribute of an element: both strings live in the document's
/// text pool.
struct Attribute {
  uint32_t name_offset;
  uint32_t name_len;
  uint32_t value_offset;
  uint32_t value_len;
};

/// \brief One fixed-width node record of the *external* document layout
/// (the decoded paged form the BTSX v2 file persists; see DESIGN.md §13):
/// everything the structural accessors need, 16 bytes per node in document
/// order. First-child / next-sibling are derived from subtree extents, so
/// no tree pointers are stored.
struct PackedNodeRecord {
  TagId tag;           ///< kNullTag for text nodes.
  NodeId subtree_end;  ///< Largest NodeId in this node's subtree.
  uint32_t level;      ///< Depth (root = 0).
  uint32_t text_ref;   ///< Text-span index for text nodes, else UINT32_MAX.
};
static_assert(sizeof(PackedNodeRecord) == 16, "on-disk record is 16 bytes");
static_assert(std::is_trivially_copyable_v<PackedNodeRecord>,
              "records are memcpy'd out of mapped files");

/// \brief (offset, length) of one text node's payload in the external text
/// pool; one entry per text node, indexed by PackedNodeRecord::text_ref.
struct ExternalTextSpan {
  uint32_t offset;
  uint32_t length;
};
static_assert(sizeof(ExternalTextSpan) == 8, "on-disk text span is 8 bytes");

/// \brief Attribute ownership of the external layout: element `node` owns
/// attrs [first, last). Sorted by `node` for binary search.
struct ExternalAttrOwner {
  NodeId node;
  uint32_t first;
  uint32_t last;
};
static_assert(sizeof(ExternalAttrOwner) == 12, "on-disk owner is 12 bytes");

/// \brief A complete externally owned document image — the BTSX v2 mapped
/// layout. All pointers are *borrowed*: they must outlive the Document that
/// adopts them (storage::DiskStore owns both the mapping and the Document).
///
/// AdoptExternal trusts these arrays to be internally consistent (record
/// extents nested, spans inside the pool, streams sorted); callers mapping
/// untrusted bytes must run storage::ValidateBtsx2Deep first.
struct ExternalLayout {
  size_t num_nodes = 0;
  const PackedNodeRecord* records = nullptr;  ///< num_nodes entries.
  const NodeId* parent = nullptr;             ///< num_nodes entries.
  const ExternalTextSpan* text_spans = nullptr;
  size_t num_text_spans = 0;
  const char* text_pool = nullptr;
  size_t text_pool_bytes = 0;
  const ExternalAttrOwner* attr_owners = nullptr;  ///< Sorted by node.
  size_t num_attr_owners = 0;
  const Attribute* attrs = nullptr;
  size_t num_attrs = 0;
  const uint32_t* tag_recursion = nullptr;       ///< One per tag.
  const uint64_t* tag_stream_offsets = nullptr;  ///< tag count + 1 entries.
  const NodeId* tag_streams = nullptr;           ///< num_elements entries.
  /// Tag dictionary in TagId order (interned on adopt).
  std::vector<std::string> tag_names;
  /// Precomputed statistics (ComputeStats equivalents, stored in the file).
  size_t num_elements = 0;
  uint32_t max_depth = 0;
  double avg_depth = 0;
  uint32_t max_recursion = 0;
};

/// \brief An XML document in structure-of-arrays layout.
///
/// Each node carries:
///  - its kind and tag id (elements) or text payload (text nodes),
///  - tree pointers (parent / first child / next sibling),
///  - its region label: `start` = its own NodeId (preorder rank),
///    `end` = the largest NodeId in its subtree, `level` = depth from the
///    root (root is level 0).
///
/// Region labels make the classic structural predicates O(1):
///  - `IsAncestor(a, d)`  ⇔  a < d && d <= end(a)
///  - document order      ⇔  NodeId comparison
///
/// Documents come into existence one of two ways:
///  - *built* in document order via BeginElement/AddText/EndElement (the
///    parser and the data generators) and frozen by Finish(), or
///  - *adopted* from an external BTSX v2 image via AdoptExternal(): the
///    structural arrays stay in the (typically mmap'd) image and every
///    accessor reads them zero-copy, so opening is O(open), not O(parse).
/// Either way the document is immutable afterwards and the engine cannot
/// tell the two apart.
class Document {
 public:
  Document() = default;

  // -- Construction (document order) ----------------------------------------

  /// \brief Opens a new element with tag `name`; returns its NodeId.
  NodeId BeginElement(std::string_view name);

  /// \brief Adds an attribute to the most recently opened element.
  void AddAttribute(std::string_view name, std::string_view value);

  /// \brief Adds a text node under the currently open element.
  NodeId AddText(std::string_view text);

  /// \brief Closes the most recently opened element.
  void EndElement();

  /// \brief Verifies the builder stack is empty and finalizes statistics.
  /// Also stamps the document's generation (below).
  Status Finish();

  /// \brief Adopts an external (disk-resident) image instead of building:
  /// the document becomes a zero-copy view over `layout`'s arrays, which
  /// must stay alive and unchanged for this object's lifetime. Only valid
  /// on a fresh Document (nothing built, not finished). Stamps a fresh
  /// process generation — reopening the same file twice yields two
  /// generations, exactly like re-parsing the same bytes does.
  Status AdoptExternal(ExternalLayout layout);

  /// \brief True when backed by an adopted external image.
  bool external() const { return ext_.records != nullptr; }

  /// \brief Process-unique generation stamp, assigned by Finish() (or
  /// AdoptExternal()) from a monotonically increasing process-wide counter
  /// starting at 1; 0 means "not finished". Two Document objects never
  /// share a generation, so (generation, node range) is a stable identity
  /// for cached NoK scan results (DESIGN.md §11): rebuilding or reloading a
  /// document — even from identical bytes — yields a fresh generation and
  /// thereby invalidates every cached result keyed to the old one.
  uint64_t generation() const { return generation_; }

  // -- Structure accessors ---------------------------------------------------

  size_t NumNodes() const {
    return ext_.records != nullptr ? ext_.num_nodes : kind_.size();
  }
  bool empty() const { return NumNodes() == 0; }

  /// \brief The document root element (first node), or kNullNode if empty.
  NodeId Root() const { return empty() ? kNullNode : 0; }

  NodeKind Kind(NodeId n) const {
    if (ext_.records != nullptr) {
      return ext_.records[n].tag == kNullTag ? NodeKind::kText
                                             : NodeKind::kElement;
    }
    return kind_[n];
  }
  bool IsElement(NodeId n) const { return Kind(n) == NodeKind::kElement; }

  /// \brief Tag id of an element node; kNullTag for text nodes.
  TagId Tag(NodeId n) const {
    return ext_.records != nullptr ? ext_.records[n].tag : tag_[n];
  }

  /// \brief Tag name of an element node.
  const std::string& TagName(NodeId n) const { return tags_.Name(Tag(n)); }

  NodeId Parent(NodeId n) const {
    return ext_.records != nullptr ? ext_.parent[n] : parent_[n];
  }

  /// \brief First child in document order. The external path derives it
  /// from the subtree extent (the paper's preorder-navigation identity:
  /// a non-leaf's first child is the next node in preorder).
  NodeId FirstChild(NodeId n) const {
    if (ext_.records == nullptr) return first_child_[n];
    return ext_.records[n].subtree_end > n ? n + 1 : kNullNode;
  }

  /// \brief Next sibling in document order; derived on the external path
  /// (the node just past this subtree, iff it sits at the same level).
  NodeId NextSibling(NodeId n) const {
    if (ext_.records == nullptr) return next_sibling_[n];
    NodeId next = ext_.records[n].subtree_end + 1;
    if (next >= ext_.num_nodes) return kNullNode;
    return ext_.records[next].level == ext_.records[n].level ? next
                                                             : kNullNode;
  }

  /// \brief Largest NodeId inside n's subtree (n itself if leaf).
  NodeId SubtreeEnd(NodeId n) const {
    return ext_.records != nullptr ? ext_.records[n].subtree_end
                                   : subtree_end_[n];
  }

  /// \brief Depth of n; the root has level 0.
  uint32_t Level(NodeId n) const {
    return ext_.records != nullptr ? ext_.records[n].level : level_[n];
  }

  /// \brief True iff `anc` is a proper ancestor of `desc`.
  bool IsAncestor(NodeId anc, NodeId desc) const {
    return anc < desc && desc <= SubtreeEnd(anc);
  }

  /// \brief True iff `anc` is `desc` or a proper ancestor of it.
  bool IsAncestorOrSelf(NodeId anc, NodeId desc) const {
    return anc <= desc && desc <= SubtreeEnd(anc);
  }

  /// \brief Text payload of a text node.
  std::string_view Text(NodeId n) const;

  /// \brief Concatenation of all descendant text (XPath string-value).
  std::string StringValue(NodeId n) const;

  /// \brief Attributes of an element, as (name, value) views.
  std::vector<std::pair<std::string_view, std::string_view>> Attributes(
      NodeId n) const;

  /// \brief Value of attribute `name` on element `n`; empty view + false if
  /// absent.
  bool AttributeValue(NodeId n, std::string_view name,
                      std::string_view* value) const;

  const TagDictionary& tags() const { return tags_; }
  TagDictionary& mutable_tags() { return tags_; }

  /// \brief Contiguous per-node tag array of a *built* document (kNullTag
  /// at text nodes), or nullptr for external documents — the stride-4
  /// input of the exec::FilterTagEq scan kernel.
  const TagId* TagArray() const {
    return ext_.records != nullptr ? nullptr : tag_.data();
  }

  /// \brief Adopted record stream of an *external* document, or nullptr
  /// for built documents — the stride-16 input of the
  /// exec::FilterTagEqRecords scan kernel.
  const PackedNodeRecord* ExternalRecords() const { return ext_.records; }

  /// \brief All element nodes with tag id `t`, in document order.
  ///
  /// This is the "tag-name index" required by the join-based approaches
  /// (TwigStack, structural merge join). Built lazily on first use, at
  /// most once (std::call_once), so concurrent queries over one shared
  /// document — the service::Corpus regime — may all call this without
  /// external locking. External documents return a zero-copy span over the
  /// per-tag node-id streams persisted in the BTSX v2 file: no build pass
  /// at all, which is most of what makes opening O(open).
  std::span<const NodeId> TagIndex(TagId t) const;

  // -- Statistics (valid after Finish) ---------------------------------------

  /// \brief Number of element nodes.
  size_t NumElements() const { return num_elements_; }
  /// \brief Maximum element depth (root = 1), matching Table 1's convention.
  uint32_t MaxDepth() const { return max_depth_; }
  /// \brief Average element depth.
  double AvgDepth() const { return avg_depth_; }
  /// \brief Maximum same-tag nesting degree over all tags: 1 means
  /// non-recursive (no element is a descendant of a same-tag element).
  uint32_t MaxRecursionDegree() const { return max_recursion_; }
  /// \brief True iff some element has a same-tag proper ancestor.
  bool IsRecursive() const { return max_recursion_ > 1; }
  /// \brief Per-tag nesting degree: 1 = elements of this tag never nest.
  /// The optimizer's fine-grained rule uses this — pipelined //-joins are
  /// order-preserving whenever the *outer* tag does not nest, even if the
  /// document is recursive elsewhere.
  uint32_t TagRecursionDegree(TagId t) const {
    if (ext_.records != nullptr) {
      return t < tags_.size() ? ext_.tag_recursion[t] : 0;
    }
    return t < tag_recursion_.size() ? tag_recursion_[t] : 0;
  }
  /// \brief Approximate in-memory size of the structural arrays in bytes
  /// (for an external document: of the mapped arrays it views).
  size_t StructureBytes() const;
  /// \brief Total bytes of text payload.
  size_t TextBytes() const {
    return ext_.records != nullptr ? ext_.text_pool_bytes : text_pool_.size();
  }

 private:
  void ComputeStats();

  /// Binary-searches the external attr-owner table; nullptr when `n` owns
  /// no attributes.
  const ExternalAttrOwner* FindExternalAttrs(NodeId n) const;

  TagDictionary tags_;
  std::vector<NodeKind> kind_;
  std::vector<TagId> tag_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;  // builder-only helper
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> subtree_end_;
  std::vector<uint32_t> level_;

  // Text payloads: (offset, len) into text_pool_.
  std::vector<std::pair<uint32_t, uint32_t>> text_span_;
  std::string text_pool_;

  // Attributes, grouped per element: element -> [first, last) in attrs_.
  std::unordered_map<NodeId, std::pair<uint32_t, uint32_t>> attr_range_;
  std::vector<Attribute> attrs_;

  std::vector<NodeId> open_stack_;

  // Stats.
  size_t num_elements_ = 0;
  uint32_t max_depth_ = 0;
  double avg_depth_ = 0;
  uint32_t max_recursion_ = 0;
  std::vector<uint32_t> tag_recursion_;

  // Adopted external image; records == nullptr for built documents. Every
  // accessor branches on that pointer, keeping the built path's codegen
  // (one test + the original load) essentially unchanged.
  ExternalLayout ext_;

  // Lazy per-tag document-order index, built under tag_index_once_ (the
  // call_once makes Document non-copyable, which it semantically always
  // was: nothing may copy a finished document's identity/generation).
  // External documents never build it — their index is in the file.
  mutable std::vector<std::vector<NodeId>> tag_index_;
  mutable std::once_flag tag_index_once_;

  uint64_t generation_ = 0;  ///< Stamped by Finish(); 0 = unfinished.
};

/// \brief 1-based rank of element `n` among its parent's element children
/// that match `tag` ("*" = any element) — the counting positional
/// predicates use (`//book[2]` selects each parent's second book child).
/// The document root has rank 1.
uint32_t SiblingRank(const Document& doc, NodeId n, std::string_view tag);

}  // namespace xml
}  // namespace blossomtree

#endif  // BLOSSOMTREE_XML_DOCUMENT_H_
