#ifndef BLOSSOMTREE_INDEX_BTSI_H_
#define BLOSSOMTREE_INDEX_BTSI_H_

#include <memory>
#include <string>
#include <string_view>

#include "index/structural_index.h"
#include "util/status.h"

namespace blossomtree {
namespace index {

/// BTSI: the structural-index member of the BTSX file family (DESIGN.md
/// §14). A `.btsi` file is a *sidecar* of a BTSX v2 corpus file — written
/// by `btingest --index` next to the `.btsx2`, loaded by storage::DiskStore
/// on open — carrying the path summary (DataGuide), the per-tag posting
/// lists, and the sorted value index of index/structural_index.h.
///
/// The format follows the family's 256-byte header discipline: magic,
/// version, endianness probe, the *source document's generation stamp*
/// (equal to the `.btsx2` file's on-disk generation, so replacing the
/// corpus file auto-invalidates every stale sidecar), counts, and a
/// fixed-size section table. All integers little-endian; sections 16-byte
/// aligned; the image must end exactly at the last section.
///
/// Sections, in file order:
///   0 tag dictionary   u32 length + bytes per name, in TagId order
///   1 guide nodes      num_guide × 16 B {tag u32, parent u32, count u64};
///                      node 0 is the super-root {kNullTag, kNoGuideNode, 1}
///   2 posting offsets  (num_tags + 1) × 8 B prefix offsets
///   3 postings         num_elements × 12 B {node, subtree_end, level}
///   4 tag stats        num_tags × 16 B {avg_subtree f64, overlong u64}
///   5 value entries    num_values × 16 B {tag, node, offset, len},
///                      sorted by (tag, value bytes, node)
///   6 numeric entries  num_numerics × 16 B {tag u32, node u32, key f64},
///                      sorted by (tag, key, node)
///   7 value pool       concatenated value bytes
///
/// Unlike the `.btsx2` (which is mmap'd and served zero-copy), the decoder
/// validates and *copies* the image into an owned StructuralIndex: the
/// index is small relative to its corpus, and owning the arrays keeps the
/// sidecar file unpinned after open.

inline constexpr char kBtsiMagic[8] = {'B', 'T', 'S', 'I', 0, 0, 0, 0};
inline constexpr uint32_t kBtsiVersion = 1;
inline constexpr uint32_t kBtsiEndianProbe = 0x01020304u;
inline constexpr size_t kBtsiHeaderBytes = 256;
inline constexpr size_t kBtsiNumSections = 8;

enum BtsiSection : size_t {
  kBtsiTagDict = 0,
  kBtsiGuide = 1,
  kBtsiPostingOffsets = 2,
  kBtsiPostings = 3,
  kBtsiTagStats = 4,
  kBtsiValueEntries = 5,
  kBtsiNumericEntries = 6,
  kBtsiValuePool = 7,
};

/// \brief Serializes an index into BTSI bytes.
Result<std::string> EncodeBtsi(const StructuralIndex& index);

/// \brief Writes the BTSI encoding to `path` atomically
/// (util::WriteFileAtomic).
Status WriteBtsi(const StructuralIndex& index, const std::string& path);

/// \brief Parses and fully validates a BTSI image (header, section table,
/// dictionary, guide shape, posting monotonicity, value-entry order and
/// pool bounds), returning an owned index. InvalidArgument on any
/// corruption — adversarial inputs must never yield a partially valid
/// index.
Result<std::unique_ptr<StructuralIndex>> DecodeBtsi(std::string_view image);

/// \brief Reads and decodes `path`.
Result<std::unique_ptr<StructuralIndex>> LoadBtsi(const std::string& path);

/// \brief Sidecar naming convention: "<corpus file>.btsi".
std::string BtsiSidecarPath(const std::string& corpus_path);

}  // namespace index
}  // namespace blossomtree

#endif  // BLOSSOMTREE_INDEX_BTSI_H_
