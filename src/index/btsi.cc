#include "index/btsi.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/file_io.h"

namespace blossomtree {
namespace index {

namespace {

constexpr uint32_t kU32Max = static_cast<uint32_t>(-1);

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

double GetF64(const char* p) {
  uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

uint64_t Align16(uint64_t v) { return (v + 15) & ~uint64_t{15}; }

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("BTSI: " + what);
}

}  // namespace

Result<std::string> EncodeBtsi(const StructuralIndex& index) {
  if (index.generation() == 0) {
    return Status::InvalidArgument("BTSI: index has no generation stamp");
  }

  std::string tag_dict;
  for (const std::string& name : index.tag_names()) {
    PutU32(&tag_dict, static_cast<uint32_t>(name.size()));
    tag_dict.append(name);
  }

  std::string guide;
  for (const GuideNode& g : index.guide()) {
    PutU32(&guide, g.tag);
    PutU32(&guide, g.parent);
    PutU64(&guide, g.count);
  }

  std::string posting_offsets;
  for (uint64_t off : index.raw_posting_offsets()) {
    PutU64(&posting_offsets, off);
  }

  std::string postings;
  for (const PostingEntry& e : index.raw_postings()) {
    PutU32(&postings, e.node);
    PutU32(&postings, e.subtree_end);
    PutU32(&postings, e.level);
  }

  std::string stats;
  for (const TagStats& s : index.raw_stats()) {
    PutF64(&stats, s.avg_subtree);
    PutU64(&stats, s.overlong_values);
  }

  std::string values;
  for (const StructuralIndex::ValueEntry& e : index.raw_values()) {
    PutU32(&values, e.tag);
    PutU32(&values, e.node);
    PutU32(&values, e.offset);
    PutU32(&values, e.len);
  }

  std::string numerics;
  for (const StructuralIndex::NumericEntry& e : index.raw_numerics()) {
    PutU32(&numerics, e.tag);
    PutU32(&numerics, e.node);
    PutF64(&numerics, e.key);
  }

  const std::string& pool = index.raw_value_pool();
  if (pool.size() > static_cast<size_t>(kU32Max)) {
    return Status::InvalidArgument("BTSI: value pool exceeds 32-bit offsets");
  }

  const std::string* sections[kBtsiNumSections] = {
      &tag_dict, &guide,    &posting_offsets, &postings,
      &stats,    &values,   &numerics,        &pool};
  uint64_t offsets[kBtsiNumSections];
  uint64_t pos = kBtsiHeaderBytes;
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    pos = Align16(pos);
    offsets[i] = pos;
    pos += sections[i]->size();
  }

  std::string out;
  out.reserve(static_cast<size_t>(pos));
  out.append(kBtsiMagic, sizeof kBtsiMagic);
  PutU32(&out, kBtsiVersion);
  PutU32(&out, kBtsiEndianProbe);
  PutU64(&out, index.generation());
  PutU64(&out, index.num_nodes());
  PutU64(&out, index.num_elements());
  PutU64(&out, index.tag_names().size());
  PutU64(&out, index.guide().size());
  PutU64(&out, index.raw_values().size());
  PutU64(&out, index.raw_numerics().size());
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i]->size());
  }
  out.resize(kBtsiHeaderBytes, '\0');
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    out.resize(static_cast<size_t>(offsets[i]), '\0');
    out.append(*sections[i]);
  }
  return out;
}

Status WriteBtsi(const StructuralIndex& index, const std::string& path) {
  Result<std::string> encoded = EncodeBtsi(index);
  BT_RETURN_NOT_OK(encoded.status());
  return util::WriteFileAtomic(path, *encoded);
}

Result<std::unique_ptr<StructuralIndex>> DecodeBtsi(std::string_view image) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unsupported("BTSI: requires a little-endian host");
  }
  if (image.size() < kBtsiHeaderBytes) {
    return Corrupt("image smaller than the header");
  }
  const char* p = image.data();
  if (std::memcmp(p, kBtsiMagic, sizeof kBtsiMagic) != 0) {
    return Corrupt("bad magic");
  }
  if (GetU32(p + 8) != kBtsiVersion) return Corrupt("unsupported version");
  if (GetU32(p + 12) != kBtsiEndianProbe) {
    return Corrupt("endianness probe mismatch");
  }

  const uint64_t generation = GetU64(p + 16);
  const uint64_t num_nodes = GetU64(p + 24);
  const uint64_t num_elements = GetU64(p + 32);
  const uint64_t num_tags = GetU64(p + 40);
  const uint64_t num_guide = GetU64(p + 48);
  const uint64_t num_values = GetU64(p + 56);
  const uint64_t num_numerics = GetU64(p + 64);

  if (generation == 0) return Corrupt("zero generation stamp");
  if (num_nodes >= kU32Max || num_tags >= kU32Max || num_guide >= kU32Max) {
    return Corrupt("counts exceed 32-bit ids");
  }
  if (num_elements > num_nodes || num_values > num_elements ||
      num_numerics > num_values || num_guide > num_elements + 1 ||
      num_guide == 0) {
    return Corrupt("implausible counts");
  }

  uint64_t offs[kBtsiNumSections];
  uint64_t sizes[kBtsiNumSections];
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    offs[i] = GetU64(p + 72 + i * 16);
    sizes[i] = GetU64(p + 72 + i * 16 + 8);
    if (offs[i] < kBtsiHeaderBytes || offs[i] > image.size() ||
        sizes[i] > image.size() - offs[i]) {
      return Corrupt("section out of bounds");
    }
    if (offs[i] % 16 != 0) return Corrupt("misaligned section");
  }
  const uint64_t expect[kBtsiNumSections] = {
      sizes[kBtsiTagDict],  // free-form, validated by parsing below
      num_guide * 16,
      (num_tags + 1) * 8,
      num_elements * 12,
      num_tags * 16,
      num_values * 16,
      num_numerics * 16,
      sizes[kBtsiValuePool]};  // free-form
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    if (sizes[i] != expect[i]) return Corrupt("section size mismatch");
  }
  if (sizes[kBtsiValuePool] > kU32Max) {
    return Corrupt("value pool exceeds 32-bit offsets");
  }
  // The encoder is canonical: sections in table order, each at the first
  // 16-aligned position after its predecessor, zero padding between them
  // and in the reserved header tail, and the image ending exactly at the
  // last section. Pinning all of that here means every accepted image
  // re-encodes byte-identically — corruption cannot hide in slack bytes.
  uint64_t pos = kBtsiHeaderBytes;
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    pos = Align16(pos);
    if (offs[i] != pos) return Corrupt("non-canonical section layout");
    pos += sizes[i];
  }
  if (image.size() != pos) return Corrupt("trailing bytes after last section");
  for (size_t i = 72 + kBtsiNumSections * 16; i < kBtsiHeaderBytes; ++i) {
    if (p[i] != 0) return Corrupt("nonzero reserved header bytes");
  }
  uint64_t prev_end = kBtsiHeaderBytes;
  for (size_t i = 0; i < kBtsiNumSections; ++i) {
    for (uint64_t b = prev_end; b < offs[i]; ++b) {
      if (p[b] != 0) return Corrupt("nonzero section padding");
    }
    prev_end = offs[i] + sizes[i];
  }

  // Tag dictionary: names must consume the section exactly.
  std::vector<std::string> tag_names;
  {
    const char* d = p + offs[kBtsiTagDict];
    uint64_t remaining = sizes[kBtsiTagDict];
    tag_names.reserve(static_cast<size_t>(num_tags));
    for (uint64_t t = 0; t < num_tags; ++t) {
      if (remaining < 4) return Corrupt("truncated tag dictionary");
      uint32_t len = GetU32(d);
      d += 4;
      remaining -= 4;
      if (len > remaining) return Corrupt("tag name out of bounds");
      tag_names.emplace_back(d, len);
      d += len;
      remaining -= len;
    }
    if (remaining != 0) return Corrupt("trailing bytes in tag dictionary");
  }

  // Guide: node 0 is the super-root; every other node names an earlier
  // parent and a valid tag, and no parent has two same-tag children (a
  // path summary keys children by tag).
  std::vector<GuideNode> guide;
  {
    const char* d = p + offs[kBtsiGuide];
    guide.reserve(static_cast<size_t>(num_guide));
    std::unordered_map<uint64_t, bool> seen_child;
    for (uint64_t g = 0; g < num_guide; ++g, d += 16) {
      GuideNode node;
      node.tag = GetU32(d);
      node.parent = GetU32(d + 4);
      node.count = GetU64(d + 8);
      if (g == 0) {
        if (node.tag != xml::kNullTag || node.parent != kNoGuideNode) {
          return Corrupt("guide super-root malformed");
        }
      } else {
        if (node.tag >= num_tags) return Corrupt("guide tag out of range");
        if (node.parent >= g) return Corrupt("guide parent not an ancestor");
        if (node.count == 0) return Corrupt("guide node with zero count");
        uint64_t key = (static_cast<uint64_t>(node.parent) << 32) | node.tag;
        if (!seen_child.emplace(key, true).second) {
          return Corrupt("duplicate guide child tag");
        }
      }
      guide.push_back(std::move(node));
    }
  }

  // Posting offsets: monotone prefix sums covering every element.
  std::vector<uint64_t> posting_offsets;
  {
    const char* d = p + offs[kBtsiPostingOffsets];
    posting_offsets.reserve(static_cast<size_t>(num_tags) + 1);
    for (uint64_t t = 0; t <= num_tags; ++t, d += 8) {
      posting_offsets.push_back(GetU64(d));
    }
    if (posting_offsets.front() != 0 || posting_offsets.back() != num_elements) {
      return Corrupt("posting offsets do not cover the elements");
    }
    for (uint64_t t = 0; t < num_tags; ++t) {
      if (posting_offsets[t] > posting_offsets[t + 1]) {
        return Corrupt("posting offsets not monotone");
      }
    }
  }

  // Postings: per-tag strictly ascending NodeIds with sane region labels.
  std::vector<PostingEntry> postings;
  {
    const char* d = p + offs[kBtsiPostings];
    postings.reserve(static_cast<size_t>(num_elements));
    for (uint64_t i = 0; i < num_elements; ++i, d += 12) {
      PostingEntry e;
      e.node = GetU32(d);
      e.subtree_end = GetU32(d + 4);
      e.level = GetU32(d + 8);
      if (e.node >= num_nodes || e.subtree_end >= num_nodes ||
          e.subtree_end < e.node || e.level >= num_nodes) {
        return Corrupt("posting entry out of range");
      }
      postings.push_back(e);
    }
    for (uint64_t t = 0; t < num_tags; ++t) {
      for (uint64_t i = posting_offsets[t] + 1; i < posting_offsets[t + 1];
           ++i) {
        if (postings[i - 1].node >= postings[i].node) {
          return Corrupt("posting list not ascending");
        }
      }
    }
  }

  std::vector<TagStats> stats;
  {
    const char* d = p + offs[kBtsiTagStats];
    stats.reserve(static_cast<size_t>(num_tags));
    for (uint64_t t = 0; t < num_tags; ++t, d += 16) {
      TagStats s;
      s.avg_subtree = GetF64(d);
      s.overlong_values = GetU64(d + 8);
      if (!std::isfinite(s.avg_subtree) || s.avg_subtree < 0) {
        return Corrupt("non-finite tag statistics");
      }
      stats.push_back(s);
    }
  }

  // Value entries: in-bounds pool slices, sorted by (tag, bytes, node).
  const char* pool = p + offs[kBtsiValuePool];
  const uint64_t pool_bytes = sizes[kBtsiValuePool];
  std::vector<StructuralIndex::ValueEntry> values;
  {
    const char* d = p + offs[kBtsiValueEntries];
    values.reserve(static_cast<size_t>(num_values));
    for (uint64_t i = 0; i < num_values; ++i, d += 16) {
      StructuralIndex::ValueEntry e;
      e.tag = GetU32(d);
      e.node = GetU32(d + 4);
      e.offset = GetU32(d + 8);
      e.len = GetU32(d + 12);
      if (e.tag >= num_tags || e.node >= num_nodes) {
        return Corrupt("value entry out of range");
      }
      if (static_cast<uint64_t>(e.offset) + e.len > pool_bytes) {
        return Corrupt("value entry outside the pool");
      }
      if (i > 0) {
        const StructuralIndex::ValueEntry& prev = values.back();
        std::string_view pv(pool + prev.offset, prev.len);
        std::string_view ev(pool + e.offset, e.len);
        bool ordered =
            prev.tag < e.tag ||
            (prev.tag == e.tag &&
             (pv < ev || (pv == ev && prev.node < e.node)));
        if (!ordered) return Corrupt("value entries not sorted");
      }
      values.push_back(e);
    }
  }

  // Numeric entries: finite keys, sorted by (tag, key, node).
  std::vector<StructuralIndex::NumericEntry> numerics;
  {
    const char* d = p + offs[kBtsiNumericEntries];
    numerics.reserve(static_cast<size_t>(num_numerics));
    for (uint64_t i = 0; i < num_numerics; ++i, d += 16) {
      StructuralIndex::NumericEntry e;
      e.tag = GetU32(d);
      e.node = GetU32(d + 4);
      e.key = GetF64(d + 8);
      if (e.tag >= num_tags || e.node >= num_nodes) {
        return Corrupt("numeric entry out of range");
      }
      if (std::isnan(e.key)) return Corrupt("NaN numeric key");
      if (i > 0) {
        const StructuralIndex::NumericEntry& prev = numerics.back();
        bool ordered =
            prev.tag < e.tag ||
            (prev.tag == e.tag &&
             (prev.key < e.key ||
              (!(e.key < prev.key) && prev.node < e.node)));
        if (!ordered) return Corrupt("numeric entries not sorted");
      }
      numerics.push_back(e);
    }
  }

  return StructuralIndex::FromParts(
      generation, num_nodes, num_elements, std::move(tag_names),
      std::move(guide), std::move(posting_offsets), std::move(postings),
      std::move(stats), std::move(values), std::move(numerics),
      std::string(pool, static_cast<size_t>(pool_bytes)));
}

Result<std::unique_ptr<StructuralIndex>> LoadBtsi(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed for '" + path + "'");
  }
  return DecodeBtsi(buf.str());
}

std::string BtsiSidecarPath(const std::string& corpus_path) {
  return corpus_path + ".btsi";
}

}  // namespace index
}  // namespace blossomtree
