#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "index/btsi.h"

namespace blossomtree {
namespace storage {

namespace {

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

/// pread that retries short reads; false on EOF-before-done or error.
bool ReadFully(int fd, char* dst, size_t len, uint64_t offset) {
  while (len > 0) {
    ssize_t got = ::pread(fd, dst, len, static_cast<off_t>(offset));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    dst += got;
    len -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

constexpr size_t kPageBytes = 4096;

}  // namespace

DiskStore::Block::~Block() {
  // Best-effort residency release for evicted mmap-backed blocks: the
  // mapping is read-only and file-backed, so MADV_DONTNEED only drops the
  // resident pages — a later touch faults them back in, it never loses
  // data. Shrink to whole pages inside the block so pinned neighbors keep
  // their edge pages.
  if (advise_base != nullptr && advise_len > 0) {
    uintptr_t begin = reinterpret_cast<uintptr_t>(advise_base);
    uintptr_t end = begin + advise_len;
    uintptr_t aligned_begin = (begin + kPageBytes - 1) & ~(kPageBytes - 1);
    uintptr_t aligned_end = end & ~(kPageBytes - 1);
    if (aligned_end > aligned_begin) {
      ::madvise(reinterpret_cast<void*>(aligned_begin),
                aligned_end - aligned_begin, MADV_DONTNEED);
    }
  }
}

DiskStore::~DiskStore() {
  doc_.reset();  // The facade views the image; drop it before unmapping.
  if (mode_ == Mode::kMmap && image_ != nullptr && image_bytes_ > 0) {
    ::munmap(const_cast<char*>(image_), image_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::shared_ptr<const DiskStore::Block> DiskStore::PinBlock(
    size_t index) const {
  if (std::shared_ptr<const Block> hit = cache_->Get(index)) return hit;
  auto block = std::make_shared<Block>();
  uint64_t offset = static_cast<uint64_t>(index) * block_bytes_;
  size_t len = static_cast<size_t>(
      std::min<uint64_t>(block_bytes_, records_bytes_ - offset));
  if (mode_ == Mode::kPread) {
    block->owned.reset(new char[len]);
    if (!ReadFully(fd_, block->owned.get(), len, records_offset_ + offset)) {
      // A read error mid-scan has no status channel through Get(); serve
      // zeroed records (subtree_end 0 terminates walks) rather than UB.
      std::memset(block->owned.get(), 0, len);
    }
    block->data = block->owned.get();
  } else {
    block->data = image_ + records_offset_ + offset;
    if (mode_ == Mode::kMmap) {
      block->advise_base = block->data;
      block->advise_len = len;
    }
  }
  block->size = len;
  // Charge the block against the ResourceGuard budget; the cache evicts
  // LRU blocks round-robin until the reservation fits and drops the entry
  // entirely if it never can — our shared_ptr still pins it for the
  // caller's cursor either way, so budget < block_bytes degrades to
  // "nothing stays resident between cursor moves", not a failure.
  cache_->Put(index, block, len);
  return block;
}

std::vector<NodeRange> DiskStore::Partition(size_t max_partitions) const {
  std::vector<xml::NodeId> cuts;
  if (num_nodes_ > 0) {
    ScanCursor cursor;
    // Planning walk: pages through the store without counting reads (a
    // scan's records_read covers scan I/O only).
    cursor.count_reads = false;
    cuts.push_back(0);
    // Children of the root are the level-1 records; each one's subtree_end
    // jumps to the next. An unvalidated file can carry extents pointing
    // past the record array, so every index is bounds-checked: out-of-range
    // walks terminate (yielding the single whole-store range) instead of
    // reading out of bounds.
    xml::NodeId c = (Get(0, &cursor).subtree_end > 0 && num_nodes_ > 1)
                        ? 1
                        : xml::kNullNode;
    while (c != xml::kNullNode && c < num_nodes_) {
      cuts.push_back(c);
      xml::NodeId next = Get(c, &cursor).subtree_end + 1;
      c = (next > c && next < num_nodes_ && Get(next, &cursor).level == 1)
              ? next
              : xml::kNullNode;
    }
  }
  return GroupSubtreeCuts(cuts, num_nodes_, max_partitions);
}

Status DiskStore::LoadPreadHeader(const std::string& path) {
  char header[kBtsx2HeaderBytes];
  if (!ReadFully(fd_, header, sizeof header, 0)) {
    return Status::IOError("BTSX2: short header read from '" + path + "'");
  }
  if (std::memcmp(header, kBtsx2Magic, sizeof kBtsx2Magic) != 0) {
    return Status::InvalidArgument("BTSX2: bad magic in '" + path + "'");
  }
  if (GetU32(header + 8) != kBtsx2Version) {
    return Status::InvalidArgument("BTSX2: unsupported version");
  }
  if (GetU32(header + 12) != kBtsx2EndianProbe) {
    return Status::InvalidArgument("BTSX2: endianness probe mismatch");
  }
  on_disk_generation_ = GetU64(header + 16);
  uint64_t num_nodes = GetU64(header + 24);
  records_offset_ = GetU64(header + 88 + kSecRecords * 16);
  records_bytes_ = GetU64(header + 88 + kSecRecords * 16 + 8);
  if (num_nodes >= static_cast<uint32_t>(-1) ||
      records_bytes_ != num_nodes * sizeof(NodeRecord) ||
      records_offset_ < kBtsx2HeaderBytes ||
      records_offset_ > file_bytes_ ||
      records_bytes_ > file_bytes_ - records_offset_) {
    return Status::InvalidArgument("BTSX2: record section out of bounds");
  }
  num_nodes_ = static_cast<size_t>(num_nodes);
  // No document facade in pread mode; the scan API keys off the on-disk
  // stamp (see generation()).
  generation_ = on_disk_generation_;
  return Status::OK();
}

Status DiskStore::LoadImage(const std::string& path,
                            const DiskStoreOptions& options) {
  if (file_bytes_ < kBtsx2HeaderBytes) {
    return Status::InvalidArgument("BTSX2: '" + path +
                                   "' is smaller than the header");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_SHARED, fd_, 0);
  if (map != MAP_FAILED) {
    mode_ = Mode::kMmap;
    image_ = static_cast<const char*>(map);
    image_bytes_ = file_bytes_;
  } else {
    // No mapping available (exotic filesystems, sandboxes): fall back to an
    // in-core image — everything still works, just not out-of-core.
    mode_ = Mode::kHeap;
    heap_image_.reset(new char[file_bytes_]);
    if (!ReadFully(fd_, heap_image_.get(), file_bytes_, 0)) {
      return Status::IOError("BTSX2: short read from '" + path + "'");
    }
    image_ = heap_image_.get();
    ::close(fd_);
    fd_ = -1;
  }

  Result<Btsx2View> view = MapBtsx2(std::string_view(image_, file_bytes_));
  BT_RETURN_NOT_OK(view.status());
  view_ = view.MoveValue();
  if (options.full_validation) {
    BT_RETURN_NOT_OK(ValidateBtsx2Deep(view_));
  }
  records_offset_ = view_.records_offset;
  records_bytes_ = view_.records_bytes;
  num_nodes_ = static_cast<size_t>(view_.num_nodes);
  on_disk_generation_ = view_.generation;

  doc_ = std::make_unique<xml::Document>();
  BT_RETURN_NOT_OK(doc_->AdoptExternal(view_.ToLayout()));
  generation_ = doc_->generation();
  return Status::OK();
}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& path,
                                                   DiskStoreOptions options) {
  auto store = std::unique_ptr<DiskStore>(new DiskStore());

  // Blocks are whole pages (and therefore whole records): madvise ranges
  // stay page-aligned and no record straddles a block boundary.
  size_t block = options.block_bytes;
  block = std::max<size_t>(block, kPageBytes);
  block = (block + kPageBytes - 1) & ~(kPageBytes - 1);
  store->block_bytes_ = block;
  store->nodes_per_block_ = block / sizeof(NodeRecord);
  store->budget_bytes_ = std::max<uint64_t>(options.cache_budget_bytes, 1);
  store->cache_ = std::make_unique<util::ShardedLruCache<uint64_t, Block>>(
      store->budget_bytes_, options.cache_shards);

  store->fd_ = ::open(path.c_str(), O_RDONLY);
  if (store->fd_ < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(store->fd_, &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  store->file_bytes_ = static_cast<uint64_t>(st.st_size);

  if (options.use_mmap) {
    BT_RETURN_NOT_OK(store->LoadImage(path, options));
  } else {
    store->mode_ = Mode::kPread;
    if (store->file_bytes_ < kBtsx2HeaderBytes) {
      return Status::InvalidArgument("BTSX2: '" + path +
                                     "' is smaller than the header");
    }
    BT_RETURN_NOT_OK(store->LoadPreadHeader(path));
  }
  store->num_blocks_ =
      static_cast<size_t>((store->records_bytes_ + block - 1) / block);

  // The `.btsi` sidecar rides along in the mapped modes. Best-effort on
  // open: a missing, stale (generation mismatch after re-ingest), or
  // corrupt sidecar leaves index() null — plans fall back to scans.
  if (options.load_index && store->doc_ != nullptr) {
    auto loaded = index::LoadBtsi(index::BtsiSidecarPath(path));
    if (loaded.ok() &&
        (*loaded)->generation() == store->on_disk_generation_ &&
        (*loaded)->Matches(*store->doc_)) {
      store->index_ = std::move(*loaded);
    }
  }
  return store;
}

}  // namespace storage
}  // namespace blossomtree
