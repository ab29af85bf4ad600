#ifndef BLOSSOMTREE_SERVICE_CORPUS_H_
#define BLOSSOMTREE_SERVICE_CORPUS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "exec/result_cache.h"
#include "storage/disk_store.h"
#include "util/cache.h"
#include "util/status.h"
#include "xml/document.h"

namespace blossomtree {
namespace service {

/// \brief One registered document of a Corpus, handed out as
/// shared_ptr<const CorpusDocument> so an in-flight query keeps its
/// document (and the caches' generation identity) alive across a
/// concurrent Evict or Replace.
///
/// The document is immutable (xml::Document is frozen by Finish()), so
/// concurrent queries share it without locks.
class CorpusDocument {
 public:
  CorpusDocument(std::string name, std::unique_ptr<xml::Document> doc);

  /// \brief Disk-backed variant: the document is the DiskStore's zero-copy
  /// facade over its mapped BTSX v2 image (never null; Corpus::AddDisk
  /// rejects pread-mode stores, which have no facade).
  CorpusDocument(std::string name, std::unique_ptr<storage::DiskStore> disk);

  const std::string& name() const { return name_; }
  const xml::Document* doc() const {
    return disk_ != nullptr ? disk_->document() : doc_.get();
  }

  /// \brief The document's generation stamp (xml::Document::generation()):
  /// the identity every corpus-wide NoK result-cache entry is keyed by, so
  /// replacing a document under the same name silently invalidates every
  /// cached sub-result of the old build.
  uint64_t generation() const { return generation_; }

  /// \brief True when this entry serves an out-of-core BTSX v2 file rather
  /// than an in-RAM build.
  bool disk_backed() const { return disk_ != nullptr; }

  /// \brief The DiskStore behind a disk-backed entry: the block-cached
  /// node store its queries scan through, and the block-cache residency the
  /// observability plane samples (DESIGN.md §15). nullptr for in-RAM
  /// builds, which scan the document directly. Thread-safe; the store's
  /// counters are atomic and per-scan state lives in caller cursors.
  const storage::DiskStore* disk() const { return disk_.get(); }

  /// \brief Structural index over the document (DESIGN.md §14): the `.btsi`
  /// sidecar a disk-backed entry's DiskStore loaded at open, or nullptr —
  /// in-RAM builds and index-less corpus files plan with sequential scans.
  /// Immutable; shared by every concurrent query on this document.
  const index::StructuralIndex* index() const {
    return disk_ != nullptr ? disk_->index() : nullptr;
  }

 private:
  std::string name_;
  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<storage::DiskStore> disk_;
  uint64_t generation_ = 0;
};

/// \brief Corpus-wide knobs: the shared cache budgets (DESIGN.md §12).
/// Both caches default OFF, matching the engine-level knobs — a corpus
/// without caches behaves exactly like per-query engines did before PR 6.
struct CorpusOptions {
  /// Corpus-wide plan cache: query text → AST, canonical fingerprint →
  /// compiled BlossomTree. Compiled plans are pure functions of the query
  /// (not of any document), so one cache serves every document and session.
  util::CacheOptions plan_cache;
  /// Corpus-wide NoK sub-result cache. Entries are keyed by document
  /// generation, so one cache serves every document: cross-document
  /// collisions are impossible and eviction of a replaced document's
  /// entries is automatic (they just age out unused).
  util::CacheOptions result_cache;
};

/// \brief A named multi-document registry plus the corpus-scoped shared
/// state every session's queries use: the plan cache and the NoK
/// sub-result cache promoted from per-engine to corpus scope (DESIGN.md
/// §12).
///
/// Thread-safe: Add/Get/Evict may be called concurrently with running
/// queries. Get hands out shared ownership, so eviction never invalidates
/// a document a running query resolved at admission time.
class Corpus {
 public:
  explicit Corpus(CorpusOptions options = {});

  /// \brief Registers `doc` (which must be Finish()ed) under `name`,
  /// replacing any existing entry. Replacement is safe mid-traffic: old
  /// handles stay alive via shared ownership and the new build's fresh
  /// generation keys its cache entries apart from the old one's.
  Status Add(const std::string& name, std::unique_ptr<xml::Document> doc);

  /// \brief Registers the BTSX v2 file at `path` under `name` without
  /// parsing any XML: the file is opened O(open) as a DiskStore
  /// (mmap-backed with a block-cache budget; see storage/disk_store.h) and
  /// its zero-copy document facade serves queries exactly like an in-RAM
  /// build — byte-identical results, fresh generation for cache identity.
  /// `options.use_mmap` must be true: the scan-only pread mode has no
  /// document facade to run queries over.
  Status AddDisk(const std::string& name, const std::string& path,
                 storage::DiskStoreOptions options = {});

  /// \brief Resolves a name to its current document; nullptr when absent.
  std::shared_ptr<const CorpusDocument> Get(const std::string& name) const;

  /// \brief Drops `name` from the registry (running queries holding the
  /// document finish normally). Returns false when absent.
  bool Evict(const std::string& name);

  /// \brief Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const;

  /// \brief The corpus-wide plan cache; nullptr unless
  /// CorpusOptions::plan_cache.enabled.
  engine::PlanCache* plan_cache() const { return plan_cache_.get(); }

  /// \brief The corpus-wide NoK sub-result cache; nullptr unless
  /// CorpusOptions::result_cache.enabled.
  exec::NokResultCache* result_cache() const { return result_cache_.get(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CorpusDocument>> docs_;
  std::unique_ptr<engine::PlanCache> plan_cache_;
  std::unique_ptr<exec::NokResultCache> result_cache_;
};

}  // namespace service
}  // namespace blossomtree

#endif  // BLOSSOMTREE_SERVICE_CORPUS_H_
