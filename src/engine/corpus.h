#ifndef CDBS_ENGINE_CORPUS_H_
#define CDBS_ENGINE_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "query/tag_index.h"
#include "shard/sharded_db.h"
#include "util/status.h"
#include "xml/tree.h"

/// \file
/// A multi-document corpus labeled under one scheme and queried as a unit —
/// the shape of the paper's datasets (D1 is 490 files, D5 is 37 plays, the
/// query workload runs over D5 replicated ten times).
///
/// Serving backend: schemes whose labelings support the COW ForkShared()
/// (containment family, Dewey) are served from a `shard::ShardedDb` — the
/// same snapshot-isolated, concurrently-writable engine the network
/// front-end uses, so corpus reads stay correct while shards commit.
/// Deep-clone schemes (Prime, OrdPath/QED prefix) keep the legacy
/// immutable per-file path: they are rejected by the sharded engine by
/// design (its per-commit publish would degrade to O(nodes)).

namespace cdbs::engine {

/// A labeled corpus. Immutable through this interface; the sharded backend
/// additionally accepts concurrent writes via `sharded()`.
class Corpus {
 public:
  /// Labels every document with `scheme_name`, freeing each once it is
  /// labeled. Honors the `CDBS_SHARD_COUNT` / `CDBS_SHARD_ROUTER` env knobs
  /// when the scheme takes the sharded path.
  static Result<Corpus> FromDocuments(std::vector<xml::Document> docs,
                                      const std::string& scheme_name);

  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  /// Number of files.
  size_t file_count() const {
    return sharded_ != nullptr ? sharded_->doc_count() : labeled_.size();
  }

  /// Total labeled nodes across files (excludes the sharded backend's
  /// synthetic per-shard roots — it equals the sum over the input files).
  uint64_t total_nodes() const;

  /// Total stored label bits across files (the Figure 5 metric). On the
  /// sharded path this includes the synthetic shard roots' labels — they
  /// are genuinely stored.
  uint64_t total_label_bits() const;

  /// Scheme used.
  const std::string& scheme_name() const { return scheme_name_; }

  /// Total matches of `xpath` across all files (the Table 3 metric).
  Result<uint64_t> Count(const std::string& xpath) const;

  /// Per-file matches of `xpath` (index-aligned with files).
  Result<std::vector<uint64_t>> CountPerFile(const std::string& xpath) const;

  /// The sharded serving backend, or nullptr on the legacy per-file path.
  shard::ShardedDb* sharded() const { return sharded_.get(); }

  /// One file's labeled view. Legacy path only (deep-clone schemes);
  /// requires `sharded() == nullptr`.
  const query::LabeledDocument& file(size_t i) const { return *labeled_[i]; }

 private:
  Corpus() = default;

  std::string scheme_name_;
  // Sharded backend (COW-fork schemes) ...
  std::unique_ptr<shard::ShardedDb> sharded_;
  // ... or the legacy per-file path (deep-clone schemes).
  std::vector<std::unique_ptr<query::LabeledDocument>> labeled_;
};

}  // namespace cdbs::engine

#endif  // CDBS_ENGINE_CORPUS_H_
