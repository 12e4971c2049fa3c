#include "engine/corpus.h"

#include <algorithm>

#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/xpath.h"

namespace cdbs::engine {

Result<Corpus> Corpus::FromDocuments(std::vector<xml::Document> docs,
                                     const std::string& scheme_name) {
  if (docs.empty()) {
    return Status::InvalidArgument("corpus needs at least one document");
  }
  for (const xml::Document& doc : docs) {
    if (doc.root() == nullptr) {
      return Status::InvalidArgument("corpus documents must have roots");
    }
  }
  Corpus corpus;
  corpus.scheme_name_ = scheme_name;

  if (shard::SchemeSupportsSharedFork(scheme_name)) {
    shard::ShardedDbOptions options;
    options.shard.db.scheme_name = scheme_name;
    // Enough shards to parallelize commits, never more than documents to
    // place on them; CDBS_SHARD_COUNT / CDBS_SHARD_ROUTER override.
    options.shard_count = std::min<size_t>(4, docs.size());
    options.ApplyEnvKnobs();
    auto sharded = shard::ShardedDb::Open(std::move(docs), options);
    if (!sharded.ok()) return sharded.status();
    corpus.sharded_ = std::move(sharded).value();
    return corpus;
  }

  // Deep-clone schemes (Prime, the prefix family): the sharded engine
  // rejects them by design, so they keep the immutable per-file path.
  corpus.docs_ = std::move(docs);
  const auto scheme = labeling::SchemeByName(scheme_name);
  corpus.labeled_.reserve(corpus.docs_.size());
  for (const xml::Document& doc : corpus.docs_) {
    corpus.labeled_.push_back(
        std::make_unique<query::LabeledDocument>(doc, *scheme));
  }
  return corpus;
}

uint64_t Corpus::total_nodes() const {
  if (sharded_ != nullptr) return sharded_->TotalNodes();
  uint64_t total = 0;
  for (const auto& doc : labeled_) total += doc->labeling().num_nodes();
  return total;
}

uint64_t Corpus::total_label_bits() const {
  if (sharded_ != nullptr) return sharded_->TotalLabelBits();
  uint64_t total = 0;
  for (const auto& doc : labeled_) total += doc->labeling().TotalLabelBits();
  return total;
}

Result<uint64_t> Corpus::Count(const std::string& xpath) const {
  if (sharded_ != nullptr) {
    // The scatter-gather path. Corpus counts are exact aggregates, so a
    // partial gather (possible only when a shard failpoint is armed) is an
    // error here, not a partial answer.
    Result<shard::GatheredCount> gathered = sharded_->CountAll(xpath);
    if (!gathered.ok()) return gathered.status();
    if (gathered->failed_shards > 0) {
      return Status::Unavailable(
          std::to_string(gathered->failed_shards) +
          " shard(s) failed; corpus counts must be exact");
    }
    return gathered->total;
  }
  Result<std::vector<uint64_t>> per_file = CountPerFile(xpath);
  if (!per_file.ok()) return per_file.status();
  uint64_t total = 0;
  for (const uint64_t c : *per_file) total += c;
  return total;
}

Result<std::vector<uint64_t>> Corpus::CountPerFile(
    const std::string& xpath) const {
  if (sharded_ != nullptr) return sharded_->CountPerDoc(xpath);
  Result<query::Query> query = query::ParseQuery(xpath);
  if (!query.ok()) return query.status();
  std::vector<uint64_t> counts;
  counts.reserve(labeled_.size());
  for (const auto& doc : labeled_) {
    counts.push_back(query::CountQuery(*query, *doc, doc->root()));
  }
  return counts;
}

}  // namespace cdbs::engine
