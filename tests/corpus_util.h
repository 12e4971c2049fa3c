// Opens XML text as a shard::ShardedDb corpus, the one kind of object
// net::Server serves. One copy in one shard is a plain primary; its node
// ids count the synthetic shard root as 0, so the document root is node 1.

#ifndef CDBS_TESTS_CORPUS_UTIL_H_
#define CDBS_TESTS_CORPUS_UTIL_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/concurrent_db.h"
#include "shard/sharded_db.h"
#include "util/status.h"
#include "xml/parser.h"

namespace cdbs {

/// `copies` of `text` as a corpus of `shard_count` shards, each shard
/// opened with `shard_options`.
inline Result<std::unique_ptr<shard::ShardedDb>> OpenCorpus(
    std::string_view text,
    const engine::ConcurrentXmlDbOptions& shard_options = {},
    size_t copies = 1, size_t shard_count = 1) {
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < copies; ++i) {
    Result<xml::Document> doc = xml::ParseXml(text);
    if (!doc.ok()) return doc.status();
    docs.push_back(std::move(*doc));
  }
  shard::ShardedDbOptions options;
  options.shard_count = shard_count;
  options.shard = shard_options;
  return shard::ShardedDb::Open(std::move(docs), options);
}

}  // namespace cdbs

#endif  // CDBS_TESTS_CORPUS_UTIL_H_
