#ifndef CDBS_PERFBENCH_LADDER_H_
#define CDBS_PERFBENCH_LADDER_H_

#include <string>
#include <vector>

#include "harness.h"
#include "shard/sharded_db.h"

/// \file
/// The traced per-layer "ladder": a seeded sample of the workload's requests
/// replayed through each layer's public entry point in turn, one rung at a
/// time, every rung's call recorded as a span under the request's id. The
/// difference between two adjacent rungs is what that layer adds.
///
/// Read rungs: ParseQuery -> EvaluateQuery on the play's standalone
/// LabeledDocument -> EvaluateQuery on each shard snapshot (the direct legs)
/// -> ShardedDb::CountAll -> ShardedDb::QueryDoc -> CdbsClient::QueryDoc.
/// Write rungs: Labeling::InsertSibling* on a fork of the shard snapshot ->
/// private in-memory XmlDb -> private store-backed XmlDb ->
/// ShardedDb::SubmitInsert* -> CdbsClient::Insert*In.

namespace perfbench {

struct LadderInput {
  const Corpus* corpus = nullptr;
  cdbs::shard::ShardedDb* db = nullptr;
  const std::vector<Target>* targets = nullptr;  // the workload's targets
  uint64_t seed = 0;
  std::string workdir;  // where the private store-backed XmlDbs live
  SpanLog* spans = nullptr;
};

/// Label-level outcome of the ladder's inserts on snapshot forks.
struct ForkCounts {
  uint64_t inserts = 0;
  uint64_t relabeled = 0;
  uint64_t overflows = 0;
};

/// Runs every rung and returns the ladder's per-layer metrics. Wrong answers
/// are appended to `errors`.
std::vector<Metric> RunLadder(const LadderInput& in, ForkCounts* forks,
                              std::vector<std::string>* errors);

/// Per-layer metrics read once from existing counters after the run: the
/// shards' public metrics() registries, their stores' registries, label
/// sizes on the shard snapshots, and the process-wide serve.* / net.*
/// counters. `store_dir` is the workload's storage directory ("" when
/// in-memory); `forks` adds the ladder's fork inserts to the label counts.
std::vector<Metric> CollectCounters(cdbs::shard::ShardedDb& db,
                                    const std::string& store_dir,
                                    const ForkCounts& forks);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_LADDER_H_
