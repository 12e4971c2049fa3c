#ifndef CDBS_PERFBENCH_WORKLOADS_H_
#define CDBS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

/// \file
/// The two workloads (README.md next to this file says why each exists):
///
///  * query_corpus — in-memory ShardedDb, 4 hash-routed shards over D5x10;
///    one closed-loop client issuing CountAll over Q1, Q2, Q3, Q5, Q6.
///  * serve_mixed  — store-backed ShardedDb, 4 shards over D5, served by
///    net::Server; 4 CdbsClient connections in an open loop at 400
///    requests/s, 90% QueryDoc reads and 10% writes of the shared mix.

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // directory for stores and trace output
};

/// What one run produced: the metrics of the result line, the extra
/// human-readable breakdown, and the correctness verdict.
struct Report {
  std::vector<Metric> metrics;  // end-to-end (trace off) or per-layer (on)
  std::vector<Metric> detail;   // printed, not part of the result line
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, unrecovered sheds and wrong answers
  std::vector<std::string> errors;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false (with a message in `report->errors`)
/// when the engine could not be set up at all.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_WORKLOADS_H_
