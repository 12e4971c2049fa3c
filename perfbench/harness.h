#ifndef CDBS_PERFBENCH_HARNESS_H_
#define CDBS_PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/xml_db.h"
#include "labeling/label.h"
#include "obs/metrics.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "shard/sharded_db.h"
#include "util/random.h"
#include "xml/tree.h"

/// \file
/// Shared pieces of the repository benchmark (see README.md next to this
/// file): exact quantiles over the benchmark's own samples, in-memory spans,
/// the D5 corpus with its standalone reference counts, and the seeded write
/// mix every write workload and the ladder draw from.

namespace perfbench {

using cdbs::engine::NodeId;

/// Monotonic clock in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of this process, every thread, user plus system, in
/// nanoseconds. A guest kernel with paravirtual steal accounting leaves out
/// time its vCPUs were stolen by the host, so this does not grow with CPU
/// steal the way wall time does.
inline uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// CPU ticks of this machine from /proc/stat, summed over its CPUs: those
/// the hypervisor stole, and all of them. Both 0 when it cannot be read.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Per-operation samples with exact quantiles (linear interpolation between
/// the two closest ranks of the sorted samples, as numpy's default does).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Quantile(double q) const;  ///< 0 when empty
  double Mean() const;              ///< 0 when empty

 private:
  std::vector<double> values_;
};

/// One reported number: name, value, unit, and how many samples it rests on.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// One timed call made by the benchmark into a layer's public entry point.
/// Spans of one request share `request`; `parent` names the request's root
/// span (empty for a root).
struct Span {
  uint64_t request = 0;
  std::string name;
  std::string parent;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// In-memory span store. Threads record into their own vector and merge it
/// once at the end, so recording never takes a lock on the hot path.
class SpanLog {
 public:
  void Merge(std::vector<Span> spans);
  /// Writes every span as Chrome trace_event JSON ("X" events; args carry
  /// the request id and parent). Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The five Table 3 queries the sharded workloads use. Q4
/// (`//act[2]/following::speaker`) is left out: inside a merged shard
/// document `following::` crosses play boundaries, so its sharded count
/// differs from the per-play reference.
const std::vector<std::string>& WorkloadQueries();
/// Short names of WorkloadQueries(), index-aligned ("q1", "q2", ...).
const std::vector<std::string>& WorkloadQueryNames();

/// The generated D5 collection (37 plays, 179,689 elements) plus the
/// reference answer of every workload query on every play, evaluated on a
/// standalone LabeledDocument per play.
struct Corpus {
  std::vector<cdbs::xml::Document> plays;
  std::vector<std::unique_ptr<cdbs::query::LabeledDocument>> labeled;
  std::vector<cdbs::query::Query> parsed;    // WorkloadQueries(), parsed
  std::vector<std::vector<uint64_t>> ref;    // ref[play][query]
  std::vector<uint64_t> ref_total;           // per query, summed over plays
  std::vector<std::vector<NodeId>> lines;    // play-local ids of `line`s
};

/// Builds the corpus and its reference (deterministic; no seed).
std::unique_ptr<Corpus> LoadCorpus();

/// A write target: a `line` element of one document, addressed the way the
/// sharded API and the wire protocol address it.
struct Target {
  uint64_t doc = 0;
  NodeId id = 0;  // node id inside the document's shard
};

/// `count` distinct seeded `line` targets across every document of `db`,
/// picked at setup. Initial shard ids are the play-local document-order ids
/// offset by the document's root id.
std::vector<Target> PickLineTargets(const Corpus& corpus,
                                    const cdbs::shard::ShardedDb& db,
                                    size_t count, cdbs::util::Random* rng);

/// One write of the shared mix: 80% inserts of a `w` element before or
/// after a random target, 20% deletes of one of the writer's own earlier
/// `w` elements (an insert when it has none yet).
struct WriteOp {
  enum class Kind { kInsertBefore, kInsertAfter, kDelete };
  Kind kind = Kind::kInsertAfter;
  Target target;         // the line (inserts) or the own `w` (deletes)
  size_t slot = 0;       // inserts: index of the line in the writer's targets
  size_t own_index = 0;  // deletes: position in the writer's own list
};

/// Per-writer state of the mix: its RNG, its own slice of the targets, its
/// acknowledged `w` elements, and per-document acknowledged insert/delete
/// counts for the end-of-run check.
///
/// A target holds at most kMaxLivePerTarget of the writer's live `w`
/// elements; when every target is full, the next write is a delete. Each
/// insert into one gap lengthens the new codes by up to two bits, and V-CDBS
/// re-encodes everything once a code outgrows its length field (Example
/// 6.1). The cap only makes that unlikely within a run: codes still grow
/// under insert/delete churn next to one target, since a new insert lands
/// between the line and the newest `w`. CheckWrites' `relabeled_total == 0`
/// check catches a run where it happens anyway.
class Writer {
 public:
  static constexpr uint8_t kMaxLivePerTarget = 2;

  Writer(uint64_t seed, size_t docs, std::vector<Target> targets);
  WriteOp Next();
  void AckInsert(const WriteOp& op, NodeId id);
  void AckDelete(const WriteOp& op);
  const std::vector<uint64_t>& inserts() const { return inserts_; }
  const std::vector<uint64_t>& deletes() const { return deletes_; }
  cdbs::util::Random& rng() { return rng_; }

 private:
  struct Own {
    Target w;
    size_t slot = 0;  // the target it was inserted next to
  };

  cdbs::util::Random rng_;
  std::vector<Target> targets_;
  std::vector<uint8_t> live_;  // live own `w` per target
  size_t full_ = 0;            // targets at kMaxLivePerTarget
  std::vector<Own> own_;
  std::vector<uint64_t> inserts_;
  std::vector<uint64_t> deletes_;
};

/// Checks the write invariants after a write workload: `//w` in each
/// document equals acknowledged inserts minus acknowledged deletes, and no
/// shard relabeled a single stored label (Theorem 3.1). Appends one line per
/// violation to `errors`; returns the number of violations.
uint64_t CheckWrites(cdbs::shard::ShardedDb& db,
                     const std::vector<Writer>& writers,
                     std::vector<std::string>* errors);

/// Total bytes of the regular files under `dir` (0 when it does not exist).
uint64_t DirBytes(const std::string& dir);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Counter value / histogram sum and count of `name` in `reg` (0 if absent).
struct RegistryValue {
  uint64_t counter = 0;
  uint64_t sum = 0;
  uint64_t count = 0;
};
RegistryValue ReadMetric(const cdbs::obs::MetricRegistry& reg,
                         const std::string& name);

/// The median of a handful of values (setup repetitions).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_HARNESS_H_
