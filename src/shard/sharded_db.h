#ifndef CDBS_SHARD_SHARDED_DB_H_
#define CDBS_SHARD_SHARDED_DB_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "concurrency/thread_pool.h"
#include "engine/concurrent_db.h"
#include "obs/metrics.h"
#include "shard/supervisor.h"
#include "util/deadline.h"
#include "util/status.h"
#include "xml/tree.h"

/// \file
/// Sharded corpus serving (docs/SHARDING.md): a `ShardedDb` owns N
/// independent `ConcurrentXmlDb` shards — each with its own writer thread,
/// its own WAL stream, and its own replication-ready LSN sequence — behind
/// one stable document→shard router. Independent shards group-commit in
/// parallel, so aggregate write throughput scales with the shard count
/// instead of being capped by one writer thread and one fsync stream.
///
/// Inside a shard, the corpus documents assigned to it are merged under one
/// synthetic root element (`kShardRootTag`). Every read is evaluated inside
/// one document's subtree, with that document's root as the root element
/// (query/evaluator.h scopes), so each document answers exactly as it would
/// alone, on every axis. Node ids are per-shard: every read and write is
/// addressed as (document, node id in its shard).
///
/// Document-scoped reads run on the caller's thread. Cross-shard reads
/// scatter-gather: `CountAll` fans the query out to every shard (all legs
/// but the last on the shared reader pool, the last on the caller's
/// thread), propagates the caller's deadline to each, and returns
/// *per-shard* results — a shard that cannot answer
/// (failpoint, deadline) contributes a kUnavailable entry instead of
/// failing the whole request.

namespace cdbs::shard {

/// Tag of the synthetic per-shard root the assigned documents hang under.
/// It lies outside every document's scope, so no read reports or counts it
/// (its id is 0).
inline constexpr const char* kShardRootTag = "cdbs-shard";

/// How documents map to shards.
enum class RouterKind : uint8_t {
  kHash = 0,      ///< splitmix64(doc index) % shard_count — stable, uniform
  kExplicit = 1,  ///< caller-provided placement vector
};

/// The persisted placement record: written to `<storage_dir>/MANIFEST` at
/// first open, authoritative on every reopen — documents never silently
/// move between shards when options change.
struct ShardManifest {
  uint32_t shard_count = 0;
  RouterKind router = RouterKind::kHash;
  std::vector<uint32_t> placement;  // document index -> shard index
};

/// Manifest (de)serialization: magic + version + CRC32C-sealed body.
std::string EncodeManifest(const ShardManifest& manifest);
Status DecodeManifest(std::string_view bytes, ShardManifest* out);

struct ShardedDbOptions {
  /// Number of independent shards (>= 1).
  size_t shard_count = 1;
  RouterKind router = RouterKind::kHash;
  /// RouterKind::kExplicit: shard of each document, index-aligned with the
  /// documents handed to Open. Must cover every document.
  std::vector<uint32_t> placement;
  /// Per-shard engine options. `db.storage_path` must be empty — per-shard
  /// store paths are derived from `storage_dir`. `shared_readers` must be
  /// empty — the ShardedDb installs its own shared pool.
  engine::ConcurrentXmlDbOptions shard;
  /// When non-empty, each shard keeps its checkpoint and log under
  /// `<storage_dir>/shard-<i>/` and the placement manifest lives at
  /// `<storage_dir>/MANIFEST`. Empty = fully in-memory.
  std::string storage_dir;
  /// Size of the reader pool shared by every shard. It runs scatter legs
  /// only; document-scoped reads run on their caller's thread.
  size_t read_workers = 4;

  /// Supervision and self-healing (docs/ROBUSTNESS.md): health state
  /// machine, circuit breakers and auto-reopen recovery per shard, plus
  /// whole-corpus read-only degradation when `storage_dir` stops being
  /// writable. `supervisor.enabled = false` restores the unsupervised
  /// behavior.
  SupervisorOptions supervisor;
};

/// Pure routing function behind RouterKind::kHash (exposed for tests):
/// stable across processes and opens for a given (doc, shard_count).
uint32_t HashShardOf(uint64_t doc, uint32_t shard_count);

/// One shard's contribution to a scatter-gathered count.
struct ShardCount {
  uint32_t shard = 0;
  StatusCode code = StatusCode::kOk;
  uint64_t count = 0;       // meaningful when code == kOk
  std::string message;      // non-OK detail
};

/// A scatter-gathered cross-shard count with partial-failure semantics.
struct GatheredCount {
  uint64_t total = 0;               // sum over OK shards
  std::vector<ShardCount> per_shard;  // one entry per shard, shard order
  size_t failed_shards = 0;
};

/// A sharded, concurrently-servable corpus.
///
/// Thread contract: everything below is safe from any thread after Open.
/// Reads pin per-shard snapshots; writes go through the owning shard's
/// writer. Shutdown (or destruction) drains every shard, then the shared
/// reader pool.
class ShardedDb {
 public:
  /// Labels and serves `docs` across shards under any registered labeling
  /// scheme; every shard publishes its group commits through the scheme's
  /// copy-on-write `ForkShared()`. With a `storage_dir`, creates each
  /// shard's checkpoint and log, then the MANIFEST. When `storage_dir`
  /// already holds a MANIFEST, recovers the corpus instead: every shard is
  /// rebuilt from its checkpoint plus log (ConcurrentXmlDb::Recover), with
  /// every acknowledged write, and `docs` may be empty. Fails with
  /// InvalidArgument when the scheme name is unknown (before anything
  /// reaches storage_dir), when an explicit placement is inconsistent, or
  /// when a manifest on disk disagrees with a non-empty `docs`.
  static Result<std::unique_ptr<ShardedDb>> Open(
      std::vector<xml::Document> docs, const ShardedDbOptions& options);

  /// A one-shard, one-document corpus rebuilt from a bootstrap image of
  /// such a corpus's shard (what a replica serves; docs/REPLICATION.md).
  /// The shard opens with `options` as given, storage path included, and
  /// is unsupervised. Corruption unless node 0 of the
  /// image is the `kShardRootTag` root and node 1, its first child, the
  /// document root.
  static Result<std::unique_ptr<ShardedDb>> OpenFromImage(
      const engine::BootstrapSpec& spec,
      engine::ConcurrentXmlDbOptions options);

  ~ShardedDb();

  ShardedDb(const ShardedDb&) = delete;
  ShardedDb& operator=(const ShardedDb&) = delete;

  /// Stops every shard's pipelines, then the shared reader pool. Idempotent.
  void Shutdown();

  size_t shard_count() const { return shards_.size(); }
  size_t doc_count() const { return doc_shard_.size(); }

  /// The shard serving `doc` (requires doc < doc_count()).
  uint32_t ShardOfDoc(uint64_t doc) const {
    return doc_shard_[static_cast<size_t>(doc)];
  }

  /// The document's root node id inside its shard (requires a valid doc).
  engine::NodeId DocRoot(uint64_t doc) const {
    return doc_root_[static_cast<size_t>(doc)];
  }

  /// Direct access to one shard's engine (tests, replication wiring, the
  /// network front-end's stats path).
  engine::ConcurrentXmlDb* shard(size_t i) { return shards_[i].get(); }

  /// The placement actually in effect (manifest-backed when persistent).
  const ShardManifest& manifest() const { return manifest_; }

  /// The supervision layer (docs/ROBUSTNESS.md); null only when
  /// `supervisor.enabled` was false. Health gates on the write path consult
  /// it; tests drive fault scenarios through it.
  ShardSupervisor* supervisor() { return supervisor_.get(); }
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  /// Per-shard health JSON (`{"read_only":...,"shards":[...]}`) for the
  /// introspect opcode; `{}` when supervision is disabled.
  std::string HealthJson() const {
    return supervisor_ == nullptr ? "{}" : supervisor_->ToJson();
  }

  // --- document-scoped reads -------------------------------------------

  /// Evaluates `xpath` within `doc` only, on the calling thread,
  /// snapshot-isolated against that shard's writer
  /// (ConcurrentXmlDb::Query: an expired `deadline` sheds with
  /// kDeadlineExceeded without evaluating). Returned ids are node ids in
  /// the document's shard.
  Result<std::vector<engine::NodeId>> QueryDoc(uint64_t doc,
                                               const std::string& xpath,
                                               util::Deadline deadline = {});

  /// Number of matches of `xpath` within `doc`.
  Result<uint64_t> CountDoc(uint64_t doc, const std::string& xpath,
                            util::Deadline deadline = {});

  /// Per-document match counts of `xpath` across the whole corpus,
  /// index-aligned with the documents. Each shard counts its documents in
  /// document order on one pinned snapshot — isolation-safe against
  /// concurrent writers.
  Result<std::vector<uint64_t>> CountPerDoc(const std::string& xpath,
                                            util::Deadline deadline = {});

  // --- cross-shard scatter-gather --------------------------------------

  /// Total matches of `xpath` across all shards: the sum of the
  /// per-document counts, each document evaluated in its own scope. The
  /// query fans out to every shard concurrently (SubmitLeg), each with the
  /// caller's deadline; a shard that cannot answer yields a
  /// per-shard kUnavailable (or kDeadlineExceeded) entry while the others
  /// still count. The call
  /// itself fails only when the query does not parse or when EVERY shard
  /// failed. Failpoint `shard.<i>.unavailable` forces shard i to fail.
  Result<GatheredCount> CountAll(const std::string& xpath,
                                 util::Deadline deadline = {});

  // --- document-scoped writes ------------------------------------------

  /// Submits `op` to the shard owning `doc` (ConcurrentXmlDb::Submit).
  /// `op.target` must lie strictly inside `doc`: the document root is
  /// rejected, since a sibling of it would escape the document and deleting
  /// it is not supported. A target in another document, or a corpus whose
  /// supervisor has tripped that shard's breaker, fails the future before
  /// it is queued.
  std::future<Result<uint64_t>> Submit(
      uint64_t doc, engine::WriteOp op,
      engine::Admission admission = engine::Admission::kBlock,
      util::Deadline deadline = {});

  /// Blocking inserts, kept as forwarders to Submit because the repository
  /// benchmark (perfbench/ladder.cc) calls them.
  std::future<Result<uint64_t>> SubmitInsertBefore(uint64_t doc,
                                                   engine::NodeId target,
                                                   std::string tag) {
    return Submit(doc, engine::WriteOp::InsertBefore(target, std::move(tag)));
  }
  /// As SubmitInsertBefore; kept for perfbench/ladder.cc too.
  std::future<Result<uint64_t>> SubmitInsertAfter(uint64_t doc,
                                                  engine::NodeId target,
                                                  std::string tag) {
    return Submit(doc, engine::WriteOp::InsertAfter(target, std::move(tag)));
  }

  /// Retry-after hint of the shard owning `doc` (for kRetryAfter bounces).
  uint64_t RetryAfterHintMillis(uint64_t doc) const;

  // --- aggregates ------------------------------------------------------

  /// Live corpus nodes across all shards, excluding the synthetic per-shard
  /// roots (so it equals the sum over the original documents).
  uint64_t TotalNodes() const;

  /// Total stored label bits across shards (synthetic roots included —
  /// they are genuinely stored).
  uint64_t TotalLabelBits() const;

 private:
  ShardedDb() = default;

  /// Registers the shard.* metrics, once `shards_` is filled.
  void RegisterMetrics();

  /// Shard `s`'s documents under one synthetic root, freeing each input;
  /// fills their `doc_root_` entries.
  engine::XmlTree IngestShard(uint32_t s, std::vector<xml::Document>* docs);

  /// Fills `doc_root_` for shard `s`'s documents from its recovered tree.
  Status FindDocRoots(uint32_t s);

  /// Routes + validates a write target; fills `shard` on success.
  /// OutOfRange for an id the shard never assigned, as XmlDb answers.
  Status ResolveWrite(uint64_t doc, engine::NodeId target, uint32_t* shard);

  /// Health gate consulted before a write is forwarded to `shard`:
  /// kUnavailable when that shard's breaker is tripped or the corpus is
  /// read-only (lock-free; OK when supervision is off).
  Status GateWrite(uint32_t shard) const {
    return supervisor_ == nullptr ? Status::OK()
                                  : supervisor_->CheckWritable(shard);
  }

  /// InvalidArgument unless `doc` names a document of the corpus.
  Status CheckDoc(uint64_t doc) const;

  /// Counts `xpath` in each document of shard `s`, in document order, on
  /// one pinned snapshot (one scatter leg). Resolves with per-document
  /// counts, index-aligned with shard_docs_[s]. Callers submit legs in
  /// shard order: the last shard's leg runs here, on the calling thread,
  /// once every other leg is queued on the reader pool.
  std::future<Result<std::vector<uint64_t>>> SubmitLeg(
      uint32_t s, const std::string& xpath, util::Deadline deadline);

  ShardManifest manifest_;
  std::vector<uint32_t> doc_shard_;            // doc -> shard
  std::vector<engine::NodeId> doc_root_;       // doc -> root id in its shard
  std::vector<std::vector<uint64_t>> shard_docs_;  // shard -> doc indices,
                                                   // document order
  std::shared_ptr<concurrency::ThreadPool> readers_;
  std::vector<std::unique_ptr<engine::ConcurrentXmlDb>> shards_;
  std::unique_ptr<ShardSupervisor> supervisor_;  // null = supervision off
  std::once_flag shutdown_once_;

  // shard.* routing/scatter metrics, plus per-shard shard.<i>.* counters,
  // in a child of MetricRegistry::Default(), which sums the live corpora.
  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  obs::Counter* routed_reads_ = nullptr;
  obs::Counter* routed_writes_ = nullptr;
  obs::Counter* scatter_queries_ = nullptr;
  obs::Counter* scatter_partial_ = nullptr;   // gathers with >=1 failed shard
  obs::Counter* scatter_shard_errors_ = nullptr;
  obs::Gauge* shard_count_gauge_ = nullptr;
  struct PerShardMetrics {
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* unavailable = nullptr;
  };
  std::vector<PerShardMetrics> per_shard_metrics_;
};

}  // namespace cdbs::shard

#endif  // CDBS_SHARD_SHARDED_DB_H_
