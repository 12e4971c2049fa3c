#ifndef CDBS_ENGINE_CONCURRENT_DB_H_
#define CDBS_ENGINE_CONCURRENT_DB_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "concurrency/bounded_queue.h"
#include "concurrency/snapshot.h"
#include "concurrency/thread_pool.h"
#include "engine/xml_db.h"
#include "obs/metrics.h"
#include "query/tag_index.h"
#include "repl/replication.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

/// \file
/// A multi-client front-end over `XmlDb`: snapshot-isolated reads from any
/// thread, writes serialized through a single writer thread that
/// group-commits them (one store fsync per batch of insertions). See
/// docs/CONCURRENCY.md for the architecture and its invariants.
///
/// Why this works so well for CDBS specifically: insertions never relabel
/// existing nodes (Theorem 3.1), so consecutive snapshots differ only by
/// the inserted ids — readers on an old snapshot still see an internally
/// consistent document, and the writer's in-memory apply is cheap enough
/// that the fsync dominates, which is exactly what group commit amortizes.

namespace cdbs::engine {

/// Configuration for the concurrent front-end.
struct ConcurrentXmlDbOptions {
  /// Options for the underlying single-threaded database.
  XmlDbOptions db;
  /// Worker threads executing submitted (asynchronous) read requests.
  size_t read_workers = 4;
  /// When set, submitted reads run on this pool instead of a private one
  /// (`read_workers` is then ignored). The sharded front-end (src/shard/)
  /// passes one pool to every shard so read concurrency does not multiply
  /// threads by the shard count. The pool must outlive the database and is
  /// NOT shut down by ConcurrentXmlDb::Shutdown — the owner does that,
  /// after shutting down every database that uses it.
  std::shared_ptr<concurrency::ThreadPool> shared_readers;
  /// Capacity of the write submission queue. Blocking submits stall when
  /// it fills (backpressure); TrySubmit* bounce instead (admission
  /// control).
  size_t write_queue_capacity = 256;
  /// Most write requests folded into one group commit (one store fsync).
  size_t group_commit_limit = 64;
  /// When non-empty, every committed group is also appended — post-fsync —
  /// to a repl::ReplicationLog at this path, and the database exposes a
  /// monotonically increasing commit LSN plus a commit sink for the
  /// replication sender (docs/REPLICATION.md). Empty = replication off.
  std::string replication_log_path;
  /// Retention bound for the replication log (see ReplicationLogOptions).
  uint64_t replication_retain_bytes = 4ull << 20;
  /// Circuit breaker on the persist path (docs/ROBUSTNESS.md): after this
  /// many consecutive persistent persist failures (kResourceExhausted /
  /// kIoError — see FailureClassOf) the writer poisons itself and
  /// fast-fails every subsequent write with kUnavailable, without touching
  /// the database, until Reopen() succeeds. A corruption-class failure
  /// poisons immediately. 0 disables poisoning (failures keep rolling back
  /// one group at a time, the pre-supervision behavior).
  int poison_after_persist_failures = 3;
};

/// A consistent (document, LSN) pair captured between group commits — what
/// a snapshot bootstrap ships to a follower too far behind the log. The
/// spec carries the id-space history (not just the serialized tree) so the
/// follower rebuilds a bit-identical id space and the logical op stream
/// keeps applying cleanly after the bootstrap (see XmlDb::OpenFromBootstrap).
struct BootstrapImage {
  BootstrapSpec spec;
  uint64_t lsn = 0;
  uint64_t epoch = 0;
};

/// A concurrently-servable XML database.
///
/// Thread contract:
///  - `Query`/`Count`/`CountPerScope`/`TagOf`/`Stats`/`snapshot_epoch` —
///    any thread, any time; each pins the latest published snapshot.
///  - `SubmitQuery`/`SubmitCount` — any thread; run on the read worker
///    pool.
///  - `Submit*`/`TrySubmit*` writes — any thread; applied by the single
///    writer thread in submission order, durably group-committed before
///    their futures resolve.
///  - After `Shutdown` (or destruction) all submissions fail cleanly.
class ConcurrentXmlDb {
 public:
  static Result<std::unique_ptr<ConcurrentXmlDb>> Open(
      xml::Document doc, const ConcurrentXmlDbOptions& options);
  static Result<std::unique_ptr<ConcurrentXmlDb>> OpenFromXml(
      std::string_view xml, const ConcurrentXmlDbOptions& options);

  /// Rebuilds a replica database from a bootstrap spec captured on the
  /// primary, preserving the primary's node-id space exactly (see
  /// XmlDb::OpenFromBootstrap). Corruption when the spec is inconsistent.
  static Result<std::unique_ptr<ConcurrentXmlDb>> OpenFromImage(
      const BootstrapSpec& spec, const ConcurrentXmlDbOptions& options);

  ~ConcurrentXmlDb();

  ConcurrentXmlDb(const ConcurrentXmlDb&) = delete;
  ConcurrentXmlDb& operator=(const ConcurrentXmlDb&) = delete;

  // --- read path: snapshot-isolated, lock-free against the writer ---

  /// A pinned snapshot handle. While alive it blocks reclamation of its
  /// version, so hold it only for the duration of one logical read.
  using Snapshot =
      concurrency::SnapshotManager<query::LabeledDocument>::Pin;

  /// Pins the latest published snapshot for a multi-operation read (e.g.
  /// evaluating a query, then order-checking its results against the SAME
  /// version's labels).
  Snapshot PinSnapshot() const { return snapshots_.Acquire(); }

  /// Evaluates an XPath-subset query against the latest published snapshot,
  /// with `scope`'s subtree as the whole document (query/evaluator.h); the
  /// default scope is the root element.
  Result<std::vector<NodeId>> Query(const std::string& xpath,
                                    NodeId scope = 0) const;

  /// Number of matches of `xpath` in the latest snapshot, counted without
  /// building the match list where the query allows.
  Result<uint64_t> Count(const std::string& xpath) const;

  /// Match counts of `xpath` inside each of `scopes` (index-aligned), all
  /// on one pinned snapshot. Scopes in document order, none inside
  /// another, share the evaluator's step cursors.
  Result<std::vector<uint64_t>> CountPerScope(
      const std::string& xpath, const std::vector<NodeId>& scopes) const;

  /// Tag of `node` in the latest snapshot (by value: the snapshot may be
  /// reclaimed after this returns).
  std::string TagOf(NodeId node) const;

  /// Runs `Query(xpath, scope)` on the read worker pool. A request whose
  /// `deadline` expires while still queued resolves with kDeadlineExceeded
  /// without evaluating (expired work is the cheapest work to shed).
  std::future<Result<std::vector<NodeId>>> SubmitQuery(
      std::string xpath, util::Deadline deadline = {}, NodeId scope = 0);

  /// Runs `CountPerScope(xpath, scopes)` on the read worker pool, with the
  /// same deadline handling as SubmitQuery.
  std::future<Result<std::vector<uint64_t>>> SubmitCount(
      std::string xpath, std::vector<NodeId> scopes,
      util::Deadline deadline = {});

  // --- write path: serialized, group-committed ---

  /// Enqueues an insertion; blocks while the submission queue is full. The
  /// future resolves with the new node's id once the insertion is durable
  /// (group-committed) and visible to new snapshots.
  ///
  /// Deadline semantics (all Submit*/TrySubmit* writes): a request whose
  /// deadline has already passed — or passes while blocked on a full
  /// queue, or while waiting in the queue — fails with kDeadlineExceeded
  /// *before* touching the database or its WAL.
  std::future<Result<NodeId>> SubmitInsertBefore(NodeId target,
                                                 std::string tag,
                                                 util::Deadline deadline = {});
  std::future<Result<NodeId>> SubmitInsertAfter(NodeId target,
                                                std::string tag,
                                                util::Deadline deadline = {});

  /// Non-blocking admission-controlled variant: fails the future
  /// immediately with kRetryAfter when the queue is full. `accepted`, when
  /// non-null, reports whether the request was admitted.
  std::future<Result<NodeId>> TrySubmitInsertAfter(
      NodeId target, std::string tag, bool* accepted = nullptr,
      util::Deadline deadline = {});
  std::future<Result<NodeId>> TrySubmitInsertBefore(
      NodeId target, std::string tag, bool* accepted = nullptr,
      util::Deadline deadline = {});

  /// Enqueues a subtree deletion; resolves with the number of nodes
  /// removed.
  std::future<Result<uint64_t>> SubmitDelete(NodeId target,
                                             util::Deadline deadline = {});

  /// Non-blocking admission-controlled deletion.
  std::future<Result<uint64_t>> TrySubmitDelete(NodeId target,
                                                bool* accepted = nullptr,
                                                util::Deadline deadline = {});

  /// Convenience synchronous wrappers (submit + wait).
  Result<NodeId> InsertElementBefore(NodeId target, const std::string& tag);
  Result<NodeId> InsertElementAfter(NodeId target, const std::string& tag);
  Result<uint64_t> DeleteElement(NodeId target);

  // --- lifecycle & introspection ---

  /// Stops accepting requests, drains both pipelines, joins all threads.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  // --- supervision (docs/ROBUSTNESS.md) ---

  /// True while the writer is poisoned: a persistent persist failure
  /// tripped the circuit breaker and every write now fast-fails with
  /// kUnavailable. Reads stay live on the last published snapshot.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Consecutive failed group persists (reset by a successful persist or
  /// Reopen). The breaker trips when this reaches
  /// `poison_after_persist_failures`.
  uint64_t consecutive_persist_failures() const {
    return consecutive_persist_failures_.load(std::memory_order_acquire);
  }

  /// The most recent persist failure (OK if none since open/reopen).
  Status last_persist_error() const;

  /// Recovery entry point, called by the shard supervisor: runs a store
  /// reopen through the write pipeline, so the writer thread itself — the
  /// only mutator of the underlying database — closes the store and
  /// reopens it through the WAL crash-recovery path (XmlDb::ReopenStore),
  /// then clears the poisoned state on success. Safe to call while
  /// poisoned: queued writes fast-fail around it. Blocks until processed.
  Status Reopen(util::Deadline deadline = {});

  /// Epoch of the latest published snapshot (bumps once per group commit).
  uint64_t snapshot_epoch() const { return snapshots_.epoch(); }

  /// Snapshot versions currently alive (current + pinned-retired).
  size_t live_snapshots() const { return snapshots_.live_versions(); }

  /// Write submission queue occupancy / capacity (advisory, racy).
  size_t write_queue_depth() const { return write_queue_.size(); }
  size_t write_queue_capacity() const { return write_queue_.capacity(); }

  /// Server-computed backoff hint for a shed write, in milliseconds:
  /// roughly how long the current queue takes to drain, estimated from the
  /// queue depth and the mean commit latency observed so far. Clamped to
  /// [1, 2000]; the network front-end returns it with kRetryAfter
  /// responses so clients back off proportionally to actual load.
  uint64_t RetryAfterHintMillis() const;

  // --- replication (primary side; see docs/REPLICATION.md) ---

  /// The replication log, or nullptr when `replication_log_path` was empty.
  repl::ReplicationLog* replication_log() { return repl_log_.get(); }

  /// LSN of the most recently committed-and-logged group (0 = none, or
  /// replication off). Monotonic; safe from any thread.
  uint64_t commit_lsn() const {
    return commit_lsn_.load(std::memory_order_acquire);
  }

  /// Installs the post-commit sink the writer invokes — after the group's
  /// fsync and its replication-log append, before resolving any client
  /// promise — with each committed record. The sender uses it to fan
  /// records out to follower buffers (and, in sync mode, to block the
  /// commit until followers acknowledge). Pass nullptr to detach.
  void SetCommitSink(std::function<void(const repl::ReplRecord&)> sink);

  /// Captures a consistent (document XML, commit LSN) pair by running a
  /// snapshot request through the write pipeline: the writer serializes
  /// the document at a group boundary, so the image reflects exactly the
  /// ops in LSNs [1, image.lsn] — the contract a bootstrapping follower
  /// relies on. Blocks while the submission queue is full.
  Result<BootstrapImage> CaptureBootstrap(util::Deadline deadline = {});

  /// Point-in-time stats assembled from the latest snapshot plus the
  /// underlying database's counters (all atomics — safe any time).
  XmlDbStats Stats() const;

  /// The underlying database's registry, which also carries this layer's
  /// `engine.concurrent.*` metrics. Safe to snapshot from any thread.
  const obs::MetricRegistry& metrics() const { return db_->metrics(); }

  /// Mutable view of the same registry, for attached layers (the
  /// replication sender/follower) that register their `repl.*` metrics
  /// alongside the engine's so kIntrospect and the Prometheus export carry
  /// them. Registration-only: do not reset through this.
  obs::MetricRegistry& registry() { return db_->registry_; }

  /// Direct access to the underlying database. Only safe while no reads or
  /// writes are in flight — i.e. after Shutdown() — for end-of-run
  /// verification (ToXml, exhaustive consistency checks).
  XmlDb& underlying() { return *db_; }

 private:
  struct WriteRequest {
    enum class Kind { kInsertBefore, kInsertAfter, kDelete, kSnapshot,
                      kReopen };
    Kind kind = Kind::kInsertAfter;
    NodeId target = 0;
    std::string tag;
    util::Deadline deadline;  // infinite unless the caller set one
    std::promise<Result<NodeId>> insert_promise;
    std::promise<Result<uint64_t>> delete_promise;
    std::promise<Result<BootstrapImage>> snapshot_promise;  // kSnapshot
    std::promise<Status> reopen_promise;                    // kReopen
    util::Stopwatch queued;  // started at submission, for latency metrics
    /// Trace attribution (obs/trace.h): captured from the submitting
    /// thread's TraceScope so the writer can fan group spans (wal.fsync,
    /// publish, ...) back to every request they covered. 0 = untraced.
    uint64_t trace_id = 0;
    uint64_t submit_ns = 0;  ///< Tracer::NowNs() at submission (traced only)
  };

  ConcurrentXmlDb(std::unique_ptr<XmlDb> db,
                  std::unique_ptr<repl::ReplicationLog> repl_log,
                  const ConcurrentXmlDbOptions& options);

  /// Parses `xpath` and runs `eval(query, view)` on a freshly pinned
  /// snapshot, with the read path's spans and metrics.
  template <typename T, typename Eval>
  Result<T> Read(const std::string& xpath, Eval eval) const;

  /// Runs `read` on the read worker pool: the one submission path behind
  /// SubmitQuery and SubmitCount (trace hand-off, deadline shedding).
  template <typename T>
  std::future<Result<T>> SubmitRead(util::Deadline deadline,
                                    std::function<Result<T>()> read);

  std::future<Result<NodeId>> SubmitInsert(WriteRequest::Kind kind,
                                           NodeId target, std::string tag,
                                           bool blocking, bool* accepted,
                                           util::Deadline deadline);
  /// Enqueues `req` (blocking or admission-controlled), resolving its
  /// promise in place on rejection. Returns whether it was admitted.
  bool EnqueueWrite(WriteRequest req, bool blocking, bool* accepted);
  void WriterLoop();
  void ProcessGroup(std::vector<WriteRequest>* group);
  void PublishSnapshot();

  ConcurrentXmlDbOptions options_;
  std::unique_ptr<XmlDb> db_;  // mutated only by the writer thread
  std::unique_ptr<repl::ReplicationLog> repl_log_;  // null = replication off
  std::atomic<uint64_t> commit_lsn_{0};
  std::mutex sink_mu_;  // guards commit_sink_ (set at attach, read per group)
  std::function<void(const repl::ReplRecord&)> commit_sink_;
  concurrency::SnapshotManager<query::LabeledDocument> snapshots_;
  concurrency::BoundedQueue<WriteRequest> write_queue_;
  std::shared_ptr<concurrency::ThreadPool> readers_;
  bool owns_readers_ = true;  // false when options.shared_readers was set
  std::thread writer_;
  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;

  // Supervision state (docs/ROBUSTNESS.md). `poisoned_` is the circuit
  // breaker: set by the writer thread after K consecutive persistent
  // persist failures, cleared by a successful Reopen, read from any thread.
  std::atomic<bool> poisoned_{false};
  std::atomic<uint64_t> consecutive_persist_failures_{0};
  mutable std::mutex persist_error_mu_;  // guards last_persist_error_
  Status last_persist_error_;

  // engine.concurrent.* metrics, registered in the db's private registry
  // and mirrored into MetricRegistry::Default() (obs::Mirrored).
  using MirroredHistogram = obs::Mirrored<obs::Histogram>;
  using MirroredCounter = obs::Mirrored<obs::Counter>;
  using MirroredGauge = obs::Mirrored<obs::Gauge>;
  mutable MirroredHistogram read_ns_;
  MirroredHistogram write_wait_ns_;   // submission -> dequeue
  MirroredHistogram write_ns_;        // submission -> durable commit
  MirroredHistogram commit_batch_;    // requests per group commit
  mutable MirroredCounter reads_;
  MirroredCounter writes_;
  MirroredCounter rejected_;          // admission-control bounces
  MirroredCounter deadline_exceeded_;  // requests expired before running
  MirroredCounter snapshots_published_;
  MirroredHistogram publish_ns_;  // Fork + Publish wall time per snapshot
  // COW publish cost, from the writer thread's CowStats deltas: bytes and
  // chunks path-copied since the previous publish (the group's touched
  // set), and chunks shared by the Fork. These are the counters that prove
  // a publish is O(touched), not O(N) (docs/CONCURRENCY.md).
  MirroredCounter cow_bytes_copied_;
  MirroredCounter cow_chunks_copied_;
  MirroredCounter cow_chunks_shared_;
  // Writer-thread CowStats baselines at the previous publish.
  uint64_t last_cow_bytes_ = 0;
  uint64_t last_cow_chunk_copies_ = 0;
  uint64_t last_cow_chunks_shared_ = 0;
  MirroredGauge queue_depth_;
  MirroredGauge snapshots_live_;
  MirroredCounter persist_failures_;   // failed group persists (rolled back)
  MirroredCounter reopens_;            // successful store reopens
  MirroredGauge poisoned_gauge_;       // 1 while the breaker is tripped
};

}  // namespace cdbs::engine

#endif  // CDBS_ENGINE_CONCURRENT_DB_H_
