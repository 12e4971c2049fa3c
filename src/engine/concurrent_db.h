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
#include <utility>
#include <variant>
#include <vector>

#include "concurrency/bounded_queue.h"
#include "concurrency/snapshot.h"
#include "engine/xml_db.h"
#include "obs/metrics.h"
#include "query/tag_index.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

/// \file
/// A multi-client front-end over `XmlDb`: snapshot-isolated reads from any
/// thread, writes serialized through a single writer thread that
/// group-commits them (one log append + fsync per batch of writes). See
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
  /// Capacity of the write submission queue. A full queue stalls
  /// Admission::kBlock submits (backpressure) and bounces kShed ones
  /// (admission control).
  size_t write_queue_capacity = 256;
  /// Most write requests folded into one group commit (one log fsync).
  size_t group_commit_limit = 64;
  /// Retention bound for a stored database's log: once it passes this many
  /// bytes, the writer checkpoints at a group boundary and empties it.
  /// Followers below the new floor re-bootstrap (docs/REPLICATION.md).
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

/// What a write submission does when the write queue is full.
enum class Admission {
  kBlock,  ///< wait for room (backpressure), up to the request's deadline
  kShed,   ///< fail at once with kRetryAfter (admission control)
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
///    any thread, any time, on that thread; each pins the latest published
///    snapshot.
///  - `Submit` writes — any thread; applied by the single writer thread in
///    submission order, durably group-committed before their futures
///    resolve.
///  - After `Shutdown` (or destruction) all submissions fail cleanly.
class ConcurrentXmlDb {
 public:
  /// Labels `tree` and serves it (see XmlDb::Open).
  static Result<std::unique_ptr<ConcurrentXmlDb>> Open(
      XmlTree tree, const ConcurrentXmlDbOptions& options);
  static Result<std::unique_ptr<ConcurrentXmlDb>> Open(
      xml::Document doc, const ConcurrentXmlDbOptions& options);
  static Result<std::unique_ptr<ConcurrentXmlDb>> OpenFromXml(
      std::string_view xml, const ConcurrentXmlDbOptions& options);

  /// Rebuilds a replica database from a bootstrap spec captured on the
  /// primary, preserving the primary's node-id space exactly (see
  /// XmlDb::OpenFromBootstrap). Corruption when the spec is inconsistent.
  static Result<std::unique_ptr<ConcurrentXmlDb>> OpenFromImage(
      const BootstrapSpec& spec, const ConcurrentXmlDbOptions& options);

  /// Serves the durable database at `options.db.storage_path` after a
  /// restart (see XmlDb::Recover); `commit_lsn()` resumes at the log's
  /// last LSN.
  static Result<std::unique_ptr<ConcurrentXmlDb>> Recover(
      const ConcurrentXmlDbOptions& options);

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
  /// default scope is the root element. Runs on the calling thread; a
  /// request whose `deadline` has expired is shed with kDeadlineExceeded
  /// without evaluating.
  Result<std::vector<NodeId>> Query(const std::string& xpath,
                                    NodeId scope = 0,
                                    util::Deadline deadline = {}) const;

  /// Number of matches of `xpath` in the latest snapshot, counted without
  /// building the match list where the query allows.
  Result<uint64_t> Count(const std::string& xpath) const;

  /// Match counts of `xpath` inside each of `scopes` (index-aligned), all
  /// on one pinned snapshot. The scopes must be in document order, none
  /// inside another (query::CountPerScope's precondition): they share the
  /// evaluator's step cursors. Deadline handling as in Query.
  Result<std::vector<uint64_t>> CountPerScope(
      const std::string& xpath, const std::vector<NodeId>& scopes,
      util::Deadline deadline = {}) const;

  /// Tag of `node` in the latest snapshot (by value: the snapshot may be
  /// reclaimed after this returns).
  std::string TagOf(NodeId node) const;

  // --- write path: serialized, group-committed ---

  /// Enqueues `op` for the single writer. The future resolves once the
  /// write is durable (group-committed) and visible to new snapshots, with
  /// the new node's id for an insert or the number of nodes removed for a
  /// delete — the value repl::ReplOp::new_id and the wire response's
  /// `id_or_count` carry.
  ///
  /// A full queue blocks the caller (kBlock, backpressure) or fails the
  /// future at once with kRetryAfter (kShed, admission control). A request
  /// whose deadline has already passed — or passes while blocked on a full
  /// queue, or while waiting in the queue — fails with kDeadlineExceeded
  /// *before* touching the database or its WAL. After Shutdown every
  /// submission fails with kIoError.
  std::future<Result<uint64_t>> Submit(WriteOp op,
                                       Admission admission = Admission::kBlock,
                                       util::Deadline deadline = {});

  // --- lifecycle & introspection ---

  /// Stops accepting writes, drains the write pipeline, joins the writer.
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

  /// Installs the callback the writer thread invokes each time it poisons,
  /// right after `poisoned()` turns true. It runs on the writer, so it may
  /// only signal: blocking on this database (a write, a Reopen) from it
  /// deadlocks. Pass nullptr to detach; that waits out a call in progress,
  /// so the sink's owner may be destroyed once it returns.
  void SetPoisonSink(std::function<void()> sink);

  /// Recovery entry point, called by the shard supervisor: runs through
  /// the write pipeline, so the writer thread itself — the only appender —
  /// opens a fresh log handle, truncates any torn tail, cuts records that
  /// were never acknowledged and checks the log ends at `commit_lsn()`
  /// (repl::ReplicationLog::Reopen), then clears the poisoned state on
  /// success. Memory needs no repair: a failed group already restored it.
  /// Safe to call while poisoned: queued writes fast-fail around it.
  /// Blocks until processed.
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

  /// The durability log the sender streams from, or nullptr for an
  /// in-memory database (which cannot feed followers).
  repl::ReplicationLog* replication_log() { return db_->log_.get(); }

  /// LSN of the most recently committed-and-logged group (0 = none, or
  /// in-memory). Monotonic; safe from any thread.
  uint64_t commit_lsn() const {
    return commit_lsn_.load(std::memory_order_acquire);
  }

  /// Installs the post-commit sink the writer invokes — after the group's
  /// log append + fsync, before resolving any client promise — with each
  /// committed record. The sender uses it to fan
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
  using WritePromise = std::promise<Result<uint64_t>>;
  using SnapshotPromise = std::promise<Result<BootstrapImage>>;
  using ReopenPromise = std::promise<Status>;

  struct WriteRequest {
    /// What the writer does with the request, told by the one promise it
    /// holds: apply `op`, capture a bootstrap image, or reopen the store
    /// (the last two at the group boundary).
    std::variant<WritePromise, SnapshotPromise, ReopenPromise> promise;
    WriteOp op;               // WritePromise requests only
    util::Deadline deadline;  // infinite unless the caller set one
    util::Stopwatch queued;  // started at submission, for latency metrics
    /// Trace attribution (obs/trace.h): captured from the submitting
    /// thread's TraceScope so the writer can fan group spans (wal.fsync,
    /// publish, ...) back to every request they covered. 0 = untraced.
    uint64_t trace_id = 0;
    uint64_t submit_ns = 0;  ///< Tracer::NowNs() at submission (traced only)
  };

  ConcurrentXmlDb(std::unique_ptr<XmlDb> db,
                  const ConcurrentXmlDbOptions& options);

  /// Every Open* funnels here: serves `db`.
  static Result<std::unique_ptr<ConcurrentXmlDb>> Wrap(
      Result<std::unique_ptr<XmlDb>> db, const ConcurrentXmlDbOptions& options);

  /// The one read routine, on whichever thread serves the read: sheds an
  /// expired `deadline`, runs the `engine.concurrent.read.delay` failpoint,
  /// re-checks the deadline, then parses `xpath` and runs
  /// `eval(query, view)` on a freshly pinned snapshot, with the read path's
  /// spans and metrics.
  template <typename T, typename Eval>
  Result<T> Read(const std::string& xpath, util::Deadline deadline,
                 Eval eval) const;



  /// Enqueues `req` under `admission`, resolving its promise in place on
  /// rejection.
  void EnqueueWrite(WriteRequest req, Admission admission);
  void WriterLoop();
  void ProcessGroup(std::vector<WriteRequest>* group);
  /// Logs the group's committed `ops` (one append + fsync). On failure,
  /// restores memory to the last published snapshot — exactly the
  /// acknowledged state — and runs the circuit breaker.
  Status LogGroup(std::vector<repl::ReplOp> ops);
  void PublishSnapshot();

  ConcurrentXmlDbOptions options_;
  std::unique_ptr<XmlDb> db_;  // mutated only by the writer thread
  std::atomic<uint64_t> commit_lsn_{0};
  std::mutex sink_mu_;  // guards both sinks (set at attach, read per group)
  std::function<void(const repl::ReplRecord&)> commit_sink_;
  std::function<void()> poison_sink_;
  concurrency::SnapshotManager<query::LabeledDocument> snapshots_;
  concurrency::BoundedQueue<WriteRequest> write_queue_;
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

  // engine.concurrent.* metrics, in the db's registry (a child of
  // MetricRegistry::Default(), which sums them across databases).
  obs::Histogram* read_ns_;
  obs::Histogram* write_wait_ns_;   // submission -> dequeue
  obs::Histogram* write_ns_;        // submission -> durable commit
  obs::Histogram* commit_batch_;    // requests per group commit
  obs::Counter* reads_;
  obs::Counter* writes_;
  obs::Counter* rejected_;          // kShed bounces off a full queue
  obs::Counter* deadline_exceeded_;  // requests expired before running
  obs::Counter* snapshots_published_;
  obs::Histogram* publish_ns_;  // Fork + Publish wall time per snapshot
  // COW publish cost, from the writer thread's CowStats deltas: bytes and
  // chunks path-copied since the previous publish (the group's touched
  // set), and chunks shared by the Fork. These are the counters that prove
  // a publish is O(touched), not O(N) (docs/CONCURRENCY.md).
  obs::Counter* cow_bytes_copied_;
  obs::Counter* cow_chunks_copied_;
  obs::Counter* cow_chunks_shared_;
  // Writer-thread CowStats baselines at the previous publish.
  uint64_t last_cow_bytes_ = 0;
  uint64_t last_cow_chunk_copies_ = 0;
  uint64_t last_cow_chunks_shared_ = 0;
  obs::Gauge* queue_depth_;
  obs::Gauge* snapshots_live_;
  obs::Counter* persist_failures_;   // failed group persists (rolled back)
  obs::Counter* reopens_;            // successful log reopens
  obs::Gauge* poisoned_gauge_;       // 1 while the breaker is tripped
};

}  // namespace cdbs::engine

#endif  // CDBS_ENGINE_CONCURRENT_DB_H_
