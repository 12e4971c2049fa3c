#include "engine/concurrent_db.h"

#include <optional>
#include <utility>

#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "util/check.h"
#include "util/cow_vector.h"
#include "util/failpoint.h"

namespace cdbs::engine {

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::Wrap(
    Result<std::unique_ptr<XmlDb>> db, const ConcurrentXmlDbOptions& options) {
  if (!db.ok()) return db.status();
  return std::unique_ptr<ConcurrentXmlDb>(
      new ConcurrentXmlDb(std::move(db).value(), options));
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::Open(
    XmlTree tree, const ConcurrentXmlDbOptions& options) {
  return Wrap(XmlDb::Open(std::move(tree), options.db), options);
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::Open(
    xml::Document doc, const ConcurrentXmlDbOptions& options) {
  return Wrap(XmlDb::Open(std::move(doc), options.db), options);
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::OpenFromXml(
    std::string_view xml, const ConcurrentXmlDbOptions& options) {
  return Wrap(XmlDb::OpenFromXml(xml, options.db), options);
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::OpenFromImage(
    const BootstrapSpec& spec, const ConcurrentXmlDbOptions& options) {
  return Wrap(XmlDb::OpenFromBootstrap(spec, options.db), options);
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::Recover(
    const ConcurrentXmlDbOptions& options) {
  return Wrap(XmlDb::Recover(options.db), options);
}

ConcurrentXmlDb::ConcurrentXmlDb(std::unique_ptr<XmlDb> db,
                                 const ConcurrentXmlDbOptions& options)
    : options_(options),
      db_(std::move(db)),
      commit_lsn_(db_->log_ != nullptr ? db_->log_->last_lsn() : 0),
      snapshots_(db_->labeled().Fork()),
      write_queue_(options.write_queue_capacity) {
  obs::MetricRegistry& reg = db_->registry_;
  read_ns_ = reg.GetHistogram("engine.concurrent.read.ns",
                              "Wall time per snapshot-isolated read");
  write_wait_ns_ = reg.GetHistogram("engine.concurrent.write.wait.ns",
                                    "Submission-to-dequeue wait per write");
  write_ns_ =
      reg.GetHistogram("engine.concurrent.write.ns",
                       "Submission-to-durable-commit wall time per write");
  commit_batch_ =
      reg.GetHistogram("engine.concurrent.commit.batch",
                       "Write requests folded into one group commit");
  reads_ = reg.GetCounter("engine.concurrent.reads", "Snapshot-isolated reads");
  writes_ = reg.GetCounter("engine.concurrent.writes",
                           "Write requests processed by the writer");
  rejected_ =
      reg.GetCounter("engine.concurrent.rejected",
                     "Shed writes bounced off a full queue (kRetryAfter)");
  deadline_exceeded_ =
      reg.GetCounter("engine.concurrent.deadline_exceeded",
                     "Requests that expired before executing (write or read)");
  snapshots_published_ =
      reg.GetCounter("engine.concurrent.snapshots",
                     "Snapshots published (one per group commit)");
  publish_ns_ =
      reg.GetHistogram("engine.concurrent.snapshot.publish.ns",
                       "Wall time per snapshot publication (Fork + Publish)");
  cow_bytes_copied_ = reg.GetCounter(
      "engine.concurrent.snapshot.bytes_copied",
      "Bytes path-copied (COW) per publish, summed over publishes");
  cow_chunks_copied_ =
      reg.GetCounter("engine.concurrent.snapshot.chunks_copied",
                     "COW chunks/runs path-copied across publishes");
  cow_chunks_shared_ =
      reg.GetCounter("engine.concurrent.snapshot.chunks_shared",
                     "COW chunks/runs shared (not copied) by snapshot forks");
  queue_depth_ = reg.GetGauge("engine.concurrent.queue.depth",
                              "Write submission queue depth");
  snapshots_live_ = reg.GetGauge("engine.concurrent.snapshots.live",
                                 "Snapshot versions alive (current + pinned)");
  persist_failures_ =
      reg.GetCounter("engine.concurrent.persist.failures",
                     "Group persists that failed and rolled back");
  reopens_ = reg.GetCounter("engine.concurrent.reopens",
                            "Log reopens after failed group commits");
  poisoned_gauge_ =
      reg.GetGauge("engine.concurrent.writer.poisoned",
                   "1 while the writer circuit breaker is tripped");
  snapshots_live_->Set(1);

  if (options_.shared_readers != nullptr) {
    readers_ = options_.shared_readers;
    owns_readers_ = false;
  } else {
    readers_ =
        std::make_shared<concurrency::ThreadPool>(options_.read_workers);
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

ConcurrentXmlDb::~ConcurrentXmlDb() { Shutdown(); }

void ConcurrentXmlDb::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    shut_down_.store(true);
    write_queue_.Close();
    if (writer_.joinable()) writer_.join();
    // A shared pool belongs to the sharded front-end: it is shut down by
    // its owner after every shard, so tasks already queued for this shard
    // still run (the object outlives Shutdown; reads stay safe until
    // destruction).
    if (owns_readers_) readers_->Shutdown();
  });
}

// --------------------------------------------------------------------------
// Read path.

template <typename T, typename Eval>
Result<T> ConcurrentXmlDb::Read(const std::string& xpath,
                                util::Deadline deadline, Eval eval) const {
  // Chaos/test hook: arm with a delay= spec to slow every read and make
  // deadlines age out deterministically. Expired work (on arrival, after a
  // wait in the pool's queue or in the hook) is shed without evaluating.
  if (!deadline.expired()) {
    static_cast<void>(CDBS_FAILPOINT("engine.concurrent.read.delay"));
  }
  if (deadline.expired()) {
    deadline_exceeded_->Increment();
    return Status::DeadlineExceeded(
        "query deadline expired before evaluation");
  }
  // The TraceSpans are free unless the caller's thread carries a
  // TraceScope and tracing is on (one relaxed load each).
  util::Stopwatch timer;
  obs::TraceSpan pin_span(obs::SpanName::kSnapshotPin);
  const auto pin = snapshots_.Acquire();
  pin_span.End();
  obs::TraceSpan parse_span(obs::SpanName::kParse);
  Result<query::Query> parsed = query::ParseQuery(xpath);
  parse_span.End();
  if (!parsed.ok()) return parsed.status();
  obs::TraceSpan eval_span(obs::SpanName::kEval);
  Result<T> out = eval(*parsed, pin.view());
  eval_span.End();
  reads_->Increment();
  read_ns_->Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  return out;
}

Result<std::vector<NodeId>> ConcurrentXmlDb::Query(
    const std::string& xpath, NodeId scope, util::Deadline deadline) const {
  return Read<std::vector<NodeId>>(
      xpath, deadline,
      [scope](const query::Query& q, const query::LabeledDocument& d) {
        return query::EvaluateQuery(q, d, scope);
      });
}

Result<uint64_t> ConcurrentXmlDb::Count(const std::string& xpath) const {
  return Read<uint64_t>(
      xpath, {}, [](const query::Query& q, const query::LabeledDocument& d) {
        return query::CountQuery(q, d, d.root());
      });
}

Result<std::vector<uint64_t>> ConcurrentXmlDb::CountPerScope(
    const std::string& xpath, const std::vector<NodeId>& scopes,
    util::Deadline deadline) const {
  return Read<std::vector<uint64_t>>(
      xpath, deadline,
      [&scopes](const query::Query& q, const query::LabeledDocument& d) {
        return query::CountPerScope(q, d, scopes);
      });
}

std::string ConcurrentXmlDb::TagOf(NodeId node) const {
  const auto pin = snapshots_.Acquire();
  return pin->tag(node);
}

std::future<Result<std::vector<uint64_t>>> ConcurrentXmlDb::SubmitCount(
    std::string xpath, std::vector<NodeId> scopes, util::Deadline deadline) {
  using Counts = Result<std::vector<uint64_t>>;
  auto promise = std::make_shared<std::promise<Counts>>();
  std::future<Counts> fut = promise->get_future();
  if (deadline.expired()) {
    deadline_exceeded_->Increment();
    promise->set_value(
        Status::DeadlineExceeded("query deadline expired at submission"));
    return fut;
  }
  // Carry the submitter's trace attribution onto the worker thread.
  const uint64_t trace_id = obs::TraceScope::current();
  const uint64_t submit_ns =
      trace_id != 0 ? obs::Tracer::NowNs() : 0;
  const bool accepted = readers_->Submit(
      [this, promise, trace_id, submit_ns, xpath = std::move(xpath),
       scopes = std::move(scopes), deadline] {
        obs::TraceScope scope(trace_id);
        if (trace_id != 0) {
          obs::Tracer::Instance().RecordSpan(
              trace_id, obs::SpanName::kQueueWait, submit_ns,
              obs::Tracer::NowNs() - submit_ns, obs::SpanOutcome::kOk);
        }
        promise->set_value(CountPerScope(xpath, scopes, deadline));
      });
  if (!accepted) {
    promise->set_value(
        Status::IoError("read pool shut down; query rejected"));
  }
  return fut;
}

// --------------------------------------------------------------------------
// Write path: submission.

void ConcurrentXmlDb::EnqueueWrite(WriteRequest req, Admission admission) {
  // Trace attribution rides in from the submitting thread's scope; the
  // admission span covers this function (the queue push or its bounce).
  req.trace_id = obs::TraceScope::current();
  if (req.trace_id != 0) req.submit_ns = obs::Tracer::NowNs();
  obs::TraceSpan admission_span(obs::SpanName::kAdmission);
  Status rejection;
  if (req.deadline.expired()) {
    deadline_exceeded_->Increment();
    rejection =
        Status::DeadlineExceeded("write deadline expired at submission");
  } else if (admission == Admission::kBlock) {
    const util::Deadline deadline = req.deadline;
    switch (write_queue_.PushUntil(std::move(req), deadline)) {
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kAccepted:
        break;
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kClosed:
        rejection = Status::IoError("database shut down");
        break;
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kTimedOut:
        deadline_exceeded_->Increment();
        rejection = Status::DeadlineExceeded(
            "write deadline expired while blocked on a full queue");
        break;
    }
  } else if (!write_queue_.TryPush(std::move(req))) {
    if (shut_down_.load()) {
      rejection = Status::IoError("database shut down");
    } else {
      rejected_->Increment();
      rejection = Status::RetryAfter("write queue full; retry after " +
                                     std::to_string(RetryAfterHintMillis()) +
                                     " ms");
    }
  }
  if (!rejection.ok()) {
    admission_span.set_outcome(
        rejection.code() == StatusCode::kRetryAfter ? obs::SpanOutcome::kShed
        : rejection.code() == StatusCode::kDeadlineExceeded
            ? obs::SpanOutcome::kDeadline
            : obs::SpanOutcome::kError);
    // `req` is untouched on a failed push; fail its promise in place.
    std::visit([&](auto& promise) { promise.set_value(rejection); },
               req.promise);
    return;
  }
  queue_depth_->Set(static_cast<double>(write_queue_.size()));
}

std::future<Result<uint64_t>> ConcurrentXmlDb::Submit(WriteOp op,
                                                      Admission admission,
                                                      util::Deadline deadline) {
  WriteRequest req;
  req.op = std::move(op);
  req.deadline = deadline;
  std::future<Result<uint64_t>> fut =
      std::get<WritePromise>(req.promise).get_future();
  EnqueueWrite(std::move(req), admission);
  return fut;
}

// --------------------------------------------------------------------------
// Write path: the single writer.

void ConcurrentXmlDb::WriterLoop() {
  std::vector<WriteRequest> group;
  for (;;) {
    group.clear();
    const size_t n =
        write_queue_.PopBatch(&group, options_.group_commit_limit);
    if (n == 0) return;  // closed and drained
    queue_depth_->Set(static_cast<double>(write_queue_.size()));
    ProcessGroup(&group);
  }
}

void ConcurrentXmlDb::ProcessGroup(std::vector<WriteRequest>* group) {
  const size_t n = group->size();
  // Group trace attribution: every span the writer records from here on
  // (commit phases, WAL append/fsync, publish) fans out to
  // each traced request in the group — the group's one fsync genuinely is
  // part of each of their critical paths. queue_wait is per-request: it
  // ends now, at dequeue.
  std::vector<uint64_t> group_trace_ids;
  for (const WriteRequest& req : *group) {
    if (req.trace_id == 0) continue;
    group_trace_ids.push_back(req.trace_id);
    const uint64_t now = obs::Tracer::NowNs();
    obs::Tracer::Instance().RecordSpan(
        req.trace_id, obs::SpanName::kQueueWait, req.submit_ns,
        now > req.submit_ns ? now - req.submit_ns : 0,
        obs::SpanOutcome::kOk);
  }
  obs::TraceScope group_scope(group_trace_ids.data(),
                              group_trace_ids.size());
  // Chaos/test hook: arm with a delay= spec to slow the writer, filling
  // the submission queue (deterministic overload and deadline-expiry).
  static_cast<void>(CDBS_FAILPOINT("engine.concurrent.write.delay"));

  // Bootstrap snapshots are answered at the group boundary, BEFORE this
  // group mutates anything: the serialized document then corresponds
  // exactly to commit_lsn_ — every op at or below it applied, none above
  // it — which is the invariant a bootstrapping follower depends on.
  for (WriteRequest& req : *group) {
    auto* promise = std::get_if<SnapshotPromise>(&req.promise);
    if (promise == nullptr) continue;
    if (req.deadline.expired()) {
      deadline_exceeded_->Increment();
      promise->set_value(Status::DeadlineExceeded(
          "bootstrap deadline expired while queued"));
      continue;
    }
    BootstrapImage image;
    image.spec = db_->CaptureBootstrapSpec();
    image.lsn = commit_lsn_.load(std::memory_order_acquire);
    repl::ReplicationLog* log = db_->log_.get();
    image.epoch = log != nullptr ? log->epoch() : 0;
    promise->set_value(std::move(image));
  }

  // Reopen requests are also handled at the group boundary: the writer
  // thread is the only appender, so no fencing is needed. A successful
  // reopen clears the poisoned state, so writes later in this same group
  // already commit normally.
  for (WriteRequest& req : *group) {
    auto* promise = std::get_if<ReopenPromise>(&req.promise);
    if (promise == nullptr) continue;
    if (req.deadline.expired()) {
      deadline_exceeded_->Increment();
      promise->set_value(Status::DeadlineExceeded(
          "reopen deadline expired while queued"));
      continue;
    }
    const Status reopened =
        db_->log_ == nullptr
            ? Status::OK()
            : db_->log_->Reopen(commit_lsn_.load(std::memory_order_acquire));
    if (reopened.ok()) {
      consecutive_persist_failures_.store(0, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(persist_error_mu_);
        last_persist_error_ = Status::OK();
      }
      poisoned_.store(false, std::memory_order_release);
      poisoned_gauge_->Set(0);
      reopens_->Increment();
    }
    promise->set_value(reopened);
  }
  // One result per write request: the new node's id or the number of
  // nodes removed; empty for the snapshot and reopen requests.
  std::vector<std::optional<Result<uint64_t>>> results(n);
  // The group's committed effects, in commit order: the one log record.
  std::vector<repl::ReplOp> ops;
  XmlDb::Tally tally;

  // Phase 1: apply every request to the writer's in-memory state. Later
  // requests see earlier ones' effects — submission order is commit order.
  obs::TraceSpan phase1_span(obs::SpanName::kCommitPhase1);
  for (size_t i = 0; i < n; ++i) {
    WriteRequest& req = (*group)[i];
    if (!std::holds_alternative<WritePromise>(req.promise)) {
      continue;  // handled above
    }
    write_wait_ns_->Record(static_cast<uint64_t>(req.queued.ElapsedNanos()));
    if (poisoned_.load(std::memory_order_acquire)) {
      // Tripped circuit breaker: fast-fail without touching the database or
      // its log. Reads keep serving the last published snapshot; a
      // successful Reopen() re-admits writes.
      results[i].emplace(Status::Unavailable(
          "writer poisoned by a persistent persist failure; awaiting reopen"));
      continue;
    }
    if (req.deadline.expired()) {
      // Expired while queued: shed before it costs writer time. The
      // request never touches the tree, labels, or log.
      deadline_exceeded_->Increment();
      results[i].emplace(Status::DeadlineExceeded(
          "write deadline expired while queued behind the writer"));
      continue;
    }
    results[i].emplace(db_->Apply(req.op, &tally));
    if (results[i]->ok()) {
      ops.push_back({req.op.kind, req.op.target, **results[i], req.op.tag});
    }
  }
  phase1_span.End();

  // Phase 2: one group commit — a single log append + fsync covers every
  // write in the group, before any promise resolves. An acknowledged write
  // is therefore durable and in the replication stream (and, with a
  // sync-mode sink, already acknowledged by every healthy follower).
  if (!ops.empty()) {
    const Status logged = LogGroup(std::move(ops));
    if (logged.ok()) {
      db_->Count(tally);
      // Publish the post-group snapshot before resolving any promise, so a
      // client that waits on its future then queries is guaranteed to see
      // its own write (read-your-writes across the two pipelines).
      PublishSnapshot();
    } else {
      for (auto& r : results) {
        if (r.has_value() && r->ok()) r.emplace(logged);
      }
    }
  }

  writes_->Increment(n);
  commit_batch_->Record(n);
  for (size_t i = 0; i < n; ++i) {
    WriteRequest& req = (*group)[i];
    auto* promise = std::get_if<WritePromise>(&req.promise);
    if (promise == nullptr) continue;  // resolved above
    write_ns_->Record(static_cast<uint64_t>(req.queued.ElapsedNanos()));
    promise->set_value(std::move(*results[i]));
  }

  // Retention, at the group boundary and off the acknowledgement path.
  repl::ReplicationLog* log = db_->log_.get();
  if (log != nullptr && log->size_bytes() > options_.replication_retain_bytes) {
    static_cast<void>(db_->Checkpoint());  // a failure retries next group
  }
}

Status ConcurrentXmlDb::LogGroup(std::vector<repl::ReplOp> ops) {
  repl::ReplicationLog* log = db_->log_.get();
  if (log == nullptr) return Status::OK();
  const Result<uint64_t> lsn = log->Append(ops);
  if (lsn.ok()) {
    consecutive_persist_failures_.store(0, std::memory_order_release);
    commit_lsn_.store(*lsn, std::memory_order_release);
    std::lock_guard<std::mutex> lock(sink_mu_);
    if (commit_sink_) commit_sink_(repl::ReplRecord{*lsn, std::move(ops)});
    return Status::OK();
  }
  // Nothing of the group is durable and the log was cut back, so restore
  // memory to the last published snapshot: the failed inserts' ids are
  // free again, as the next logged insert's replay expects.
  db_->labeled_ = snapshots_.Acquire()->Fork();
  // Failure classification drives the circuit breaker: persistent errors
  // (disk full, an I/O error that survived the storage retries) poison
  // the writer after K consecutive strikes; corruption poisons at once.
  // Transient failures just count.
  persist_failures_->Increment();
  {
    std::lock_guard<std::mutex> lock(persist_error_mu_);
    last_persist_error_ = lsn.status();
  }
  const uint64_t strikes =
      consecutive_persist_failures_.fetch_add(1, std::memory_order_acq_rel) +
      1;
  const int threshold = options_.poison_after_persist_failures;
  const FailureClass cls = FailureClassOf(lsn.status());
  if (threshold > 0 &&
      (cls == FailureClass::kCorruption ||
       (cls == FailureClass::kPersistent &&
        strikes >= static_cast<uint64_t>(threshold)))) {
    poisoned_.store(true, std::memory_order_release);
    poisoned_gauge_->Set(1);
  }
  return lsn.status();
}

void ConcurrentXmlDb::SetCommitSink(
    std::function<void(const repl::ReplRecord&)> sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  commit_sink_ = std::move(sink);
}

Status ConcurrentXmlDb::last_persist_error() const {
  std::lock_guard<std::mutex> lock(persist_error_mu_);
  return last_persist_error_;
}

Status ConcurrentXmlDb::Reopen(util::Deadline deadline) {
  WriteRequest req;
  req.promise = ReopenPromise();
  req.deadline = deadline;
  std::future<Status> fut = std::get<ReopenPromise>(req.promise).get_future();
  EnqueueWrite(std::move(req), Admission::kBlock);
  return fut.get();
}

Result<BootstrapImage> ConcurrentXmlDb::CaptureBootstrap(
    util::Deadline deadline) {
  WriteRequest req;
  req.promise = SnapshotPromise();
  req.deadline = deadline;
  std::future<Result<BootstrapImage>> fut =
      std::get<SnapshotPromise>(req.promise).get_future();
  EnqueueWrite(std::move(req), Admission::kBlock);
  return fut.get();
}

uint64_t ConcurrentXmlDb::RetryAfterHintMillis() const {
  // Estimate the queue's drain time: depth x mean durable-commit latency,
  // amortized over the group size (a full group commits under one fsync).
  const double depth = static_cast<double>(write_queue_.size()) + 1.0;
  double mean_commit_ns = write_ns_->mean();
  if (mean_commit_ns <= 0) mean_commit_ns = 1e6;  // cold start: assume 1 ms
  const double group =
      static_cast<double>(options_.group_commit_limit > 0
                              ? options_.group_commit_limit
                              : 1);
  const double hint_ms = depth * mean_commit_ns / group / 1e6;
  if (hint_ms < 1.0) return 1;
  if (hint_ms > 2000.0) return 2000;
  return static_cast<uint64_t>(hint_ms);
}

void ConcurrentXmlDb::PublishSnapshot() {
  // Runs on the writer thread: CowStats::Local() has accumulated every
  // path-copy since the previous publish (this group's touched chunks), and
  // the Fork below adds its chunk-share tally. The deltas exported here are
  // therefore exactly this publish's cost — the counters that demonstrate a
  // publish is O(touched), not O(N).
  util::Stopwatch timer;
  obs::TraceSpan publish_span(obs::SpanName::kPublish);
  snapshots_.Publish(db_->labeled().Fork());
  publish_span.End();
  publish_ns_->Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  const util::CowStats& stats = util::CowStats::Local();
  cow_bytes_copied_->Increment(stats.bytes_copied - last_cow_bytes_);
  cow_chunks_copied_->Increment(stats.chunk_copies - last_cow_chunk_copies_);
  cow_chunks_shared_->Increment(stats.chunks_shared - last_cow_chunks_shared_);
  last_cow_bytes_ = stats.bytes_copied;
  last_cow_chunk_copies_ = stats.chunk_copies;
  last_cow_chunks_shared_ = stats.chunks_shared;
  snapshots_published_->Increment();
  snapshots_live_->Set(static_cast<double>(snapshots_.live_versions()));
}

// --------------------------------------------------------------------------

XmlDbStats ConcurrentXmlDb::Stats() const {
  const auto pin = snapshots_.Acquire();
  XmlDbStats stats;
  const labeling::Labeling& lab = pin->labeling();
  stats.node_count = lab.num_nodes();
  stats.label_bits = lab.TotalLabelBits();
  stats.avg_label_bits = lab.AvgLabelBits();
  stats.insertions = db_->insertions_->value();
  stats.deletions = db_->deletions_->value();
  stats.relabeled_total = db_->relabeled_total_->value();
  stats.overflow_events = db_->overflow_events_->value();
  return stats;
}

}  // namespace cdbs::engine
