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

namespace {

/// Opens the replication log against the db's private registry when the
/// options ask for one; nullptr (replication off) otherwise.
Result<std::unique_ptr<repl::ReplicationLog>> OpenReplLog(
    obs::MetricRegistry* registry, const ConcurrentXmlDbOptions& options) {
  if (options.replication_log_path.empty()) {
    return std::unique_ptr<repl::ReplicationLog>();
  }
  repl::ReplicationLogOptions log_options;
  log_options.retain_bytes = options.replication_retain_bytes;
  auto log = std::make_unique<repl::ReplicationLog>(registry, log_options);
  CDBS_RETURN_NOT_OK(log->Open(options.replication_log_path));
  return log;
}

}  // namespace

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::Open(
    xml::Document doc, const ConcurrentXmlDbOptions& options) {
  Result<std::unique_ptr<XmlDb>> db = XmlDb::Open(std::move(doc), options.db);
  if (!db.ok()) return db.status();
  Result<std::unique_ptr<repl::ReplicationLog>> log =
      OpenReplLog(&(*db)->registry_, options);
  if (!log.ok()) return log.status();
  return std::unique_ptr<ConcurrentXmlDb>(new ConcurrentXmlDb(
      std::move(db).value(), std::move(log).value(), options));
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::OpenFromXml(
    std::string_view xml, const ConcurrentXmlDbOptions& options) {
  Result<std::unique_ptr<XmlDb>> db = XmlDb::OpenFromXml(xml, options.db);
  if (!db.ok()) return db.status();
  Result<std::unique_ptr<repl::ReplicationLog>> log =
      OpenReplLog(&(*db)->registry_, options);
  if (!log.ok()) return log.status();
  return std::unique_ptr<ConcurrentXmlDb>(new ConcurrentXmlDb(
      std::move(db).value(), std::move(log).value(), options));
}

Result<std::unique_ptr<ConcurrentXmlDb>> ConcurrentXmlDb::OpenFromImage(
    const BootstrapSpec& spec, const ConcurrentXmlDbOptions& options) {
  Result<std::unique_ptr<XmlDb>> db = XmlDb::OpenFromBootstrap(spec, options.db);
  if (!db.ok()) return db.status();
  Result<std::unique_ptr<repl::ReplicationLog>> log =
      OpenReplLog(&(*db)->registry_, options);
  if (!log.ok()) return log.status();
  return std::unique_ptr<ConcurrentXmlDb>(new ConcurrentXmlDb(
      std::move(db).value(), std::move(log).value(), options));
}

ConcurrentXmlDb::ConcurrentXmlDb(std::unique_ptr<XmlDb> db,
                                 std::unique_ptr<repl::ReplicationLog> repl_log,
                                 const ConcurrentXmlDbOptions& options)
    : options_(options),
      db_(std::move(db)),
      repl_log_(std::move(repl_log)),
      snapshots_(db_->labeled().Fork()),
      write_queue_(options.write_queue_capacity) {
  obs::MetricRegistry& local = db_->registry_;
  obs::MetricRegistry& global = obs::MetricRegistry::Default();
  auto hist = [&](std::string_view name, std::string_view help) {
    return obs::MirrorHistogram(local, global, name, help);
  };
  auto counter = [&](std::string_view name, std::string_view help) {
    return obs::MirrorCounter(local, global, name, help);
  };
  auto gauge = [&](std::string_view name, std::string_view help) {
    return obs::MirrorGauge(local, global, name, help);
  };
  read_ns_ = hist("engine.concurrent.read.ns",
                  "Wall time per snapshot-isolated read");
  write_wait_ns_ = hist("engine.concurrent.write.wait.ns",
                        "Submission-to-dequeue wait per write");
  write_ns_ = hist("engine.concurrent.write.ns",
                   "Submission-to-durable-commit wall time per write");
  commit_batch_ = hist("engine.concurrent.commit.batch",
                       "Write requests folded into one group commit");
  reads_ = counter("engine.concurrent.reads", "Snapshot-isolated reads");
  writes_ = counter("engine.concurrent.writes",
                    "Write requests processed by the writer");
  rejected_ = counter("engine.concurrent.rejected",
                      "Writes bounced by admission control");
  deadline_exceeded_ =
      counter("engine.concurrent.deadline_exceeded",
              "Requests that expired before executing (write or read)");
  snapshots_published_ = counter("engine.concurrent.snapshots",
                                 "Snapshots published (one per group commit)");
  publish_ns_ = hist("engine.concurrent.snapshot.publish.ns",
                     "Wall time per snapshot publication (Fork + Publish)");
  cow_bytes_copied_ =
      counter("engine.concurrent.snapshot.bytes_copied",
              "Bytes path-copied (COW) per publish, summed over publishes");
  cow_chunks_copied_ = counter("engine.concurrent.snapshot.chunks_copied",
                               "COW chunks/runs path-copied across publishes");
  cow_chunks_shared_ =
      counter("engine.concurrent.snapshot.chunks_shared",
              "COW chunks/runs shared (not copied) by snapshot forks");
  queue_depth_ = gauge("engine.concurrent.queue.depth",
                       "Write submission queue depth");
  snapshots_live_ = gauge("engine.concurrent.snapshots.live",
                          "Snapshot versions alive (current + pinned)");
  persist_failures_ = counter("engine.concurrent.persist.failures",
                              "Group persists that failed and rolled back");
  reopens_ = counter("engine.concurrent.reopens",
                     "Store reopens through the WAL recovery path");
  poisoned_gauge_ = gauge("engine.concurrent.writer.poisoned",
                          "1 while the writer circuit breaker is tripped");
  snapshots_live_.Set(1);

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
Result<T> ConcurrentXmlDb::Read(const std::string& xpath, Eval eval) const {
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
  reads_.Increment();
  read_ns_.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  return out;
}

Result<std::vector<NodeId>> ConcurrentXmlDb::Query(const std::string& xpath,
                                                   NodeId scope) const {
  return Read<std::vector<NodeId>>(
      xpath, [scope](const query::Query& q, const query::LabeledDocument& d) {
        return query::EvaluateQuery(q, d, scope);
      });
}

Result<uint64_t> ConcurrentXmlDb::Count(const std::string& xpath) const {
  return Read<uint64_t>(
      xpath, [](const query::Query& q, const query::LabeledDocument& d) {
        return query::CountQuery(q, d, d.root());
      });
}

Result<std::vector<uint64_t>> ConcurrentXmlDb::CountPerScope(
    const std::string& xpath, const std::vector<NodeId>& scopes) const {
  return Read<std::vector<uint64_t>>(
      xpath, [&scopes](const query::Query& q, const query::LabeledDocument& d) {
        return query::CountPerScope(q, d, scopes);
      });
}

std::string ConcurrentXmlDb::TagOf(NodeId node) const {
  const auto pin = snapshots_.Acquire();
  return pin->tag(node);
}

template <typename T>
std::future<Result<T>> ConcurrentXmlDb::SubmitRead(
    util::Deadline deadline, std::function<Result<T>()> read) {
  auto promise = std::make_shared<std::promise<Result<T>>>();
  std::future<Result<T>> fut = promise->get_future();
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    promise->set_value(
        Status::DeadlineExceeded("query deadline expired at submission"));
    return fut;
  }
  // Carry the submitter's trace attribution onto the worker thread.
  const uint64_t trace_id = obs::TraceScope::current();
  const uint64_t submit_ns =
      trace_id != 0 ? obs::Tracer::NowNs() : 0;
  const bool accepted = readers_->Submit(
      [this, promise, deadline, trace_id, submit_ns,
       read = std::move(read)] {
        obs::TraceScope scope(trace_id);
        if (trace_id != 0) {
          obs::Tracer::Instance().RecordSpan(
              trace_id, obs::SpanName::kQueueWait, submit_ns,
              obs::Tracer::NowNs() - submit_ns, obs::SpanOutcome::kOk);
        }
        // Chaos/test hook: arm with a delay= spec to slow the reader pool
        // and make queued queries age out deterministically.
        static_cast<void>(CDBS_FAILPOINT("engine.concurrent.read.delay"));
        // Re-check on the worker: the request may have aged out while
        // queued behind slower reads — shed it without evaluating.
        if (deadline.expired()) {
          deadline_exceeded_.Increment();
          promise->set_value(Status::DeadlineExceeded(
              "query deadline expired while queued"));
          return;
        }
        promise->set_value(read());
      });
  if (!accepted) {
    promise->set_value(
        Status::IoError("read pool shut down; query rejected"));
  }
  return fut;
}

std::future<Result<std::vector<NodeId>>> ConcurrentXmlDb::SubmitQuery(
    std::string xpath, util::Deadline deadline, NodeId scope) {
  return SubmitRead<std::vector<NodeId>>(
      deadline, [this, xpath = std::move(xpath), scope] {
        return Query(xpath, scope);
      });
}

std::future<Result<std::vector<uint64_t>>> ConcurrentXmlDb::SubmitCount(
    std::string xpath, std::vector<NodeId> scopes, util::Deadline deadline) {
  return SubmitRead<std::vector<uint64_t>>(
      deadline,
      [this, xpath = std::move(xpath), scopes = std::move(scopes)] {
        return CountPerScope(xpath, scopes);
      });
}

// --------------------------------------------------------------------------
// Write path: submission.

bool ConcurrentXmlDb::EnqueueWrite(WriteRequest req, bool blocking,
                                   bool* accepted) {
  const WriteRequest::Kind kind = req.kind;
  // Trace attribution rides in from the submitting thread's scope; the
  // admission span covers this function (the queue push or its bounce).
  req.trace_id = obs::TraceScope::current();
  if (req.trace_id != 0) req.submit_ns = obs::Tracer::NowNs();
  obs::TraceSpan admission(obs::SpanName::kAdmission);
  Status rejection;
  if (req.deadline.expired()) {
    deadline_exceeded_.Increment();
    rejection =
        Status::DeadlineExceeded("write deadline expired at submission");
  } else if (blocking) {
    const util::Deadline deadline = req.deadline;
    switch (write_queue_.PushUntil(std::move(req), deadline)) {
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kAccepted:
        break;
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kClosed:
        rejection = Status::IoError("database shut down");
        break;
      case concurrency::BoundedQueue<WriteRequest>::PushOutcome::kTimedOut:
        deadline_exceeded_.Increment();
        rejection = Status::DeadlineExceeded(
            "write deadline expired while blocked on a full queue");
        break;
    }
  } else if (!write_queue_.TryPush(std::move(req))) {
    rejected_.Increment();
    rejection = shut_down_.load()
                    ? Status::IoError("database shut down")
                    : Status::RetryAfter("write queue full; retry after " +
                                         std::to_string(
                                             RetryAfterHintMillis()) +
                                         " ms");
  }
  const bool admitted = rejection.ok();
  if (accepted != nullptr) *accepted = admitted;
  if (!admitted) {
    admission.set_outcome(rejection.code() == StatusCode::kRetryAfter
                              ? obs::SpanOutcome::kShed
                          : rejection.code() == StatusCode::kDeadlineExceeded
                              ? obs::SpanOutcome::kDeadline
                              : obs::SpanOutcome::kError);
    // `req` is untouched on a failed push; fail its promise in place.
    if (kind == WriteRequest::Kind::kDelete) {
      req.delete_promise.set_value(rejection);
    } else if (kind == WriteRequest::Kind::kSnapshot) {
      req.snapshot_promise.set_value(rejection);
    } else if (kind == WriteRequest::Kind::kReopen) {
      req.reopen_promise.set_value(rejection);
    } else {
      req.insert_promise.set_value(rejection);
    }
    return false;
  }
  queue_depth_.Set(static_cast<double>(write_queue_.size()));
  return true;
}

std::future<Result<NodeId>> ConcurrentXmlDb::SubmitInsert(
    WriteRequest::Kind kind, NodeId target, std::string tag, bool blocking,
    bool* accepted, util::Deadline deadline) {
  WriteRequest req;
  req.kind = kind;
  req.target = target;
  req.tag = std::move(tag);
  req.deadline = deadline;
  std::future<Result<NodeId>> fut = req.insert_promise.get_future();
  EnqueueWrite(std::move(req), blocking, accepted);
  return fut;
}

std::future<Result<NodeId>> ConcurrentXmlDb::SubmitInsertBefore(
    NodeId target, std::string tag, util::Deadline deadline) {
  return SubmitInsert(WriteRequest::Kind::kInsertBefore, target,
                      std::move(tag), /*blocking=*/true, nullptr, deadline);
}

std::future<Result<NodeId>> ConcurrentXmlDb::SubmitInsertAfter(
    NodeId target, std::string tag, util::Deadline deadline) {
  return SubmitInsert(WriteRequest::Kind::kInsertAfter, target,
                      std::move(tag), /*blocking=*/true, nullptr, deadline);
}

std::future<Result<NodeId>> ConcurrentXmlDb::TrySubmitInsertAfter(
    NodeId target, std::string tag, bool* accepted, util::Deadline deadline) {
  return SubmitInsert(WriteRequest::Kind::kInsertAfter, target,
                      std::move(tag), /*blocking=*/false, accepted, deadline);
}

std::future<Result<NodeId>> ConcurrentXmlDb::TrySubmitInsertBefore(
    NodeId target, std::string tag, bool* accepted, util::Deadline deadline) {
  return SubmitInsert(WriteRequest::Kind::kInsertBefore, target,
                      std::move(tag), /*blocking=*/false, accepted, deadline);
}

std::future<Result<uint64_t>> ConcurrentXmlDb::SubmitDelete(
    NodeId target, util::Deadline deadline) {
  WriteRequest req;
  req.kind = WriteRequest::Kind::kDelete;
  req.target = target;
  req.deadline = deadline;
  std::future<Result<uint64_t>> fut = req.delete_promise.get_future();
  EnqueueWrite(std::move(req), /*blocking=*/true, nullptr);
  return fut;
}

std::future<Result<uint64_t>> ConcurrentXmlDb::TrySubmitDelete(
    NodeId target, bool* accepted, util::Deadline deadline) {
  WriteRequest req;
  req.kind = WriteRequest::Kind::kDelete;
  req.target = target;
  req.deadline = deadline;
  std::future<Result<uint64_t>> fut = req.delete_promise.get_future();
  EnqueueWrite(std::move(req), /*blocking=*/false, accepted);
  return fut;
}

Result<NodeId> ConcurrentXmlDb::InsertElementBefore(NodeId target,
                                                    const std::string& tag) {
  return SubmitInsertBefore(target, tag).get();
}

Result<NodeId> ConcurrentXmlDb::InsertElementAfter(NodeId target,
                                                   const std::string& tag) {
  return SubmitInsertAfter(target, tag).get();
}

Result<uint64_t> ConcurrentXmlDb::DeleteElement(NodeId target) {
  return SubmitDelete(target).get();
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
    queue_depth_.Set(static_cast<double>(write_queue_.size()));
    ProcessGroup(&group);
  }
}

void ConcurrentXmlDb::ProcessGroup(std::vector<WriteRequest>* group) {
  struct PendingInsert {
    size_t request_index;
    XmlDb::AppliedInsert applied;
  };
  const size_t n = group->size();
  // Group trace attribution: every span the writer records from here on
  // (commit phases, WAL append/fsync, store apply, publish) fans out to
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
    if (req.kind != WriteRequest::Kind::kSnapshot) continue;
    if (req.deadline.expired()) {
      deadline_exceeded_.Increment();
      req.snapshot_promise.set_value(Status::DeadlineExceeded(
          "bootstrap deadline expired while queued"));
      continue;
    }
    BootstrapImage image;
    image.spec = db_->CaptureBootstrapSpec();
    image.lsn = commit_lsn_.load(std::memory_order_acquire);
    image.epoch = repl_log_ != nullptr ? repl_log_->epoch() : 0;
    req.snapshot_promise.set_value(std::move(image));
  }

  // Reopen requests are also handled at the group boundary: the writer
  // thread owns every mutation of db_, so no fencing is needed — closing
  // and reopening the store here is serialized with all group commits. A
  // successful reopen clears the poisoned state, so writes later in this
  // same group already commit normally.
  for (WriteRequest& req : *group) {
    if (req.kind != WriteRequest::Kind::kReopen) continue;
    if (req.deadline.expired()) {
      deadline_exceeded_.Increment();
      req.reopen_promise.set_value(Status::DeadlineExceeded(
          "reopen deadline expired while queued"));
      continue;
    }
    const Status reopened = db_->ReopenStore();
    if (reopened.ok()) {
      consecutive_persist_failures_.store(0, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(persist_error_mu_);
        last_persist_error_ = Status::OK();
      }
      poisoned_.store(false, std::memory_order_release);
      poisoned_gauge_.Set(0);
      reopens_.Increment();
    }
    req.reopen_promise.set_value(reopened);
  }
  std::vector<PendingInsert> pending;
  std::vector<storage::StoreBatch> batches;
  std::vector<std::optional<Result<NodeId>>> insert_results(n);
  std::vector<std::optional<Result<uint64_t>>> delete_results(n);
  bool mutated = false;

  // Phase 1: apply every request to the writer's in-memory state, building
  // one store batch per successful insertion. Later requests see earlier
  // ones' effects — submission order is commit order.
  obs::TraceSpan phase1_span(obs::SpanName::kCommitPhase1);
  for (size_t i = 0; i < n; ++i) {
    WriteRequest& req = (*group)[i];
    if (req.kind == WriteRequest::Kind::kSnapshot ||
        req.kind == WriteRequest::Kind::kReopen) {
      continue;  // handled above
    }
    write_wait_ns_.Record(static_cast<uint64_t>(req.queued.ElapsedNanos()));
    if (poisoned_.load(std::memory_order_acquire)) {
      // Tripped circuit breaker: fast-fail without touching the database or
      // its WAL. Reads keep serving the last published snapshot; a
      // successful Reopen() re-admits writes.
      Status unavailable = Status::Unavailable(
          "writer poisoned by a persistent persist failure; awaiting reopen");
      if (req.kind == WriteRequest::Kind::kDelete) {
        delete_results[i].emplace(std::move(unavailable));
      } else {
        insert_results[i].emplace(std::move(unavailable));
      }
      continue;
    }
    if (req.deadline.expired()) {
      // Expired while queued: shed before it costs writer time. The
      // request never touches the tree, labels, or WAL.
      deadline_exceeded_.Increment();
      Status expired = Status::DeadlineExceeded(
          "write deadline expired while queued behind the writer");
      if (req.kind == WriteRequest::Kind::kDelete) {
        delete_results[i].emplace(std::move(expired));
      } else {
        insert_results[i].emplace(std::move(expired));
      }
      continue;
    }
    if (req.kind == WriteRequest::Kind::kDelete) {
      Result<uint64_t> removed = db_->DeleteElement(req.target);
      if (removed.ok() && *removed > 0) mutated = true;
      delete_results[i].emplace(std::move(removed));
      continue;
    }
    XmlDb::AppliedInsert applied;
    Result<NodeId> id = db_->ApplyInsertInMemory(
        req.target, req.tag, req.kind == WriteRequest::Kind::kInsertBefore,
        &applied);
    if (id.ok()) {
      // Serialize this insertion's store ops *now*, against the labels as
      // they stand after it — so a crash that recovers only a WAL prefix
      // lands on exactly the state some prefix of this group produced.
      batches.emplace_back();
      db_->BuildPersistOps(applied.result, &batches.back());
      pending.push_back(PendingInsert{i, applied});
      mutated = true;
    }
    insert_results[i].emplace(std::move(id));
  }

  phase1_span.End();

  // Phase 2: one group commit — a single WAL append + fsync covers every
  // insertion in the group.
  Status persisted = Status::OK();
  if (!pending.empty()) persisted = db_->PersistBatches(batches);
  if (!persisted.ok()) {
    // The store took none of it (all-or-nothing on disk). Undo the
    // insertions in reverse order; deletions never touch the store and
    // stand, exactly as in the single-threaded engine.
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      db_->RollbackInsert(it->applied);
      insert_results[it->request_index].emplace(persisted);
    }
    mutated = false;
    for (const auto& d : delete_results) {
      if (d.has_value() && d->ok() && **d > 0) mutated = true;
    }
    // Failure classification drives the circuit breaker: persistent errors
    // (disk full, an I/O error that survived the storage retries) poison
    // the writer after K consecutive strikes; corruption poisons at once —
    // re-trying against a corrupt store only grinds it further. Transient
    // failures just count.
    persist_failures_.Increment();
    {
      std::lock_guard<std::mutex> lock(persist_error_mu_);
      last_persist_error_ = persisted;
    }
    const uint64_t strikes = consecutive_persist_failures_.fetch_add(
                                 1, std::memory_order_acq_rel) +
                             1;
    const int threshold = options_.poison_after_persist_failures;
    const FailureClass cls = FailureClassOf(persisted);
    if (threshold > 0 &&
        (cls == FailureClass::kCorruption ||
         (cls == FailureClass::kPersistent &&
          strikes >= static_cast<uint64_t>(threshold)))) {
      poisoned_.store(true, std::memory_order_release);
      poisoned_gauge_.Set(1);
    }
  } else {
    if (!pending.empty()) {
      consecutive_persist_failures_.store(0, std::memory_order_release);
    }
    for (const PendingInsert& p : pending) {
      db_->NoteInsertCommitted(p.applied.result);
    }
  }

  // Replication: the committed effects of this group — inserts that
  // persisted, deletions that removed something — become one LSN-stamped
  // record, appended post-fsync and handed to the sender's sink BEFORE any
  // client promise resolves. An acknowledged write is therefore always in
  // the replication stream (and, with a sync-mode sink, already
  // acknowledged by every healthy follower).
  if (repl_log_ != nullptr && mutated) {
    std::vector<repl::ReplOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const WriteRequest& req = (*group)[i];
      repl::ReplOp op;
      op.target = req.target;
      if (req.kind == WriteRequest::Kind::kDelete) {
        if (!delete_results[i].has_value() || !delete_results[i]->ok() ||
            **delete_results[i] == 0) {
          continue;
        }
        op.kind = repl::ReplOp::Kind::kDelete;
        op.new_id = **delete_results[i];
      } else if (req.kind == WriteRequest::Kind::kInsertBefore ||
                 req.kind == WriteRequest::Kind::kInsertAfter) {
        if (!insert_results[i].has_value() || !insert_results[i]->ok()) {
          continue;
        }
        op.kind = req.kind == WriteRequest::Kind::kInsertBefore
                      ? repl::ReplOp::Kind::kInsertBefore
                      : repl::ReplOp::Kind::kInsertAfter;
        op.new_id = **insert_results[i];
        op.tag = req.tag;
      } else {
        continue;
      }
      ops.push_back(std::move(op));
    }
    if (!ops.empty()) {
      Result<uint64_t> lsn = repl_log_->Append(ops);
      if (lsn.ok()) {
        commit_lsn_.store(*lsn, std::memory_order_release);
        std::lock_guard<std::mutex> lock(sink_mu_);
        if (commit_sink_) {
          commit_sink_(repl::ReplRecord{*lsn, std::move(ops)});
        }
      }
      // An append failure leaves a gap no follower can stream across; the
      // next record a live follower sees will fail to apply (its target id
      // is missing) and force a self-healing re-bootstrap. Rare enough
      // (local-disk I/O error) that the simple path wins.
    }
  }

  // Publish the post-group snapshot before resolving any promise, so a
  // client that waits on its future then queries is guaranteed to see its
  // own write (read-your-writes across the two pipelines).
  if (mutated) PublishSnapshot();

  writes_.Increment(n);
  commit_batch_.Record(n);
  for (size_t i = 0; i < n; ++i) {
    WriteRequest& req = (*group)[i];
    if (req.kind == WriteRequest::Kind::kSnapshot ||
        req.kind == WriteRequest::Kind::kReopen) {
      continue;  // resolved above
    }
    write_ns_.Record(static_cast<uint64_t>(req.queued.ElapsedNanos()));
    if (req.kind == WriteRequest::Kind::kDelete) {
      req.delete_promise.set_value(std::move(*delete_results[i]));
    } else {
      req.insert_promise.set_value(std::move(*insert_results[i]));
    }
  }
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
  req.kind = WriteRequest::Kind::kReopen;
  req.deadline = deadline;
  std::future<Status> fut = req.reopen_promise.get_future();
  EnqueueWrite(std::move(req), /*blocking=*/true, nullptr);
  return fut.get();
}

Result<BootstrapImage> ConcurrentXmlDb::CaptureBootstrap(
    util::Deadline deadline) {
  WriteRequest req;
  req.kind = WriteRequest::Kind::kSnapshot;
  req.deadline = deadline;
  std::future<Result<BootstrapImage>> fut = req.snapshot_promise.get_future();
  EnqueueWrite(std::move(req), /*blocking=*/true, nullptr);
  return fut.get();
}

uint64_t ConcurrentXmlDb::RetryAfterHintMillis() const {
  // Estimate the queue's drain time: depth x mean durable-commit latency,
  // amortized over the group size (a full group commits under one fsync).
  const double depth = static_cast<double>(write_queue_.size()) + 1.0;
  double mean_commit_ns = write_ns_.local()->mean();
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
  publish_ns_.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  const util::CowStats& stats = util::CowStats::Local();
  cow_bytes_copied_.Increment(stats.bytes_copied - last_cow_bytes_);
  cow_chunks_copied_.Increment(stats.chunk_copies - last_cow_chunk_copies_);
  cow_chunks_shared_.Increment(stats.chunks_shared - last_cow_chunks_shared_);
  last_cow_bytes_ = stats.bytes_copied;
  last_cow_chunk_copies_ = stats.chunk_copies;
  last_cow_chunks_shared_ = stats.chunks_shared;
  snapshots_published_.Increment();
  snapshots_live_.Set(static_cast<double>(snapshots_.live_versions()));
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
  if (db_->store_ != nullptr) {
    stats.store_page_writes = db_->store_->io_stats().page_writes;
  }
  return stats;
}

}  // namespace cdbs::engine
