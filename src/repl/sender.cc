#include "repl/sender.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "net/socket_io.h"
#include "util/deadline.h"
#include "util/failpoint.h"

namespace cdbs::repl {

namespace {

/// How many buffered records one socket write round drains at most.
constexpr size_t kStreamBatch = 64;

/// Budget for reading one ack frame that poll() says is ready.
constexpr int kAckReadMs = 250;

net::Response MakeBatchResponse(uint64_t lsn, uint64_t epoch,
                                std::string blob) {
  net::Response resp;
  resp.op = net::Opcode::kReplBatch;
  resp.code = StatusCode::kOk;
  resp.id_or_count = lsn;
  resp.epoch = epoch;
  resp.blob = std::move(blob);
  return resp;
}

}  // namespace

ReplicationSender::ReplicationSender(engine::ConcurrentXmlDb* db,
                                     ReplicationSenderOptions options)
    : db_(db), options_(options) {
  obs::MetricRegistry& reg = db_->registry();
  followers_gauge_ = reg.GetGauge("repl.followers",
                                  "Currently subscribed followers");
  records_sent_ = reg.GetCounter("repl.records_sent",
                                 "Replication records written to streams");
  bytes_sent_ = reg.GetCounter("repl.bytes_sent",
                               "Replication frame bytes written");
  heartbeats_ = reg.GetCounter("repl.heartbeats",
                               "Heartbeat frames written to streams");
  followers_dropped_ =
      reg.GetCounter("repl.followers_dropped",
                     "Followers dropped (slow, torn stream, or ack timeout)");
  sync_ack_timeouts_ =
      reg.GetCounter("repl.sync_ack_timeouts",
                     "Sync-commit waits that timed out and dropped laggards");
  lag_records_ =
      reg.GetGauge("repl.lag.records",
                   "Commit LSN minus the slowest live follower's acked LSN");
  lag_bytes_ =
      reg.GetGauge("repl.lag.bytes",
                   "Frame bytes buffered for the slowest live follower");
  lag_ms_ = reg.GetGauge(
      "repl.lag.ms",
      "Commit-to-ack latency of the most recently acked record, ms");
}

ReplicationSender::~ReplicationSender() { Stop(); }

void ReplicationSender::Attach() {
  db_->SetCommitSink([this](const ReplRecord& record) { OnCommit(record); });
}

void ReplicationSender::OnCommit(const ReplRecord& record) {
  if (stopped_.load(std::memory_order_acquire)) return;
  net::Response resp = MakeBatchResponse(record.lsn, db_->replication_log()->epoch(),
                                         EncodeReplOps(record.ops));
  QueuedRecord item;
  item.lsn = record.lsn;
  item.committed_at = std::chrono::steady_clock::now();
  item.frame = std::make_shared<const std::string>(
      net::EncodeFrame(net::EncodeResponse(resp)));

  std::unique_lock<std::mutex> lock(mu_);
  for (const std::shared_ptr<FollowerState>& f : followers_) {
    if (f->dropped.load(std::memory_order_acquire)) continue;
    if (!f->queue.TryPush(QueuedRecord(item))) {
      // Buffer full: the follower is slower than the commit stream.
      // Dropping it is the bounded-memory contract — it resubscribes from
      // its last applied LSN and catches up from the log (or bootstraps).
      DropFollower(f.get(), "buffer overflow");
    }
  }
  if (options_.sync_commit) {
    // Hold the commit (and therefore the client's OK) until every live
    // follower has acknowledged this LSN. Laggards that miss the timeout
    // are dropped so one dead follower cannot wedge the write pipeline.
    const auto all_acked = [&] {
      for (const std::shared_ptr<FollowerState>& f : followers_) {
        if (f->dropped.load(std::memory_order_acquire)) continue;
        if (f->acked_lsn.load(std::memory_order_acquire) < record.lsn) {
          return false;
        }
      }
      return true;
    };
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.ack_timeout_ms);
    const bool acked = ack_cv_.wait_until(lock, deadline, [&] {
      return stopped_.load(std::memory_order_acquire) || all_acked();
    });
    if (!acked && !stopped_.load(std::memory_order_acquire)) {
      sync_ack_timeouts_->Increment();
      for (const std::shared_ptr<FollowerState>& f : followers_) {
        if (f->dropped.load(std::memory_order_acquire)) continue;
        if (f->acked_lsn.load(std::memory_order_acquire) < record.lsn) {
          DropFollower(f.get(), "sync ack timeout");
        }
      }
    }
  }
}

void ReplicationSender::DropFollower(FollowerState* f, const char* /*why*/) {
  if (f->dropped.exchange(true, std::memory_order_acq_rel)) return;
  followers_dropped_->Increment();
  f->queue.Close();
  // Shock the socket so a stream thread blocked in write/poll — and the
  // follower's reader on the other end — sees the drop now, not at the
  // next timeout.
  const int fd = f->fd.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  ack_cv_.notify_all();
}

bool ReplicationSender::DrainAcks(int fd, FollowerState* f) {
  while (true) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 0);
    if (rc < 0) return false;
    if (rc == 0) return true;  // nothing waiting
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & POLLIN) == 0) {
      return false;
    }
    std::string payload;
    bool clean_eof = false;
    if (!net::ReadFrame(fd, &payload, kAckReadMs, &clean_eof).ok()) {
      return false;
    }
    net::Request req;
    if (!net::DecodeRequest(payload, &req).ok() ||
        req.op != net::Opcode::kReplAck) {
      return false;  // protocol violation: only acks flow upstream
    }
    uint64_t prev = f->acked_lsn.load(std::memory_order_relaxed);
    while (prev < req.target &&
           !f->acked_lsn.compare_exchange_weak(prev, req.target,
                                               std::memory_order_acq_rel)) {
    }
    ack_cv_.notify_all();
    UpdateLagMetrics();
  }
}

void ReplicationSender::UpdateLagMetrics() {
  const uint64_t commit = db_->commit_lsn();
  uint64_t min_acked = UINT64_MAX;
  size_t max_backlog = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<FollowerState>& f : followers_) {
      if (f->dropped.load(std::memory_order_acquire)) continue;
      min_acked = std::min(
          min_acked, f->acked_lsn.load(std::memory_order_acquire));
      max_backlog = std::max(max_backlog, f->queue.size());
    }
  }
  if (min_acked == UINT64_MAX) {
    lag_records_->Set(0);
    lag_bytes_->Set(0);
    return;
  }
  lag_records_->Set(commit > min_acked
                       ? static_cast<double>(commit - min_acked)
                       : 0);
  // Approximate byte lag by the deepest queue backlog in records times a
  // nominal frame size; precise per-byte accounting is not worth a second
  // pass over the queues.
  lag_bytes_->Set(static_cast<double>(max_backlog) * 64);
}

void ReplicationSender::RunFollowerStream(int fd, const net::Request& req) {
  ReplicationLog* log = db_->replication_log();
  net::Response hello;
  hello.request_id = req.request_id;
  hello.op = net::Opcode::kSubscribe;
  if (log == nullptr) {
    hello.code = StatusCode::kInvalidArgument;
    hello.message = "replication is not enabled on this server";
    static_cast<void>(net::WriteFrame(
        fd, net::EncodeFrame(net::EncodeResponse(hello)),
        options_.write_timeout_ms));
    return;
  }
  hello.epoch = log->epoch();
  if (req.epoch != 0 && req.epoch != log->epoch()) {
    // The follower's LSNs are coordinates in a different primary
    // incarnation's stream; they mean nothing here. Bootstrap.
    hello.code = StatusCode::kOutOfRange;
    hello.message = "epoch mismatch; bootstrap required";
    static_cast<void>(net::WriteFrame(
        fd, net::EncodeFrame(net::EncodeResponse(hello)),
        options_.write_timeout_ms));
    return;
  }

  // Register FIRST, then read the log: a record committed between the two
  // steps lands in the queue AND in the catch-up read. Duplicates are fine
  // (the follower dedups by LSN); a gap would not be.
  auto follower =
      std::make_shared<FollowerState>(options_.follower_buffer_records);
  follower->fd.store(fd, std::memory_order_release);
  const uint64_t from_lsn = std::max<uint64_t>(req.target, 1);
  follower->acked_lsn.store(from_lsn - 1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_.load(std::memory_order_acquire)) return;
    followers_.push_back(follower);
    followers_gauge_->Set(static_cast<double>(followers_.size()));
  }

  std::vector<ReplRecord> backlog;
  Status catch_up = log->ReadFrom(from_lsn, &backlog);
  uint64_t last_sent = from_lsn - 1;
  bool healthy = true;
  if (catch_up.code() == StatusCode::kOutOfRange) {
    hello.code = StatusCode::kOutOfRange;
    hello.message = catch_up.message();
    static_cast<void>(net::WriteFrame(
        fd, net::EncodeFrame(net::EncodeResponse(hello)),
        options_.write_timeout_ms));
    healthy = false;
  } else if (!catch_up.ok()) {
    hello.code = catch_up.code();
    hello.message = catch_up.message();
    static_cast<void>(net::WriteFrame(
        fd, net::EncodeFrame(net::EncodeResponse(hello)),
        options_.write_timeout_ms));
    healthy = false;
  } else {
    hello.code = StatusCode::kOk;
    hello.id_or_count = log->last_lsn();
    healthy = net::WriteFrame(fd, net::EncodeFrame(net::EncodeResponse(hello)),
                              options_.write_timeout_ms)
                  .ok();
  }

  // Catch-up: everything retained since the follower's cursor.
  for (const ReplRecord& rec : backlog) {
    if (!healthy) break;
    net::Response batch =
        MakeBatchResponse(rec.lsn, log->epoch(), EncodeReplOps(rec.ops));
    const std::string frame = net::EncodeFrame(net::EncodeResponse(batch));
    if (!net::WriteFrame(fd, frame, options_.write_timeout_ms).ok()) {
      healthy = false;
      break;
    }
    records_sent_->Increment();
    bytes_sent_->Increment(frame.size());
    last_sent = rec.lsn;
  }

  // Live stream: drain the buffer, heartbeat when idle, read acks.
  std::vector<QueuedRecord> batch;
  while (healthy && !stopped_.load(std::memory_order_acquire) &&
         !follower->dropped.load(std::memory_order_acquire)) {
    batch.clear();
    bool closed = false;
    follower->queue.PopBatchUntil(
        &batch, kStreamBatch,
        util::Deadline::AfterMillis(options_.heartbeat_ms), &closed);
    if (closed) break;
    if (batch.empty()) {
      // Idle: heartbeat with the primary's current last LSN so the
      // follower can measure its own staleness.
      net::Response hb = MakeBatchResponse(db_->commit_lsn(), log->epoch(),
                                           std::string());
      const std::string frame = net::EncodeFrame(net::EncodeResponse(hb));
      if (!net::WriteFrame(fd, frame, options_.write_timeout_ms).ok()) break;
      heartbeats_->Increment();
    }
    for (const QueuedRecord& rec : batch) {
      // The register-then-read handoff can duplicate records the catch-up
      // already sent; skip them here (cheaper than a follower round trip).
      if (rec.lsn <= last_sent) continue;
      // Chaos surface: the same failpoints the request path honours, so
      // the replication chaos tests can delay, drop and corrupt the
      // stream without new plumbing.
      static_cast<void>(CDBS_FAILPOINT("net.conn.delay"));
      if (CDBS_FAILPOINT("net.conn.drop")) {
        healthy = false;
        break;
      }
      std::string frame = *rec.frame;
      if (CDBS_FAILPOINT("net.frame.corrupt") && !frame.empty()) {
        frame[frame.size() / 2] =
            static_cast<char>(frame[frame.size() / 2] ^ 0x40);
      }
      if (!net::WriteFrame(fd, frame, options_.write_timeout_ms).ok()) {
        healthy = false;
        break;
      }
      records_sent_->Increment();
      bytes_sent_->Increment(frame.size());
      last_sent = rec.lsn;
      const auto now = std::chrono::steady_clock::now();
      lag_ms_->Set(static_cast<double>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - rec.committed_at)
              .count()));
    }
    if (healthy && !DrainAcks(fd, follower.get())) healthy = false;
  }

  DropFollower(follower.get(), "stream ended");
  {
    std::lock_guard<std::mutex> lock(mu_);
    followers_.erase(
        std::remove(followers_.begin(), followers_.end(), follower),
        followers_.end());
    followers_gauge_->Set(static_cast<double>(followers_.size()));
  }
  UpdateLagMetrics();
}

void ReplicationSender::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  db_->SetCommitSink(nullptr);
  std::vector<std::shared_ptr<FollowerState>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    followers = followers_;
  }
  for (const std::shared_ptr<FollowerState>& f : followers) {
    DropFollower(f.get(), "sender stopped");
  }
  ack_cv_.notify_all();
}

size_t ReplicationSender::follower_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return followers_.size();
}

uint64_t ReplicationSender::min_acked_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min_acked = UINT64_MAX;
  for (const std::shared_ptr<FollowerState>& f : followers_) {
    if (f->dropped.load(std::memory_order_acquire)) continue;
    min_acked =
        std::min(min_acked, f->acked_lsn.load(std::memory_order_acquire));
  }
  return min_acked == UINT64_MAX ? 0 : min_acked;
}

}  // namespace cdbs::repl
