#include "repl/follower.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/socket_io.h"

namespace cdbs::repl {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::unique_ptr<Follower> Follower::Start(FollowerOptions options) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<Follower> f(new Follower(std::move(options)));
  f->receiver_ = std::thread([raw = f.get()] { raw->ReceiverLoop(); });
  return f;
}

Follower::Follower(FollowerOptions options) : options_(std::move(options)) {
  state_gauge_ = registry_.GetGauge(
      "repl.follower.state",
      "Replica lifecycle: 0 connecting, 1 bootstrapping, 2 streaming, "
      "3 promoted, 4 stopped");
  applied_gauge_ = registry_.GetGauge("repl.follower.applied_lsn",
                                      "Last primary LSN fully applied");
  staleness_gauge_ = registry_.GetGauge(
      "repl.follower.staleness_ms",
      "Milliseconds since last observed caught-up with the primary");
  bootstraps_ = registry_.GetCounter("repl.follower.bootstraps",
                                     "Snapshot bootstraps performed");
  records_applied_ = registry_.GetCounter("repl.follower.records_applied",
                                          "Stream records replayed");
  reconnects_ = registry_.GetCounter("repl.follower.reconnects",
                                     "Stream (re)connection attempts");
  stale_reads_rejected_ = registry_.GetCounter(
      "repl.follower.stale_reads_rejected",
      "Reads rejected for exceeding the staleness bound");
}

Follower::~Follower() { Stop(); }

std::shared_ptr<shard::ShardedDb> Follower::db() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_;
}

int64_t Follower::staleness_ms() const {
  const int64_t caught = caught_up_at_ns_.load(std::memory_order_acquire);
  if (caught == 0) return INT64_MAX;
  const int64_t ms = (NowNs() - caught) / 1'000'000;
  return ms > 0 ? ms : 0;
}

Result<std::shared_ptr<shard::ShardedDb>> Follower::ReadableDb(
    int64_t max_staleness_ms) const {
  std::shared_ptr<shard::ShardedDb> current = db();
  if (current == nullptr) {
    return Status::RetryAfter("replica has no snapshot yet");
  }
  if (max_staleness_ms < 0) max_staleness_ms = options_.max_staleness_ms;
  if (max_staleness_ms > 0 && !promoted()) {
    const int64_t stale = staleness_ms();
    staleness_gauge_->Set(static_cast<double>(
        stale == INT64_MAX ? max_staleness_ms : stale));
    if (stale > max_staleness_ms) {
      stale_reads_rejected_->Increment();
      return Status::RetryAfter("replica staleness " +
                                std::to_string(stale) + "ms exceeds bound " +
                                std::to_string(max_staleness_ms) + "ms");
    }
  }
  return current;
}

void Follower::SetState(State s) {
  state_.store(static_cast<int>(s), std::memory_order_release);
  state_gauge_->Set(static_cast<double>(static_cast<int>(s)));
}

void Follower::MarkContact(uint64_t primary_last) {
  uint64_t prev = primary_last_lsn_.load(std::memory_order_relaxed);
  while (prev < primary_last &&
         !primary_last_lsn_.compare_exchange_weak(
             prev, primary_last, std::memory_order_acq_rel)) {
  }
  const uint64_t applied = applied_lsn_.load(std::memory_order_acquire);
  if (applied >= primary_last_lsn_.load(std::memory_order_acquire)) {
    caught_up_at_ns_.store(NowNs(), std::memory_order_release);
    staleness_gauge_->Set(0);
  }
  applied_gauge_->Set(static_cast<double>(applied));
}

void Follower::ReceiverLoop() {
  while (!halt_.load(std::memory_order_acquire)) {
    RunOnce();
    if (halt_.load(std::memory_order_acquire)) break;
    SetState(State::kConnecting);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.reconnect_backoff_ms));
  }
}

void Follower::RunOnce() {
  reconnects_->Increment();
  Result<int> fd_or = net::ConnectTcp(options_.primary_host,
                                      options_.primary_port,
                                      options_.connect_timeout_ms);
  if (!fd_or.ok()) return;
  const int fd = *fd_or;
  stream_fd_.store(fd, std::memory_order_release);
  uint64_t request_id = 1;

  const auto close_fd = [&] {
    stream_fd_.store(-1, std::memory_order_release);
    ::close(fd);
  };

  // Negotiate features first so the (potentially huge) bootstrap blob and
  // the commit stream ride compressed frames (docs/ENCODING.md).
  if (options_.enable_compression && !hello_unsupported_) {
    net::Request hreq;
    hreq.op = net::Opcode::kHello;
    hreq.request_id = request_id++;
    hreq.target = net::kFeatureCompressedFrames;
    std::string hpayload;
    net::Response hresp;
    const bool negotiated =
        net::WriteFrame(fd, net::EncodeFrame(net::EncodeRequest(hreq)),
                        options_.io_timeout_ms)
            .ok() &&
        net::ReadFrame(fd, &hpayload, options_.io_timeout_ms).ok() &&
        net::DecodeResponse(hpayload, &hresp).ok() &&
        hresp.code == StatusCode::kOk && hresp.op == net::Opcode::kHello;
    if (!negotiated) {
      // An old primary answers the unknown opcode with an error and drops
      // the connection. Remember, reconnect plain on the next attempt.
      hello_unsupported_ = true;
      close_fd();
      return;
    }
  }

  if (need_bootstrap_ || db() == nullptr) {
    SetState(State::kBootstrapping);
    if (!Bootstrap(fd).ok()) {
      close_fd();
      return;
    }
    need_bootstrap_ = false;
  }

  // Subscribe from the record after the last one applied, declaring which
  // primary incarnation those coordinates belong to.
  net::Request sub;
  sub.op = net::Opcode::kSubscribe;
  sub.request_id = request_id++;
  sub.target = applied_lsn_.load(std::memory_order_acquire) + 1;
  sub.epoch = primary_epoch_;
  if (!net::WriteFrame(fd, net::EncodeFrame(net::EncodeRequest(sub)),
                       options_.io_timeout_ms)
           .ok()) {
    close_fd();
    return;
  }
  std::string payload;
  if (!net::ReadFrame(fd, &payload, options_.io_timeout_ms).ok()) {
    close_fd();
    return;
  }
  net::Response hello;
  if (!net::DecodeResponse(payload, &hello).ok()) {
    close_fd();
    return;
  }
  if (hello.code == StatusCode::kOutOfRange) {
    // Fell behind the retention window (or wrong epoch): the log cannot
    // catch us up. Reconnect and bootstrap a fresh snapshot.
    need_bootstrap_ = true;
    close_fd();
    return;
  }
  if (hello.code != StatusCode::kOk) {
    close_fd();
    return;
  }

  SetState(State::kStreaming);
  while (!halt_.load(std::memory_order_acquire)) {
    if (!net::ReadFrame(fd, &payload, options_.io_timeout_ms).ok()) break;
    net::Response batch;
    if (!net::DecodeResponse(payload, &batch).ok()) break;
    if (batch.op != net::Opcode::kReplBatch) break;
    if (batch.epoch != primary_epoch_) {
      // The primary restarted (or someone else was promoted) mid-stream:
      // its LSNs are a new coordinate space. Start over with a snapshot.
      need_bootstrap_ = true;
      break;
    }
    if (batch.blob.empty()) {
      // Heartbeat: id_or_count carries the primary's current last LSN.
      MarkContact(batch.id_or_count);
      continue;
    }
    const uint64_t lsn = batch.id_or_count;
    if (lsn > applied_lsn_.load(std::memory_order_acquire)) {
      std::vector<ReplOp> ops;
      if (!DecodeReplOps(batch.blob, &ops).ok()) {
        need_bootstrap_ = true;
        break;
      }
      std::shared_ptr<shard::ShardedDb> current = db();
      if (current == nullptr ||
          !ApplyRecord(current->shard(0), lsn, ops).ok()) {
        // Divergence (or a half-dead replica db): the only safe repair is
        // a fresh snapshot — logical replay must match ids exactly.
        need_bootstrap_ = true;
        break;
      }
      applied_lsn_.store(lsn, std::memory_order_release);
      records_applied_->Increment();
    }
    // Ack what we have applied — duplicates from catch-up overlap still
    // refresh the primary's view of us.
    net::Request ack;
    ack.op = net::Opcode::kReplAck;
    ack.request_id = request_id++;
    ack.target = applied_lsn_.load(std::memory_order_acquire);
    if (!net::WriteFrame(fd, net::EncodeFrame(net::EncodeRequest(ack)),
                         options_.io_timeout_ms)
             .ok()) {
      break;
    }
    MarkContact(std::max(batch.id_or_count, primary_last_lsn()));
  }
  close_fd();
}

Status Follower::Bootstrap(int fd) {
  net::Request req;
  req.op = net::Opcode::kBootstrap;
  req.request_id = 1;
  CDBS_RETURN_NOT_OK(net::WriteFrame(fd,
                                     net::EncodeFrame(net::EncodeRequest(req)),
                                     options_.io_timeout_ms));
  std::string payload;
  CDBS_RETURN_NOT_OK(net::ReadFrame(fd, &payload, options_.io_timeout_ms));
  net::Response resp;
  CDBS_RETURN_NOT_OK(net::DecodeResponse(payload, &resp));
  if (resp.code != StatusCode::kOk) {
    return Status(resp.code, resp.message);
  }

  // Tear down the previous replica before reopening its storage paths.
  std::shared_ptr<shard::ShardedDb> old;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    old = std::move(db_);
    db_ = nullptr;
  }
  if (old != nullptr) old->Shutdown();

  // The blob carries the primary shard's id-space history, not just the
  // tree: OpenFromImage rebuilds a bit-identical id space so replica reads
  // return the primary's ids and the op stream keeps applying cleanly.
  engine::BootstrapSpec spec;
  CDBS_RETURN_NOT_OK(DecodeBootstrapSpec(resp.blob, &spec));
  Result<std::unique_ptr<shard::ShardedDb>> fresh =
      shard::ShardedDb::OpenFromImage(spec, options_.db);
  if (!fresh.ok()) return fresh.status();
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    db_ = std::move(*fresh);
  }
  applied_lsn_.store(resp.id_or_count, std::memory_order_release);
  primary_epoch_ = resp.epoch;
  bootstraps_->Increment();
  MarkContact(resp.id_or_count);
  return Status::OK();
}

Status Follower::ApplyRecord(engine::ConcurrentXmlDb* shard, uint64_t lsn,
                             const std::vector<ReplOp>& ops) {
  for (const ReplOp& op : ops) {
    Result<uint64_t> replayed =
        shard
            ->Submit({op.kind, static_cast<engine::NodeId>(op.target), op.tag})
            .get();
    if (!replayed.ok()) {
      return Status::Corruption("replica replay failed at lsn " +
                                std::to_string(lsn) + ": " +
                                replayed.status().ToString());
    }
    // An insert must re-derive the primary's node id, a delete remove as
    // many nodes; anything else means the replica diverged.
    if (*replayed != op.new_id) {
      return Status::Corruption(
          "replica diverged at lsn " + std::to_string(lsn) + ": replayed " +
          std::to_string(*replayed) + " != primary " +
          std::to_string(op.new_id));
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<shard::ShardedDb>> Follower::Promote() {
  std::shared_ptr<shard::ShardedDb> current = db();
  if (current == nullptr) {
    return Status::RetryAfter("replica has no snapshot to promote");
  }
  halt_.store(true, std::memory_order_release);
  const int fd = stream_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (receiver_.joinable()) receiver_.join();
  SetState(State::kPromoted);
  return current;
}

void Follower::Stop() {
  const bool was_promoted = promoted();
  halt_.store(true, std::memory_order_release);
  const int fd = stream_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (receiver_.joinable()) receiver_.join();
  if (!was_promoted) {
    // A promoted corpus belongs to its new callers; an unpromoted replica
    // dies with its follower.
    std::shared_ptr<shard::ShardedDb> current = db();
    if (current != nullptr) current->Shutdown();
    SetState(State::kStopped);
  }
}

}  // namespace cdbs::repl
