#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "net/socket_io.h"
#include "repl/replication.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace cdbs::net {

namespace {

/// Poll interval for loops that must notice the stop flag.
constexpr int kStopPollMs = 50;

util::Deadline DeadlineFromRequest(const Request& req) {
  return req.deadline_ms == 0
             ? util::Deadline::Infinite()
             : util::Deadline::AfterMillis(req.deadline_ms);
}

obs::SpanOutcome OutcomeFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return obs::SpanOutcome::kOk;
    case StatusCode::kRetryAfter:
      return obs::SpanOutcome::kShed;
    case StatusCode::kDeadlineExceeded:
      return obs::SpanOutcome::kDeadline;
    default:
      return obs::SpanOutcome::kError;
  }
}

}  // namespace

int ApplyDrainMsKnob(const char* raw, int drain_timeout_ms) {
  if (raw == nullptr || raw[0] == '\0') return drain_timeout_ms;
  // Strict parse, same discipline as the CDBS_TRACE_* knobs: the whole
  // string must be one non-negative integer, or the knob is ignored.
  int parsed = 0;
  const char* end = raw + std::strlen(raw);
  const auto [ptr, ec] = std::from_chars(raw, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < 0) {
    std::fprintf(stderr,
                 "warning: ignoring CDBS_NET_DRAIN_MS=\"%s\" (want a whole "
                 "non-negative integer); using default %d\n",
                 raw, drain_timeout_ms);
    return drain_timeout_ms;
  }
  return parsed;
}

Result<std::unique_ptr<Server>> Server::Start(engine::ConcurrentXmlDb* db,
                                              const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(db, nullptr, nullptr, options));
  CDBS_RETURN_NOT_OK(server->Listen());
  server->MaybeAttachSender(db);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Result<std::unique_ptr<Server>> Server::StartReplica(
    repl::Follower* follower, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(nullptr, follower, nullptr,
                                            options));
  CDBS_RETURN_NOT_OK(server->Listen());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Result<std::unique_ptr<Server>> Server::StartSharded(
    shard::ShardedDb* db, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(nullptr, nullptr, db, options));
  CDBS_RETURN_NOT_OK(server->Listen());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::Server(engine::ConcurrentXmlDb* db, repl::Follower* follower,
               shard::ShardedDb* sharded, const ServerOptions& options)
    : db_(db), follower_(follower), sharded_(sharded), options_(options) {
  options_.drain_timeout_ms = ApplyDrainMsKnob(
      std::getenv("CDBS_NET_DRAIN_MS"), options_.drain_timeout_ms);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  requests_ = reg.GetCounter("serve.requests", "Requests served (any outcome)");
  shed_ = reg.GetCounter("serve.requests_shed",
                         "Requests shed with kRetryAfter (queue full)");
  deadline_exceeded_ =
      reg.GetCounter("serve.deadline_exceeded",
                     "Requests that expired before or during execution");
  connections_total_ =
      reg.GetCounter("net.connections_total", "Connections ever accepted");
  connections_dropped_ = reg.GetCounter(
      "net.connections_dropped",
      "Connections dropped (cap, timeout, fault, or torn stream)");
  connections_active_ =
      reg.GetGauge("net.connections_active", "Connections currently served");
  request_ns_ = reg.GetHistogram("serve.request.ns",
                                 "Server-side wall time per request");
}

Server::~Server() { Shutdown(); }

void Server::MaybeAttachSender(engine::ConcurrentXmlDb* db) {
  if (db == nullptr || db->replication_log() == nullptr) return;
  std::lock_guard<std::mutex> lock(repl_mu_);
  if (sender_ != nullptr) return;
  sender_ = std::make_unique<repl::ReplicationSender>(db, options_.repl);
  sender_->Attach();
}

engine::ConcurrentXmlDb* Server::WriteDb(
    std::shared_ptr<engine::ConcurrentXmlDb>* pin) {
  if (follower_ == nullptr) return db_;
  std::lock_guard<std::mutex> lock(repl_mu_);
  if (promoted_db_ == nullptr) return nullptr;
  *pin = promoted_db_;
  return pin->get();
}

Status Server::Listen() {
  Result<int> fd =
      ListenTcp(options_.host, options_.port, /*backlog=*/128, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, kStopPollMs);
    if (rc <= 0) continue;  // timeout, EINTR, or transient poll error
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_total_->Increment();
    if (CDBS_FAILPOINT("net.accept.io_error")) {
      // Chaos: the accept "failed" — the client sees an immediate close.
      ::close(fd);
      connections_dropped_->Increment();
      continue;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapFinishedLocked();
    if (conns_.size() >= options_.max_connections) {
      // At the cap: shed the connection instead of queueing unboundedly.
      ::close(fd);
      connections_dropped_->Increment();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    connections_active_->Set(
        static_cast<double>(active_connections_.load()));
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(conn));
  }
}

void Server::ServeConnection(Connection* conn) {
  bool dropped = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::string payload;
    bool clean_eof = false;
    const Status read = ReadFrame(conn->fd, &payload,
                                  options_.read_timeout_ms, &clean_eof);
    if (!read.ok()) {
      // Clean between-frames EOF is a normal hangup; everything else
      // (idle timeout, torn frame, socket error) counts as a drop.
      dropped = !clean_eof;
      break;
    }
    // Chaos: per-request latency injection (arm with a delay= spec).
    static_cast<void>(CDBS_FAILPOINT("net.conn.delay"));
    if (CDBS_FAILPOINT("net.conn.drop")) {
      dropped = true;
      break;
    }
    Request req;
    Response resp;
    util::Stopwatch parse_timer;
    const Status decoded = DecodeRequest(payload, &req);
    const uint64_t parse_ns =
        static_cast<uint64_t>(parse_timer.ElapsedNanos());
    if (!decoded.ok()) {
      // Undecodable payload behind a valid CRC: a client bug, not line
      // noise. Answer with the error (request id unknown → 0) and drop.
      resp.code = decoded.code();
      resp.message = decoded.message();
      std::string frame = EncodeFrame(EncodeResponse(resp));
      static_cast<void>(
          WriteFrame(conn->fd, frame, options_.write_timeout_ms));
      dropped = true;
      break;
    }
    if (req.op == Opcode::kHello) {
      // Feature negotiation (docs/ENCODING.md). Answer with the subset of
      // offered bits this server speaks; the reply itself is always a
      // plain frame (the peer only starts compressing — and expecting
      // compressed frames — after it has read the accepted bits).
      resp.request_id = req.request_id;
      resp.op = req.op;
      resp.id_or_count = req.target & kFeatureCompressedFrames;
      requests_->Increment();
      if (!WriteFrame(conn->fd, EncodeFrame(EncodeResponse(resp)),
                      options_.write_timeout_ms)
               .ok()) {
        dropped = true;
        break;
      }
      conn->compress = (resp.id_or_count & kFeatureCompressedFrames) != 0;
      continue;
    }
    if (req.op == Opcode::kSubscribe) {
      // Hand the connection to the replication sender: from here on it is
      // a one-way push stream (plus kReplAck frames flowing back), not a
      // request/response loop. The connection ends when the stream does.
      repl::ReplicationSender* sender = nullptr;
      {
        std::lock_guard<std::mutex> lock(repl_mu_);
        sender = sender_.get();
      }
      if (sender != nullptr) {
        requests_->Increment();
        conn->stream.store(true, std::memory_order_release);
        sender->RunFollowerStream(conn->fd, req, conn->compress);
      } else {
        Response resp;
        resp.request_id = req.request_id;
        resp.op = req.op;
        resp.code = follower_ != nullptr ? StatusCode::kNotLeader
                                         : StatusCode::kInvalidArgument;
        resp.message = "this node does not serve replication streams";
        static_cast<void>(WriteFrame(conn->fd,
                                     EncodeFrame(EncodeResponse(resp)),
                                     options_.write_timeout_ms));
      }
      break;
    }
    util::Stopwatch timer;
    {
      // The request's trace envelope: installs this thread's TraceScope,
      // ends the request (and retains its spans if sampled or slow) at
      // scope exit. A request arriving without an id — a bare connection —
      // gets a server-minted one.
      obs::RequestTrace trace(req.trace_id);
      if (trace.active()) {
        obs::Tracer::Instance().RecordSpan(
            trace.trace_id(), obs::SpanName::kParse,
            obs::Tracer::NowNs() - parse_ns, parse_ns,
            obs::SpanOutcome::kOk);
      }
      resp = Execute(req);
      trace.set_outcome(OutcomeFromStatus(resp.code));
    }
    requests_->Increment();
    request_ns_->Record(static_cast<uint64_t>(timer.ElapsedNanos()));
    if (resp.code == StatusCode::kRetryAfter) shed_->Increment();
    if (resp.code == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_->Increment();
    }
    std::string frame = EncodeFrame(EncodeResponse(resp), conn->compress);
    if (CDBS_FAILPOINT("net.frame.corrupt") && !frame.empty()) {
      // Chaos: flip one payload byte. The CRC no longer matches, so the
      // client must detect the tear instead of trusting the bytes.
      frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^
                                                  0x40);
    }
    if (!WriteFrame(conn->fd, frame, options_.write_timeout_ms).ok()) {
      dropped = true;
      break;
    }
  }
  // Sever the stream but leave the fd open: the owner closes it after
  // joining this thread (ReapFinishedLocked / Shutdown), so a concurrent
  // Shutdown can never ::shutdown a recycled descriptor.
  ::shutdown(conn->fd, SHUT_RDWR);
  if (dropped) connections_dropped_->Increment();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  connections_active_->Set(static_cast<double>(active_connections_.load()));
  conn->done.store(true, std::memory_order_release);
}

Response Server::Execute(const Request& req) {
  Response resp;
  resp.request_id = req.request_id;
  resp.op = req.op;
  const util::Deadline deadline = DeadlineFromRequest(req);
  if (deadline.expired()) {
    // The caller's budget was spent before we even dispatched (queued
    // behind a slow frame, overloaded accept path): shed it now rather
    // than bill the engine for an answer nobody is waiting for.
    resp.code = StatusCode::kDeadlineExceeded;
    resp.message = "deadline expired before dispatch";
    return resp;
  }

  if (sharded_ != nullptr) {
    return ExecuteSharded(req, deadline, std::move(resp));
  }

  // Route the request. A replica serves reads from the follower's current
  // database (pinned so a concurrent re-bootstrap cannot free it) and
  // bounces writes to the primary; once promoted it serves both.
  std::shared_ptr<engine::ConcurrentXmlDb> pin;
  engine::ConcurrentXmlDb* write_db = WriteDb(&pin);
  engine::ConcurrentXmlDb* read_db = write_db;
  if (read_db == nullptr && follower_ != nullptr &&
      (req.op == Opcode::kQuery || req.op == Opcode::kCount)) {
    Result<std::shared_ptr<engine::ConcurrentXmlDb>> replica =
        follower_->ReadableDb();
    if (!replica.ok()) {
      resp.code = replica.status().code();
      resp.message = replica.status().message();
      if (resp.code == StatusCode::kRetryAfter) resp.retry_after_ms = 50;
      return resp;
    }
    pin = std::move(*replica);
    read_db = pin.get();
  }

  auto fill_error = [&](const Status& st) {
    resp.code = st.code();
    resp.message = st.message();
    // kRetryAfter (queue full) and kUnavailable (breaker tripped /
    // degraded) both carry a backoff hint so clients retry on a schedule
    // instead of hammering a sick server (docs/ROBUSTNESS.md).
    if ((st.code() == StatusCode::kRetryAfter ||
         st.code() == StatusCode::kUnavailable) &&
        write_db != nullptr) {
      resp.retry_after_ms =
          static_cast<uint32_t>(write_db->RetryAfterHintMillis());
    }
  };
  auto not_leader = [&] {
    resp.code = StatusCode::kNotLeader;
    resp.message = "this node is a replica; send writes to the primary";
  };

  switch (req.op) {
    case Opcode::kPing:
      break;
    case Opcode::kStats:
      // The process-wide registry: serve.* / net.* live here, alongside the
      // engine's global mirrors — one place to see the whole serving stack.
      resp.stats_json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.stats");
      break;
    case Opcode::kIntrospect:
      resp.stats_json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.introspect");
      resp.traces_json = obs::Tracer::Instance().ToChromeJson();
      break;
    case Opcode::kQuery: {
      Result<std::vector<engine::NodeId>> r =
          read_db->SubmitQuery(req.xpath, deadline).get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.node_ids.assign(r->begin(), r->end());
      break;
    }
    case Opcode::kCount: {
      // Unsharded servers answer kCount too — one logical "shard" — so a
      // shard-aware client works against any server.
      Result<std::vector<uint64_t>> r =
          read_db->SubmitCount(req.xpath, {0}, deadline).get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = (*r)[0];
      resp.shard_counts.push_back({0, StatusCode::kOk, (*r)[0], ""});
      break;
    }
    case Opcode::kInsertBefore:
    case Opcode::kInsertAfter: {
      if (write_db == nullptr) {
        not_leader();
        break;
      }
      // Admission-controlled: a full queue sheds with retry-after instead
      // of blocking this connection's thread behind the writer.
      Result<engine::NodeId> r =
          req.op == Opcode::kInsertAfter
              ? write_db
                    ->TrySubmitInsertAfter(req.target, req.tag, nullptr,
                                           deadline)
                    .get()
              : write_db
                    ->TrySubmitInsertBefore(req.target, req.tag, nullptr,
                                            deadline)
                    .get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = *r;
      break;
    }
    case Opcode::kDelete: {
      if (write_db == nullptr) {
        not_leader();
        break;
      }
      Result<uint64_t> r =
          write_db->TrySubmitDelete(req.target, nullptr, deadline).get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = *r;
      break;
    }
    case Opcode::kBootstrap: {
      if (write_db == nullptr) {
        not_leader();
        break;
      }
      if (write_db->replication_log() == nullptr) {
        resp.code = StatusCode::kInvalidArgument;
        resp.message = "replication is not enabled on this server";
        break;
      }
      Result<engine::BootstrapImage> image =
          write_db->CaptureBootstrap(deadline);
      if (!image.ok()) {
        fill_error(image.status());
        break;
      }
      std::string blob = repl::EncodeBootstrapSpec(image->spec);
      if (blob.size() > kMaxFramePayloadBytes - 1024) {
        resp.code = StatusCode::kOutOfRange;
        resp.message = "document too large for a wire bootstrap";
        break;
      }
      resp.blob = std::move(blob);
      resp.id_or_count = image->lsn;
      resp.epoch = image->epoch;
      break;
    }
    case Opcode::kPromote: {
      if (follower_ == nullptr) {
        resp.code = StatusCode::kInvalidArgument;
        resp.message = "this node is already a primary";
        break;
      }
      Result<std::shared_ptr<engine::ConcurrentXmlDb>> promoted =
          follower_->Promote();
      if (!promoted.ok()) {
        fill_error(promoted.status());
        break;
      }
      {
        std::lock_guard<std::mutex> lock(repl_mu_);
        promoted_db_ = *promoted;
      }
      // The promoted database is a primary now: serve follower streams
      // from it (its own replication log, its own epoch — subscribers of
      // the old primary will epoch-mismatch into a bootstrap, which is
      // exactly right after a failover).
      MaybeAttachSender(promoted->get());
      resp.id_or_count = (*promoted)->commit_lsn();
      resp.epoch = (*promoted)->replication_log() != nullptr
                       ? (*promoted)->replication_log()->epoch()
                       : 0;
      break;
    }
    case Opcode::kSubscribe:
    case Opcode::kReplBatch:
    case Opcode::kReplAck:
    case Opcode::kHello:
      // kSubscribe and kHello are intercepted in ServeConnection; the
      // other two only ever travel primary→follower / follower→primary
      // inside a stream.
      resp.code = StatusCode::kInvalidArgument;
      resp.message = "replication stream opcode outside a stream";
      break;
  }
  return resp;
}

Response Server::ExecuteSharded(const Request& req, util::Deadline deadline,
                                Response resp) {
  auto fill_error = [&](const Status& st) {
    resp.code = st.code();
    resp.message = st.message();
    // Like the unsharded path: a breaker-tripped kUnavailable carries the
    // supervisor's recovery-schedule hint (a pre-execution bounce, so the
    // retry is always safe).
    if ((st.code() == StatusCode::kRetryAfter ||
         st.code() == StatusCode::kUnavailable) &&
        req.doc_id != Request::kNoDoc) {
      resp.retry_after_ms = static_cast<uint32_t>(
          sharded_->RetryAfterHintMillis(req.doc_id));
    }
  };
  // Node ids are per-shard, so a node-addressed request without a document
  // is ambiguous: there is no shard to resolve the id against.
  auto need_doc = [&]() -> bool {
    if (req.doc_id != Request::kNoDoc) return false;
    resp.code = StatusCode::kInvalidArgument;
    resp.message =
        "a sharded server needs a document id for node-addressed operations";
    return true;
  };

  switch (req.op) {
    case Opcode::kPing:
      break;
    case Opcode::kStats:
      resp.stats_json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.stats");
      break;
    case Opcode::kIntrospect: {
      // Splice per-shard health (docs/ROBUSTNESS.md) into the metrics
      // object: {"metrics":..., "health":{...}}.
      std::string json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.introspect");
      const size_t close = json.find_last_of('}');
      if (close != std::string::npos) {
        json.insert(close, ",\"health\":" + sharded_->HealthJson());
      }
      resp.stats_json = std::move(json);
      resp.traces_json = obs::Tracer::Instance().ToChromeJson();
      break;
    }
    case Opcode::kQuery: {
      if (need_doc()) break;
      Result<std::vector<engine::NodeId>> r =
          sharded_->QueryDoc(req.doc_id, req.xpath, deadline);
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.node_ids.assign(r->begin(), r->end());
      break;
    }
    case Opcode::kCount: {
      if (req.doc_id != Request::kNoDoc) {
        Result<uint64_t> r =
            sharded_->CountDoc(req.doc_id, req.xpath, deadline);
        if (!r.ok()) {
          fill_error(r.status());
          break;
        }
        resp.id_or_count = *r;
        resp.shard_counts.push_back({sharded_->ShardOfDoc(req.doc_id),
                                     StatusCode::kOk, *r, ""});
        break;
      }
      // Scatter-gather: the response is kOk as long as ANY shard answered;
      // shards that could not serve their leg ride along as non-OK entries.
      Result<shard::GatheredCount> r = sharded_->CountAll(req.xpath, deadline);
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = r->total;
      resp.shard_counts.reserve(r->per_shard.size());
      for (const auto& e : r->per_shard) {
        resp.shard_counts.push_back({e.shard, e.code, e.count, e.message});
      }
      break;
    }
    case Opcode::kInsertBefore:
    case Opcode::kInsertAfter: {
      if (need_doc()) break;
      Result<engine::NodeId> r =
          req.op == Opcode::kInsertAfter
              ? sharded_
                    ->TrySubmitInsertAfter(req.doc_id, req.target, req.tag,
                                           deadline)
                    .get()
              : sharded_
                    ->TrySubmitInsertBefore(req.doc_id, req.target, req.tag,
                                            deadline)
                    .get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = *r;
      break;
    }
    case Opcode::kDelete: {
      if (need_doc()) break;
      Result<uint64_t> r =
          sharded_->TrySubmitDelete(req.doc_id, req.target, deadline).get();
      if (!r.ok()) {
        fill_error(r.status());
        break;
      }
      resp.id_or_count = *r;
      break;
    }
    case Opcode::kBootstrap:
    case Opcode::kPromote:
    case Opcode::kSubscribe:
    case Opcode::kReplBatch:
    case Opcode::kReplAck:
      resp.code = StatusCode::kInvalidArgument;
      resp.message = "replication is not supported on a sharded server";
      break;
    case Opcode::kHello:
      // Intercepted in ServeConnection; unreachable here.
      resp.code = StatusCode::kInvalidArgument;
      resp.message = "negotiation opcode outside the connection handshake";
      break;
  }
  return resp;
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // 1. Stop accepting.
    stopping_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const util::Deadline drain =
        util::Deadline::AfterMillis(options_.drain_timeout_ms);
    const auto drained = [this](bool streams_too) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& c : conns_) {
        if (!streams_too && c->stream.load(std::memory_order_acquire)) {
          continue;
        }
        if (!c->done.load(std::memory_order_acquire)) return false;
      }
      return true;
    };
    // 2. Drain request/response connections BEFORE stopping replication:
    // a sync-commit write in flight right now resolves its client promise
    // only once followers acknowledge, and that needs a live sender.
    // Stopping the sender first would release those waits un-acked — an
    // OK the follower never saw, exactly the failover loss sync mode
    // exists to prevent. Each connection notices `stopping_` after its
    // in-flight request (bounded by the frame timeouts and, in sync mode,
    // the sender's ack timeout).
    while (!drained(/*streams_too=*/false) && !drain.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 3. Stop replication streams: long-lived connections that only end
    // when the sender does, so they drain in their own phase.
    {
      std::lock_guard<std::mutex> lock(repl_mu_);
      if (sender_ != nullptr) sender_->Stop();
    }
    while (!drained(/*streams_too=*/true) && !drain.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 4. Force-close stragglers (a blocked read/write fails immediately
    // once the socket is shut down), then join everything.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) {
      if (!c->done.load(std::memory_order_acquire) && c->fd >= 0) {
        ::shutdown(c->fd, SHUT_RDWR);
      }
    }
    for (auto& c : conns_) {
      if (c->thread.joinable()) c->thread.join();
      if (c->fd >= 0) ::close(c->fd);
    }
    conns_.clear();
  });
}

}  // namespace cdbs::net
