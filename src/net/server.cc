#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
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

util::Deadline DeadlineFromRequest(const Request& req) {
  return req.deadline_ms == 0
             ? util::Deadline::Infinite()
             : util::Deadline::AfterMillis(req.deadline_ms);
}

/// The engine write a kInsertBefore/kInsertAfter/kDelete request asks for.
engine::WriteOp WriteOpOf(const Request& req) {
  using Kind = engine::WriteOp::Kind;
  const Kind kind = req.op == Opcode::kInsertBefore  ? Kind::kInsertBefore
                    : req.op == Opcode::kInsertAfter ? Kind::kInsertAfter
                                                     : Kind::kDelete;
  return {kind, static_cast<engine::NodeId>(req.target), req.tag};
}

constexpr char kNoReplication[] =
    "replication is served only by a stored one-shard, one-document corpus";

/// True when `db` can feed followers: one stored shard holding one
/// document. A follower replays the shard's log by raw node id into a
/// corpus of the same shape.
bool Replicable(shard::ShardedDb* db) {
  return db->shard_count() == 1 && db->doc_count() == 1 &&
         db->shard(0)->replication_log() != nullptr;
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

Result<std::unique_ptr<Server>> Server::StartSharded(
    shard::ShardedDb* db, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(db, nullptr, options));
  CDBS_RETURN_NOT_OK(server->Listen());
  server->MaybeAttachSender(db);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Result<std::unique_ptr<Server>> Server::StartReplica(
    repl::Follower* follower, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(nullptr, follower, options));
  CDBS_RETURN_NOT_OK(server->Listen());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::Server(shard::ShardedDb* corpus, repl::Follower* follower,
               const ServerOptions& options)
    : corpus_(corpus), follower_(follower), options_(options) {
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

void Server::MaybeAttachSender(shard::ShardedDb* db) {
  if (!Replicable(db)) return;
  std::lock_guard<std::mutex> lock(repl_mu_);
  if (sender_ != nullptr) return;
  sender_ = std::make_unique<repl::ReplicationSender>(db->shard(0),
                                                      options_.repl);
  sender_->Attach();
}

Status Server::Listen() {
  Result<int> fd =
      ListenTcp(options_.host, options_.port, /*backlog=*/128, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  return Status::OK();
}

void Server::AcceptLoop() {
  // Blocks without a timeout: Shutdown shuts the listening socket down,
  // which wakes the poll (and fails any accept) once the stop flag is set,
  // so an idle server never wakes up.
  while (!stopping_.load()) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, -1) <= 0) continue;  // EINTR or transient error
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
    conn->busy.store(false);
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
    // Busy before the stop check (both sequentially consistent): either
    // Shutdown sees this request in flight and waits for it, or this
    // thread sees the stop and drops the request unserved.
    conn->busy.store(true);
    if (stopping_.load()) break;
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
        sender->RunFollowerStream(conn->fd, req);
      } else {
        static_cast<void>(WriteFrame(conn->fd,
                                     EncodeFrame(EncodeResponse(Execute(req))),
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
    std::string frame = EncodeFrame(EncodeResponse(resp));
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

  const bool write = req.op == Opcode::kInsertBefore ||
                     req.op == Opcode::kInsertAfter ||
                     req.op == Opcode::kDelete;
  // Engine node ids are 32-bit: a wider target names no node, and
  // narrowing it would alias one that exists.
  if (write && req.target > std::numeric_limits<engine::NodeId>::max()) {
    resp.code = StatusCode::kOutOfRange;
    resp.message = "node " + std::to_string(req.target) + " out of range";
    return resp;
  }

  // The corpus a request runs against: the primary's own, or a replica's
  // current one, pinned for the request so a concurrent re-bootstrap
  // cannot free it. A replica serves `leader_only` requests only once
  // promoted. Null, with `resp` filled, when this node cannot serve it.
  std::shared_ptr<shard::ShardedDb> pin;
  auto serving = [&](bool leader_only) -> shard::ShardedDb* {
    if (follower_ == nullptr) return corpus_;
    {
      std::lock_guard<std::mutex> lock(repl_mu_);
      pin = promoted_;
    }
    if (pin == nullptr && leader_only) {
      resp.code = StatusCode::kNotLeader;
      resp.message = "this node is a replica; send writes to the primary";
      return nullptr;
    }
    if (pin == nullptr) {
      Result<std::shared_ptr<shard::ShardedDb>> replica =
          follower_->ReadableDb();
      if (!replica.ok()) {
        resp.code = replica.status().code();
        resp.message = replica.status().message();
        if (resp.code == StatusCode::kRetryAfter) resp.retry_after_ms = 50;
        return nullptr;
      }
      pin = std::move(*replica);
    }
    return pin.get();
  };
  // Node ids are per-shard, so a node-addressed request names its
  // document; on a one-document corpus it defaults to the only one.
  uint64_t doc = req.doc_id;
  auto resolve_doc = [&](const shard::ShardedDb& db) {
    if (doc != Request::kNoDoc) return true;
    if (db.doc_count() == 1) {
      doc = 0;
      return true;
    }
    resp.code = StatusCode::kInvalidArgument;
    resp.message = "a corpus of " + std::to_string(db.doc_count()) +
                   " documents needs a document id for node-addressed "
                   "operations";
    return false;
  };
  auto fill_error = [&](const shard::ShardedDb& db, const Status& st) {
    resp.code = st.code();
    resp.message = st.message();
    // kRetryAfter (queue full) and kUnavailable (breaker tripped /
    // degraded) both carry a backoff hint so clients retry on a schedule
    // instead of hammering a sick server (docs/ROBUSTNESS.md).
    if ((st.code() == StatusCode::kRetryAfter ||
         st.code() == StatusCode::kUnavailable) &&
        doc != Request::kNoDoc) {
      resp.retry_after_ms =
          static_cast<uint32_t>(db.RetryAfterHintMillis(doc));
    }
  };

  switch (req.op) {
    case Opcode::kPing:
      break;
    case Opcode::kStats:
      // The process-wide registry: serve.* / net.* live here, and every
      // engine's and store's registry is merged in as a child of it — one
      // place to see the whole serving stack.
      resp.stats_json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.stats");
      break;
    case Opcode::kIntrospect:
      resp.stats_json =
          obs::ToJson(obs::MetricRegistry::Default(), "serve.introspect");
      if (corpus_ != nullptr) {
        // Splice per-shard health (docs/ROBUSTNESS.md) into the metrics
        // object: {"metrics":..., "health":{...}}.
        const size_t close = resp.stats_json.find_last_of('}');
        if (close != std::string::npos) {
          resp.stats_json.insert(close,
                                 ",\"health\":" + corpus_->HealthJson());
        }
      }
      resp.traces_json = obs::Tracer::Instance().ToChromeJson();
      break;
    case Opcode::kQuery: {
      shard::ShardedDb* db = serving(/*leader_only=*/false);
      if (db == nullptr || !resolve_doc(*db)) break;
      Result<std::vector<engine::NodeId>> r =
          db->QueryDoc(doc, req.xpath, deadline);
      if (!r.ok()) {
        fill_error(*db, r.status());
        break;
      }
      resp.node_ids.assign(r->begin(), r->end());
      break;
    }
    case Opcode::kCount: {
      shard::ShardedDb* db = serving(/*leader_only=*/false);
      if (db == nullptr) break;
      if (doc != Request::kNoDoc) {
        Result<uint64_t> r = db->CountDoc(doc, req.xpath, deadline);
        if (!r.ok()) {
          fill_error(*db, r.status());
          break;
        }
        resp.id_or_count = *r;
        resp.shard_counts.push_back(
            {db->ShardOfDoc(doc), StatusCode::kOk, *r, ""});
        break;
      }
      // Scatter-gather: the response is kOk as long as ANY shard answered;
      // shards that could not serve their leg ride along as non-OK entries.
      Result<shard::GatheredCount> r = db->CountAll(req.xpath, deadline);
      if (!r.ok()) {
        fill_error(*db, r.status());
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
    case Opcode::kInsertAfter:
    case Opcode::kDelete: {
      shard::ShardedDb* db = serving(/*leader_only=*/true);
      if (db == nullptr || !resolve_doc(*db)) break;
      // Admission-controlled: a full queue sheds with retry-after instead
      // of blocking this connection's thread behind the writer.
      Result<uint64_t> r =
          db->Submit(doc, WriteOpOf(req), engine::Admission::kShed, deadline)
              .get();
      if (!r.ok()) {
        fill_error(*db, r.status());
        break;
      }
      resp.id_or_count = *r;
      break;
    }
    case Opcode::kBootstrap: {
      shard::ShardedDb* db = serving(/*leader_only=*/true);
      if (db == nullptr) break;
      if (!Replicable(db)) {
        resp.code = StatusCode::kInvalidArgument;
        resp.message = kNoReplication;
        break;
      }
      doc = 0;  // the corpus's one document, for the retry hint
      Result<engine::BootstrapImage> image =
          db->shard(0)->CaptureBootstrap(deadline);
      if (!image.ok()) {
        fill_error(*db, image.status());
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
    case Opcode::kSubscribe:
      // Reached only when no replication sender serves this node;
      // ServeConnection hands the connection to the sender otherwise.
      if (serving(/*leader_only=*/true) != nullptr) {
        resp.code = StatusCode::kInvalidArgument;
        resp.message = kNoReplication;
      }
      break;
    case Opcode::kPromote: {
      if (follower_ == nullptr) {
        resp.code = StatusCode::kInvalidArgument;
        resp.message = "this node is already a primary";
        break;
      }
      Result<std::shared_ptr<shard::ShardedDb>> promoted =
          follower_->Promote();
      if (!promoted.ok()) {
        resp.code = promoted.status().code();
        resp.message = promoted.status().message();
        break;
      }
      {
        std::lock_guard<std::mutex> lock(repl_mu_);
        promoted_ = *promoted;
      }
      // The promoted corpus is a primary now: serve follower streams from
      // it (its own replication log, its own epoch — subscribers of the old
      // primary will epoch-mismatch into a bootstrap, which is exactly right
      // after a failover).
      MaybeAttachSender(promoted->get());
      engine::ConcurrentXmlDb* shard = (*promoted)->shard(0);
      resp.id_or_count = shard->commit_lsn();
      resp.epoch = shard->replication_log() != nullptr
                       ? shard->replication_log()->epoch()
                       : 0;
      break;
    }
    case Opcode::kReplBatch:
    case Opcode::kReplAck:
      // These only ever travel primary→follower / follower→primary inside
      // a stream.
      resp.code = StatusCode::kInvalidArgument;
      resp.message = "replication stream opcode outside a stream";
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
    // 1. Stop accepting: the accept loop sees the flag once the shut-down
    // listening socket wakes its poll.
    stopping_.store(true);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const util::Deadline drain =
        util::Deadline::AfterMillis(options_.drain_timeout_ms);
    // True once no live connection of the kind waited for is left: the
    // replication streams, or the request/response connections with a
    // request in flight. Idle connections are never waited for.
    const auto drained = [this](bool streams) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& c : conns_) {
        const bool stream = c->stream.load(std::memory_order_acquire);
        const bool waits = streams ? stream : !stream && c->busy.load();
        if (waits && !c->done.load(std::memory_order_acquire)) return false;
      }
      return true;
    };
    // 2. Drain in-flight requests BEFORE stopping replication: a
    // sync-commit write in flight right now resolves its client promise
    // only once followers acknowledge, and that needs a live sender.
    // Stopping the sender first would release those waits un-acked — an
    // OK the follower never saw, exactly the failover loss sync mode
    // exists to prevent. A request finishes within the frame timeouts
    // and, in sync mode, the sender's ack timeout.
    while (!drained(/*streams=*/false) && !drain.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 3. Stop replication streams: long-lived connections that only end
    // when the sender does, so they drain in their own phase.
    {
      std::lock_guard<std::mutex> lock(repl_mu_);
      if (sender_ != nullptr) sender_->Stop();
    }
    while (!drained(/*streams=*/true) && !drain.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 4. Shut down idle connections and stragglers (a blocked read/write
    // fails immediately once the socket is shut down), then join all.
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
