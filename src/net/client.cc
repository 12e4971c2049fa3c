#include "net/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/socket_io.h"

namespace cdbs::net {

namespace {

constexpr uint32_t kNoBudget = 0;

/// The request's wire deadline: the caller's remaining budget, clamped to
/// u32 milliseconds; 0 (no deadline) when infinite.
uint32_t WireDeadlineMs(util::Deadline deadline) {
  if (deadline.infinite()) return kNoBudget;
  const int64_t left = deadline.remaining_millis();
  if (left <= 0) return 1;  // expired: let the server say so authoritatively
  return static_cast<uint32_t>(
      std::min<int64_t>(left, UINT32_MAX));
}

/// One socket operation's budget: the configured timeout, clamped to what
/// remains of the caller's deadline (floor 1ms so an in-flight op can
/// still fail fast rather than block on a 0 timeout). Without this clamp a
/// 5s io_timeout could overshoot a 50ms deadline a hundredfold.
int IoBudgetMs(int timeout_ms, util::Deadline deadline) {
  if (deadline.infinite()) return timeout_ms;
  const int64_t left = deadline.remaining_millis();
  return static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(timeout_ms, left)));
}

}  // namespace

Result<std::unique_ptr<CdbsClient>> CdbsClient::Connect(
    const ClientOptions& options) {
  std::unique_ptr<CdbsClient> client(new CdbsClient(options));
  // Eager connect verifies *some* endpoint is reachable: try each once.
  Status last = Status::OK();
  for (size_t i = 0; i < client->endpoints_.size(); ++i) {
    last = client->EnsureConnected(util::Deadline::Infinite());
    if (last.ok()) return client;
    client->RotateEndpoint();
  }
  return last;
}

CdbsClient::CdbsClient(const ClientOptions& options)
    : options_(options),
      endpoints_(options.endpoints),
      rng_(options.jitter_seed != 0
               ? options.jitter_seed
               : static_cast<uint64_t>(
                     reinterpret_cast<uintptr_t>(this)) ^
                     0x9E3779B97F4A7C15ull),
      retries_counter_(obs::MetricRegistry::Default().GetCounter(
          "serve.retries",
          "Client-side retries (reconnects, backoff, retry-after)")) {
  if (endpoints_.empty()) {
    endpoints_.push_back(Endpoint{options.host, options.port});
  }
}

CdbsClient::~CdbsClient() { CloseConnection(); }

Status CdbsClient::EnsureConnected(util::Deadline deadline) {
  if (fd_ >= 0) return Status::OK();
  const Endpoint& ep = endpoints_[endpoint_idx_];
  Result<int> fd = ConnectTcp(
      ep.host, ep.port, IoBudgetMs(options_.connect_timeout_ms, deadline));
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::OK();
}

void CdbsClient::CloseConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void CdbsClient::RotateEndpoint() {
  if (endpoints_.size() < 2) return;
  endpoint_idx_ = (endpoint_idx_ + 1) % endpoints_.size();
}

void CdbsClient::Backoff(int attempt, uint32_t retry_after_ms,
                         util::Deadline deadline) {
  ++local_retries_;
  retries_counter_->Increment();
  // Bounded exponential: base * 2^attempt, jittered to [1/2, 1] of itself
  // so a fleet of shed clients does not come back in lockstep.
  int64_t backoff = options_.base_backoff_ms;
  for (int i = 0; i < attempt && backoff < options_.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min<int64_t>(backoff, options_.max_backoff_ms);
  std::uniform_int_distribution<int64_t> jitter(backoff / 2,
                                                std::max<int64_t>(backoff, 1));
  int64_t sleep_ms = jitter(rng_);
  // The server's hint is a floor: it knows its queue better than we do.
  sleep_ms = std::max<int64_t>(sleep_ms, retry_after_ms);
  if (!deadline.infinite()) {
    sleep_ms = std::min<int64_t>(sleep_ms, deadline.remaining_millis());
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

Result<Response> CdbsClient::Call(Request req, util::Deadline deadline) {
  const bool idempotent = IsIdempotent(req.op);
  // One trace id per logical call, minted up front and reused verbatim by
  // every retry below (`req` is by-value; the loop only reassigns the
  // request id). The server threads it through to the WAL, so a retained
  // trace shows all attempts of this call under one id.
  req.trace_id = rng_();
  if (req.trace_id == 0) req.trace_id = 1;
  last_trace_id_ = req.trace_id;
  Status last = Status::IoError("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    // Backoff sleeps are only worth paying when another attempt follows;
    // on the final attempt every failure returns immediately.
    const bool final_attempt = attempt + 1 == options_.max_attempts;
    if (deadline.expired()) {
      return Status::DeadlineExceeded("client deadline expired after " +
                                      std::to_string(attempt) + " attempts");
    }
    const Status connected = EnsureConnected(deadline);
    if (!connected.ok()) {
      // Server restarting, at its connection cap, or unreachable: try the
      // next endpoint (read failover; no request was sent, so moving a
      // write is safe too) and back off.
      last = connected;
      RotateEndpoint();
      if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
      continue;
    }
    req.request_id = next_request_id_++;
    req.deadline_ms = WireDeadlineMs(deadline);
    const std::string frame = EncodeFrame(EncodeRequest(req));
    const Status sent = WriteFrame(
        fd_, frame, IoBudgetMs(options_.io_timeout_ms, deadline));
    if (!sent.ok()) {
      // The request may have partially reached the server. Reconnect; only
      // reads are safe to resend (on the next endpoint — this one's dead).
      CloseConnection();
      last = sent;
      if (idempotent) {
        RotateEndpoint();
        if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
        continue;
      }
      return Status::IoError("write outcome unknown (send failed: " +
                             sent.message() + ")");
    }
    std::string payload;
    const Status read = ReadFrame(
        fd_, &payload, IoBudgetMs(options_.io_timeout_ms, deadline));
    if (!read.ok()) {
      // EOF, timeout, or a CRC-failed (torn) frame: the stream is dead.
      // The server may or may not have executed the request.
      CloseConnection();
      last = read;
      if (idempotent) {
        RotateEndpoint();
        if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
        continue;
      }
      return Status::IoError("write outcome unknown (" + read.message() +
                             ")");
    }
    Response resp;
    const Status decoded = DecodeResponse(payload, &resp);
    if (!decoded.ok()) {
      CloseConnection();
      last = decoded;
      if (idempotent) {
        RotateEndpoint();
        if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
        continue;
      }
      return Status::IoError("write outcome unknown (undecodable response)");
    }
    if (resp.request_id != req.request_id) {
      // A stale response left on the stream (should not happen — one
      // request in flight per connection). Resynchronize by reconnecting.
      CloseConnection();
      last = Status::Internal("response id mismatch");
      if (idempotent) {
        if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
        continue;
      }
      return last;
    }
    if (resp.code == StatusCode::kRetryAfter) {
      // Load shed *before* execution — resending is safe for every op,
      // writes included. Honor the server's backoff hint.
      last = Status::RetryAfter(resp.message);
      if (!final_attempt) Backoff(attempt, resp.retry_after_ms, deadline);
      continue;
    }
    if (resp.code == StatusCode::kUnavailable && resp.retry_after_ms > 0) {
      // A hinted kUnavailable is a supervision fast-fail (breaker tripped,
      // shard recovering, corpus read-only) — bounced *before* execution,
      // so resending is safe for every op, and the hint is the server's
      // recovery schedule. An un-hinted kUnavailable (e.g. a scatter-gather
      // where every shard failed mid-read) is returned to the caller as-is.
      last = Status::Unavailable(resp.message);
      if (!final_attempt) Backoff(attempt, resp.retry_after_ms, deadline);
      continue;
    }
    if (resp.code == StatusCode::kNotLeader) {
      // A replica refused the write *before* executing it, so resending to
      // another endpoint is safe — rotate until we find the (possibly
      // freshly promoted) primary.
      last = Status::NotLeader(resp.message);
      CloseConnection();
      RotateEndpoint();
      if (!final_attempt) Backoff(attempt, /*retry_after_ms=*/0, deadline);
      continue;
    }
    return resp;
  }
  return last;
}

Status CdbsClient::Ping(util::Deadline deadline) {
  Request req;
  req.op = Opcode::kPing;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  return resp->code == StatusCode::kOk ? Status::OK()
                                       : Status(resp->code, resp->message);
}

Result<std::vector<uint64_t>> CdbsClient::Query(const std::string& xpath,
                                                util::Deadline deadline) {
  Request req;
  req.op = Opcode::kQuery;
  req.xpath = xpath;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return std::move(resp->node_ids);
}

Result<uint64_t> CdbsClient::InsertBefore(uint64_t target,
                                          const std::string& tag,
                                          util::Deadline deadline) {
  Request req;
  req.op = Opcode::kInsertBefore;
  req.target = target;
  req.tag = tag;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<uint64_t> CdbsClient::InsertAfter(uint64_t target,
                                         const std::string& tag,
                                         util::Deadline deadline) {
  Request req;
  req.op = Opcode::kInsertAfter;
  req.target = target;
  req.tag = tag;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<uint64_t> CdbsClient::Delete(uint64_t target, util::Deadline deadline) {
  Request req;
  req.op = Opcode::kDelete;
  req.target = target;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<std::vector<uint64_t>> CdbsClient::QueryDoc(uint64_t doc,
                                                   const std::string& xpath,
                                                   util::Deadline deadline) {
  Request req;
  req.op = Opcode::kQuery;
  req.xpath = xpath;
  req.doc_id = doc;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return std::move(resp->node_ids);
}

Result<uint64_t> CdbsClient::InsertBeforeIn(uint64_t doc, uint64_t target,
                                            const std::string& tag,
                                            util::Deadline deadline) {
  Request req;
  req.op = Opcode::kInsertBefore;
  req.target = target;
  req.tag = tag;
  req.doc_id = doc;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<uint64_t> CdbsClient::InsertAfterIn(uint64_t doc, uint64_t target,
                                           const std::string& tag,
                                           util::Deadline deadline) {
  Request req;
  req.op = Opcode::kInsertAfter;
  req.target = target;
  req.tag = tag;
  req.doc_id = doc;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<uint64_t> CdbsClient::DeleteIn(uint64_t doc, uint64_t target,
                                      util::Deadline deadline) {
  Request req;
  req.op = Opcode::kDelete;
  req.target = target;
  req.doc_id = doc;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<CdbsClient::CountResult> CdbsClient::Count(const std::string& xpath,
                                                  util::Deadline deadline) {
  Request req;
  req.op = Opcode::kCount;
  req.xpath = xpath;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  CountResult out;
  out.total = resp->id_or_count;
  out.per_shard = std::move(resp->shard_counts);
  return out;
}

Result<uint64_t> CdbsClient::CountIn(uint64_t doc, const std::string& xpath,
                                     util::Deadline deadline) {
  Request req;
  req.op = Opcode::kCount;
  req.xpath = xpath;
  req.doc_id = doc;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->id_or_count;
}

Result<CdbsClient::Introspection> CdbsClient::Introspect(
    util::Deadline deadline) {
  Request req;
  req.op = Opcode::kIntrospect;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  Introspection out;
  out.stats_json = std::move(resp->stats_json);
  out.traces_json = std::move(resp->traces_json);
  return out;
}

Result<CdbsClient::BootstrapImage> CdbsClient::Bootstrap(
    util::Deadline deadline) {
  Request req;
  req.op = Opcode::kBootstrap;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  BootstrapImage out;
  out.xml = std::move(resp->blob);
  out.lsn = resp->id_or_count;
  out.epoch = resp->epoch;
  return out;
}

Result<uint64_t> CdbsClient::Promote(util::Deadline deadline) {
  Request req;
  req.op = Opcode::kPromote;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->epoch;
}

Result<std::string> CdbsClient::StatsJson(util::Deadline deadline) {
  Request req;
  req.op = Opcode::kStats;
  Result<Response> resp = Call(std::move(req), deadline);
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return std::move(resp->stats_json);
}

}  // namespace cdbs::net
