#ifndef CDBS_NET_CLIENT_H_
#define CDBS_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// `CdbsClient`: the client half of the wire protocol, built to survive an
/// overloaded or faulty server (docs/NETWORKING.md):
///
///   * bounded exponential backoff with jitter between attempts, honoring
///     the server's retry-after hint as a floor when one is present;
///   * reconnect on any broken stream (EOF, timeout, CRC-failed frame);
///   * **idempotent resend only for reads**: a shed write (kRetryAfter)
///     definitively did not execute and is resent, but a write whose
///     connection tore after the request was sent may or may not have
///     committed — it fails with kIoError instead of risking a duplicate;
///   * per-call deadlines travel to the server as a relative budget, bound
///     the whole retry loop locally, AND clamp every socket operation —
///     connect, frame write, frame read — so no single I/O can overshoot
///     what remains of the caller's budget;
///   * endpoint failover (docs/REPLICATION.md): with multiple endpoints,
///     reads rotate to the next endpoint on a dead connection (follower
///     read failover) and writes rotate on kNotLeader (finding the
///     promoted primary after a failover) — a write rejected by a replica
///     definitively did not execute, so resending it elsewhere is safe.
///
/// Not thread-safe: one CdbsClient per client thread (it is one TCP
/// connection plus retry state).

namespace cdbs::net {

/// One server address a client may talk to.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Optional endpoint list (primary + replicas, any order). When
  /// non-empty it replaces host/port; endpoints[0] is tried first.
  std::vector<Endpoint> endpoints;
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 5000;
  /// Total attempts per call (first try + retries).
  int max_attempts = 5;
  /// Exponential backoff bounds: attempt k sleeps ~base*2^k, jittered,
  /// clamped to max.
  int base_backoff_ms = 5;
  int max_backoff_ms = 500;
  /// Jitter seed; 0 derives one from the address of the client (varied,
  /// not reproducible — pass a value for deterministic tests).
  uint64_t jitter_seed = 0;
};

class CdbsClient {
 public:
  /// Creates a client and eagerly connects (verifying the server is
  /// reachable; later broken streams reconnect lazily).
  static Result<std::unique_ptr<CdbsClient>> Connect(
      const ClientOptions& options);

  ~CdbsClient();

  CdbsClient(const CdbsClient&) = delete;
  CdbsClient& operator=(const CdbsClient&) = delete;

  Status Ping(util::Deadline deadline = {});
  Result<std::vector<uint64_t>> Query(const std::string& xpath,
                                      util::Deadline deadline = {});
  Result<uint64_t> InsertBefore(uint64_t target, const std::string& tag,
                                util::Deadline deadline = {});
  Result<uint64_t> InsertAfter(uint64_t target, const std::string& tag,
                               util::Deadline deadline = {});
  /// Returns the number of nodes removed.
  Result<uint64_t> Delete(uint64_t target, util::Deadline deadline = {});

  // --- sharded servers (docs/SHARDING.md) -----------------------------
  // Document-scoped variants: `doc` rides the wire as the optional
  // trailing doc_id field, and the server routes the request to the shard
  // owning that document. Node ids are shard-local.

  Result<std::vector<uint64_t>> QueryDoc(uint64_t doc,
                                         const std::string& xpath,
                                         util::Deadline deadline = {});
  Result<uint64_t> InsertBeforeIn(uint64_t doc, uint64_t target,
                                  const std::string& tag,
                                  util::Deadline deadline = {});
  Result<uint64_t> InsertAfterIn(uint64_t doc, uint64_t target,
                                 const std::string& tag,
                                 util::Deadline deadline = {});
  Result<uint64_t> DeleteIn(uint64_t doc, uint64_t target,
                            util::Deadline deadline = {});

  /// A scatter-gathered cross-shard count (Opcode::kCount without a doc):
  /// `total` sums the OK shards; `per_shard` surfaces each shard's leg,
  /// including kUnavailable entries for shards that could not answer.
  struct CountResult {
    uint64_t total = 0;
    std::vector<ShardCountEntry> per_shard;
  };
  Result<CountResult> Count(const std::string& xpath,
                            util::Deadline deadline = {});

  /// Matches of `xpath` inside one document only.
  Result<uint64_t> CountIn(uint64_t doc, const std::string& xpath,
                           util::Deadline deadline = {});

  /// The server's metric registry as JSON.
  Result<std::string> StatsJson(util::Deadline deadline = {});

  /// Live server introspection (Opcode::kIntrospect): the metrics snapshot
  /// plus the retained request traces as Chrome trace_event JSON.
  struct Introspection {
    std::string stats_json;
    std::string traces_json;
  };
  Result<Introspection> Introspect(util::Deadline deadline = {});

  /// A full snapshot bootstrap from the server (Opcode::kBootstrap): the
  /// serialized document plus the commit LSN and primary epoch it
  /// corresponds to. Used by tooling/tests; repl::Follower speaks the same
  /// opcode internally.
  struct BootstrapImage {
    std::string xml;
    uint64_t lsn = 0;
    uint64_t epoch = 0;
  };
  Result<BootstrapImage> Bootstrap(util::Deadline deadline = {});

  /// Promotes the connected replica to primary (Opcode::kPromote).
  /// Returns the promoted node's replication epoch.
  Result<uint64_t> Promote(util::Deadline deadline = {});

  /// Retries performed by this client since creation (also exported as the
  /// process-wide `serve.retries` counter).
  uint64_t retries() const { return local_retries_; }

  /// Index into the endpoint list this client is currently using — which
  /// server failover landed on (tests/observability).
  size_t endpoint_index() const { return endpoint_idx_; }

  /// The trace id minted for the most recent call. Every call gets a fresh
  /// id; retries of one call reuse it, so the server-side trace shows all
  /// attempts under one id (tested in tests/net_test.cc).
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  explicit CdbsClient(const ClientOptions& options);

  /// One request through the full retry loop.
  Result<Response> Call(Request req, util::Deadline deadline);
  Status EnsureConnected(util::Deadline deadline);
  void CloseConnection();
  /// Advances to the next endpoint (wrapping); the next EnsureConnected
  /// dials it. No-op with a single endpoint.
  void RotateEndpoint();
  /// Sleeps before attempt `attempt+1`, honoring `retry_after_ms` as a
  /// floor and never past `deadline`.
  void Backoff(int attempt, uint32_t retry_after_ms, util::Deadline deadline);

  ClientOptions options_;
  std::vector<Endpoint> endpoints_;
  size_t endpoint_idx_ = 0;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  uint64_t last_trace_id_ = 0;
  uint64_t local_retries_ = 0;
  std::mt19937_64 rng_;
  obs::Counter* retries_counter_;
};

}  // namespace cdbs::net

#endif  // CDBS_NET_CLIENT_H_
