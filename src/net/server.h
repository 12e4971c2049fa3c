#ifndef CDBS_NET_SERVER_H_
#define CDBS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "repl/follower.h"
#include "repl/sender.h"
#include "shard/sharded_db.h"
#include "util/status.h"

/// \file
/// The network front-end: a dependency-free TCP server exposing a
/// `shard::ShardedDb` over the framed protocol in net/protocol.h. A plain
/// primary is a one-shard, one-document corpus; a replica serves its
/// follower's corpus of the same shape (docs/REPLICATION.md). One `Execute`
/// switch answers every opcode for all of them. One thread per connection
/// (bounded by `max_connections`), per-frame read/write timeouts so a slow
/// or stalled client can never pin a thread forever, and graceful drain on
/// shutdown: stop accepting, let every connection finish its in-flight
/// request, then close.
///
/// Overload semantics (the whole point — see docs/NETWORKING.md):
///   * every write is one `Submit` with `Admission::kShed`; a full queue
///     becomes a kRetryAfter response carrying a backoff hint derived from
///     the live queue depth (or, behind a tripped breaker, from the
///     supervisor's recovery schedule), not an unbounded wait;
///   * request deadlines (`Request::deadline_ms`) ride into the engine, so
///     work that expires while queued is shed as kDeadlineExceeded instead
///     of executing;
///   * at the connection cap, new connections are accepted and immediately
///     closed (counted in `net.connections_dropped`) — clients observe a
///     broken stream and back off.
///
/// Failpoints (chaos testing): `net.accept.io_error` drops a just-accepted
/// connection, `net.conn.delay` injects per-request latency (arm with a
/// `delay=` spec), `net.conn.drop` severs a connection mid-stream, and
/// `net.frame.corrupt` flips a byte in a response frame (clients must
/// detect it via CRC).

namespace cdbs::net {

struct ServerOptions {
  /// IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; see Server::port() for the actual one.
  uint16_t port = 0;
  /// Hard cap on simultaneously served connections.
  size_t max_connections = 64;
  /// Per-frame socket timeouts. A connection idle longer than
  /// `read_timeout_ms` between requests is closed (slow-client shedding).
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  /// How long Shutdown waits for in-flight requests before force-closing.
  /// Overridable at process level with `CDBS_NET_DRAIN_MS` (strict-parsed:
  /// a whole non-negative integer, anything else warns and keeps this
  /// default) — the ops knob for rolling restarts, no rebuild needed.
  int drain_timeout_ms = 2000;
  /// Replication sender tuning, used when the served corpus feeds
  /// followers (see Server::StartSharded; docs/REPLICATION.md).
  repl::ReplicationSenderOptions repl;
};

/// Applies the `CDBS_NET_DRAIN_MS` environment knob to `drain_timeout_ms`.
/// `raw` is the env value (nullptr/empty = unset, keep the default);
/// malformed values warn on stderr and keep the default — the server must
/// come up even with a bad knob. Exposed for unit tests.
int ApplyDrainMsKnob(const char* raw, int drain_timeout_ms);

/// A running server. Start it, talk to `port()`, Shutdown (or destroy) to
/// drain and stop.
class Server {
 public:
  /// Serves a corpus (docs/SHARDING.md) as a primary; a plain primary is
  /// `ShardedDb::Open({doc}, options)` with one shard. Node-addressed
  /// operations (kQuery, kInsert*, kDelete) name their document in
  /// `Request::doc_id`, since node ids are per-shard; without one they
  /// address a one-document corpus's only document and bounce with
  /// kInvalidArgument on any other. kCount without a doc_id scatter-gathers
  /// across every shard with per-shard partial-failure semantics. When the
  /// corpus is one stored shard holding one document, a ReplicationSender
  /// streaming from the shard's log is attached to it and kSubscribe/
  /// kBootstrap streams are served to followers; every other corpus answers
  /// the replication opcodes with kInvalidArgument. `db` must outlive the
  /// server. Keeps its name because the repository benchmark (perfbench/)
  /// calls it.
  static Result<std::unique_ptr<Server>> StartSharded(
      shard::ShardedDb* db, const ServerOptions& options);

  /// Serves a replica: reads come from `follower`'s one-shard corpus, pinned
  /// per request and bounded by its staleness options; writes are rejected
  /// with kNotLeader; and a kPromote request flips the node into a primary
  /// (serving writes and — when the replica's shard has its own replication
  /// log — follower streams). `follower` must outlive the server.
  static Result<std::unique_ptr<Server>> StartReplica(
      repl::Follower* follower, const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful drain: stop accepting, finish in-flight requests (bounded by
  /// drain_timeout_ms), close everything, join all threads. Idempotent.
  void Shutdown();

  /// The bound port (useful with ServerOptions::port == 0).
  uint16_t port() const { return port_; }

  /// Connections currently being served (advisory).
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// Requests served since start, by outcome (advisory, for tests/bench).
  uint64_t requests_served() const { return requests_->value(); }
  uint64_t requests_shed() const { return shed_->value(); }
  uint64_t deadline_exceeded() const { return deadline_exceeded_->value(); }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    /// A request is being served: read, not yet answered. Shutdown drains
    /// only these; idle connections are shut down without a wait.
    std::atomic<bool> busy{false};
    /// Became a replication push stream (kSubscribe). Streams only end
    /// when the sender stops, so Shutdown drains them in a later phase
    /// than request/response connections.
    std::atomic<bool> stream{false};
  };

  Server(shard::ShardedDb* corpus, repl::Follower* follower,
         const ServerOptions& options);

  Status Listen();
  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Executes one decoded request: the one dispatcher for every opcode.
  Response Execute(const Request& req);
  void ReapFinishedLocked();
  /// Attaches a replication sender to `db`'s one shard when `db` can feed
  /// followers (see StartSharded).
  void MaybeAttachSender(shard::ShardedDb* db);

  shard::ShardedDb* corpus_;            // primary; null on a replica
  repl::Follower* follower_ = nullptr;  // replica; null on a primary
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
  std::atomic<size_t> active_connections_{0};

  /// Replication state. `promoted_` pins a replica's corpus once
  /// promoted: from then on it takes writes. `sender_` exists while this
  /// node serves follower streams (a primary from the start; a replica
  /// after promotion).
  std::mutex repl_mu_;
  std::shared_ptr<shard::ShardedDb> promoted_;
  std::unique_ptr<repl::ReplicationSender> sender_;

  // serve.* / net.* metrics, in the process-wide registry.
  obs::Counter* requests_;
  obs::Counter* shed_;                // kRetryAfter responses
  obs::Counter* deadline_exceeded_;   // kDeadlineExceeded responses
  obs::Counter* connections_total_;
  obs::Counter* connections_dropped_;
  obs::Gauge* connections_active_;
  obs::Histogram* request_ns_;
};

}  // namespace cdbs::net

#endif  // CDBS_NET_SERVER_H_
