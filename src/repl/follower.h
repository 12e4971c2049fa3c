#ifndef CDBS_REPL_FOLLOWER_H_
#define CDBS_REPL_FOLLOWER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/concurrent_db.h"
#include "obs/metrics.h"
#include "repl/replication.h"
#include "shard/sharded_db.h"
#include "util/status.h"

/// \file
/// The follower half of replication (docs/REPLICATION.md): a replica that
/// bootstraps a snapshot of the primary's one-shard, one-document corpus,
/// subscribes to its commit stream, and replays each committed batch into
/// its own one-shard `shard::ShardedDb`. Because CDBS label assignment is
/// deterministic (Theorem 3.1 — insertions never relabel, labels depend
/// only on the neighbours), replaying the primary's logical operations
/// reproduces its labels and node ids bit for bit; the follower checks
/// every replayed id against the primary's (`ReplOp::new_id`) and treats
/// any divergence as corruption, fixed by re-bootstrapping.
///
/// Crash/restart model: nothing replication-specific is persisted. A
/// restarted follower bootstraps afresh; a follower whose stream tears
/// resubscribes from `applied_lsn + 1` and either catches up from the
/// primary's retained log or is told (kOutOfRange) to bootstrap.

namespace cdbs::repl {

struct FollowerOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Options for the replica corpus's one shard, used as given
  /// (`shard::ShardedDb::OpenFromImage`). Give it its own storage /
  /// replication-log paths: after `Promote()` this corpus is a primary in
  /// its own right (fresh epoch, fresh LSN space).
  engine::ConcurrentXmlDbOptions db;
  /// Default read-staleness bound, milliseconds; 0 = serve reads no matter
  /// how stale. A read is rejected (kRetryAfter — try another endpoint)
  /// when the follower has not been caught up with the primary within the
  /// bound. Per-read overrides via `ReadableDb`.
  int64_t max_staleness_ms = 0;
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 5000;
  /// Backoff between reconnect attempts after a torn stream.
  int reconnect_backoff_ms = 100;
  /// Offer kFeatureCompressedFrames (docs/ENCODING.md) before subscribing,
  /// so bootstrap blobs and the commit stream ride compressed frames. An
  /// old primary rejects the kHello and drops the connection; the follower
  /// then reconnects plain and stops offering.
  bool enable_compression = true;
};

/// A live replica: owns the replication receiver thread and the replica
/// corpus it replays into. Thread contract: `Start` once; `db`/
/// `ReadableDb`/LSN accessors from any thread; `Promote`/`Stop` from any
/// thread, once.
class Follower {
 public:
  /// Replica lifecycle, exported as the `repl.follower.state` gauge.
  enum class State : int {
    kConnecting = 0,     ///< no stream; dialing / backing off
    kBootstrapping = 1,  ///< transferring + loading a snapshot
    kStreaming = 2,      ///< subscribed, replaying the commit stream
    kPromoted = 3,       ///< promoted to primary; receiver stopped
    kStopped = 4,
  };

  /// Creates the follower and starts its receiver thread. Returns
  /// immediately — bootstrap happens on the thread (poll `state()` /
  /// `db()` for readiness), so a follower can outlive primary restarts.
  static std::unique_ptr<Follower> Start(FollowerOptions options);

  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// The current replica corpus; null until the first bootstrap lands.
  /// May be replaced wholesale by a re-bootstrap — callers hold the
  /// returned shared_ptr for the duration of one logical read.
  std::shared_ptr<shard::ShardedDb> db() const;

  /// `db()` gated by staleness: kRetryAfter when no snapshot has landed
  /// yet or the replica has not been caught up within `max_staleness_ms`
  /// (-1 = the configured default; 0 = unbounded).
  Result<std::shared_ptr<shard::ShardedDb>> ReadableDb(
      int64_t max_staleness_ms = -1) const;

  /// Last primary LSN fully applied here (primary coordinates).
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// Primary's last LSN as of the latest stream message (batch or
  /// heartbeat); how far ahead the primary was at last contact.
  uint64_t primary_last_lsn() const {
    return primary_last_lsn_.load(std::memory_order_acquire);
  }

  /// Milliseconds since this replica was last known caught-up (applied ==
  /// primary's last LSN at some stream message). 0 while caught up;
  /// INT64_MAX before the first bootstrap completes.
  int64_t staleness_ms() const;

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  bool promoted() const { return state() == State::kPromoted; }

  /// This follower's `repl.follower.*` metrics. A child of
  /// MetricRegistry::Default(), so process-wide exporters sum them with
  /// every other follower's.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Failover: stops replicating and makes the replica corpus the write
  /// target. Returns the promoted corpus (its shard's replication log's
  /// epoch now identifies the new primary incarnation — old followers
  /// subscribing with the dead primary's epoch are told to bootstrap).
  /// Fails with kRetryAfter when no bootstrap has landed yet.
  Result<std::shared_ptr<shard::ShardedDb>> Promote();

  /// Stops the receiver thread and shuts the replica corpus down.
  /// Idempotent; the destructor calls it.
  void Stop();

 private:
  explicit Follower(FollowerOptions options);

  void ReceiverLoop();
  /// One connection's lifetime: dial, bootstrap if needed, subscribe,
  /// stream. Returns when the stream tears / the follower stops.
  void RunOnce();
  /// Requests and loads a snapshot over `fd`. On success installs the new
  /// corpus and sets applied_lsn_/epoch_.
  Status Bootstrap(int fd);
  /// Applies one stream record to the replica's shard, by raw node id:
  /// the primary's supervisor probes beside the document root replicate
  /// too. Any divergence from the primary's ids returns Corruption (caller
  /// re-bootstraps).
  Status ApplyRecord(engine::ConcurrentXmlDb* shard, uint64_t lsn,
                     const std::vector<ReplOp>& ops);
  void SetState(State s);
  void MarkContact(uint64_t primary_last);

  FollowerOptions options_;
  std::atomic<int> state_{static_cast<int>(State::kConnecting)};
  std::atomic<bool> halt_{false};  // stop receiving (Stop or Promote)
  std::atomic<int> stream_fd_{-1};  // shut down by Stop/Promote to wake reads
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> primary_last_lsn_{0};
  uint64_t primary_epoch_ = 0;  // receiver thread only
  bool need_bootstrap_ = true;  // receiver thread only
  /// The primary rejected kHello (an old server); stop offering. Receiver
  /// thread only.
  bool hello_unsupported_ = false;

  mutable std::mutex db_mu_;
  std::shared_ptr<shard::ShardedDb> db_;

  /// steady_clock when the replica was last observed caught-up,
  /// nanoseconds since epoch; 0 = never.
  std::atomic<int64_t> caught_up_at_ns_{0};

  std::thread receiver_;

  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  obs::Gauge* state_gauge_;
  obs::Gauge* applied_gauge_;
  obs::Gauge* staleness_gauge_;
  obs::Counter* bootstraps_;
  obs::Counter* records_applied_;
  obs::Counter* reconnects_;
  obs::Counter* stale_reads_rejected_;
};

}  // namespace cdbs::repl

#endif  // CDBS_REPL_FOLLOWER_H_
