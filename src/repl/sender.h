#ifndef CDBS_REPL_SENDER_H_
#define CDBS_REPL_SENDER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "concurrency/bounded_queue.h"
#include "engine/concurrent_db.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "repl/replication.h"

/// \file
/// The primary's replication sender (docs/REPLICATION.md): fans committed
/// records out to subscribed followers over their kSubscribe streams.
///
/// Life of a record: the group-commit writer invokes the commit sink
/// (post-fsync, pre-ack) → the sender encodes the record ONCE into a wire
/// frame and TryPushes it into every follower's bounded buffer → each
/// follower's stream thread drains its buffer onto the socket, interleaving
/// heartbeats and kReplAck reads. A follower whose buffer overflows (too
/// slow) or whose socket tears is dropped — it resubscribes from its last
/// applied LSN and catches up from the replication log, or bootstraps when
/// the log has moved past it. In `sync_commit` mode the sink additionally
/// blocks until every live follower has acknowledged the record's LSN (or
/// `ack_timeout_ms` passes, dropping the laggards), which upgrades a client
/// OK into "readable on every surviving follower" — the failover guarantee
/// the chaos tests assert.
namespace cdbs::repl {

struct ReplicationSenderOptions {
  /// Per-follower buffer capacity in records. Overflow = the follower is
  /// slower than the commit stream for this long = drop it (it can catch
  /// up from the log; an unbounded buffer would just move the OOM).
  size_t follower_buffer_records = 1024;
  /// When true the commit sink blocks until all subscribed followers ack
  /// each record (bounded by ack_timeout_ms, which drops non-ackers).
  bool sync_commit = false;
  /// Sync mode: how long a commit waits for follower acks before giving up
  /// on (and dropping) the laggards.
  int ack_timeout_ms = 2000;
  /// Idle heartbeat interval on each stream, so followers can distinguish
  /// "no writes" from "dead primary" and track the primary's last LSN.
  int heartbeat_ms = 200;
  /// Per-frame socket write budget on a follower stream.
  int write_timeout_ms = 2000;
};

/// Fan-out hub between the engine's commit sink and follower sockets.
/// Thread contract: `Attach` once after construction; `RunFollowerStream`
/// is called by the server on the connection's own thread (one call per
/// live follower, blocks for the stream's lifetime); `Stop` from anywhere.
class ReplicationSender {
 public:
  ReplicationSender(engine::ConcurrentXmlDb* db,
                    ReplicationSenderOptions options = {});
  ~ReplicationSender();

  ReplicationSender(const ReplicationSender&) = delete;
  ReplicationSender& operator=(const ReplicationSender&) = delete;

  /// Installs this sender as the database's commit sink.
  void Attach();

  /// Serves one follower's replication stream on `fd` (an accepted
  /// connection whose first frame was the kSubscribe request `req`).
  /// Writes the subscribe response itself — OK with the current last LSN,
  /// or kOutOfRange when the follower must bootstrap (epoch mismatch or
  /// LSNs below the retention floor) — then pushes kReplBatch frames and
  /// heartbeats until the follower disconnects, falls too far behind, or
  /// the sender stops. Does not close `fd` (the server owns it).
  void RunFollowerStream(int fd, const net::Request& req);

  /// Detaches the commit sink, wakes sync-commit waiters, and tears down
  /// every follower stream (their RunFollowerStream calls return).
  void Stop();

  /// Currently subscribed followers (advisory).
  size_t follower_count() const;

  /// Smallest acked LSN across live followers; 0 with no followers.
  uint64_t min_acked_lsn() const;

 private:
  /// One record as fanned out: its wire frame is encoded once and shared
  /// by every follower.
  struct QueuedRecord {
    uint64_t lsn = 0;
    std::chrono::steady_clock::time_point committed_at;
    std::shared_ptr<const std::string> frame;
  };

  struct FollowerState {
    explicit FollowerState(size_t cap) : queue(cap) {}
    concurrency::BoundedQueue<QueuedRecord> queue;
    std::atomic<uint64_t> acked_lsn{0};
    std::atomic<int> fd{-1};
    std::atomic<bool> dropped{false};
  };

  void OnCommit(const ReplRecord& record);
  /// Marks the follower dropped and shocks its socket so both the stream
  /// thread here and the follower's reader notice immediately.
  void DropFollower(FollowerState* f, const char* why);
  /// Reads any kReplAck frames waiting on `fd` without blocking. Returns
  /// false when the stream is torn (caller drops the follower).
  bool DrainAcks(int fd, FollowerState* f);
  void UpdateLagMetrics();

  engine::ConcurrentXmlDb* db_;
  ReplicationSenderOptions options_;
  std::atomic<bool> stopped_{false};

  mutable std::mutex mu_;                 // guards followers_
  std::condition_variable ack_cv_;        // sync mode: signalled on each ack
  std::vector<std::shared_ptr<FollowerState>> followers_;

  // repl.* metrics, in the engine's registry (a child of
  // MetricRegistry::Default(), so kIntrospect/Prometheus see them).
  obs::Gauge* followers_gauge_;
  obs::Counter* records_sent_;
  obs::Counter* bytes_sent_;
  obs::Counter* heartbeats_;
  obs::Counter* followers_dropped_;
  obs::Counter* sync_ack_timeouts_;
  obs::Gauge* lag_records_;
  obs::Gauge* lag_bytes_;
  obs::Gauge* lag_ms_;
};

}  // namespace cdbs::repl

#endif  // CDBS_REPL_SENDER_H_
