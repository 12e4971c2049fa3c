#ifndef CDBS_SHARD_SUPERVISOR_H_
#define CDBS_SHARD_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/concurrent_db.h"
#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// Shard supervision and self-healing (docs/ROBUSTNESS.md). Every shard of
/// a stored ShardedDb gets an explicit health state machine,
///
///   healthy -> degraded(read-only) -> down -> recovering -> healthy
///
/// driven by the engine's persist-failure classification (FailureClassOf):
/// when a shard's writer poisons itself — K consecutive persistent failures
/// (ENOSPC/EIO class) or one corruption — it wakes the supervisor, which
/// trips that shard's circuit breaker. Writes to the sick shard then
/// fast-fail at the routing layer with kUnavailable plus a retry-after
/// hint, while reads keep serving the last published snapshot (degraded
/// read-only mode). The same thread then reopens the failed shard's log
/// through the WAL crash-recovery path (ConcurrentXmlDb::Reopen) and
/// re-admits the shard only after half-open probe writes commit durably.
/// The paper's per-shard WAL economics make this cheap: one sick shard
/// costs one shard's recovery, never the cluster's availability.
///
/// The supervisor thread runs only when there is work: a poison event, or
/// a recovery deadline while a shard is unhealthy or the corpus read-only.
/// When a breaker trips, and on that recovery clock, it also probes the
/// manifest directory; while the directory is not writable the whole
/// corpus is read-only (`shard.manifest.unwritable` forces this in tests).

namespace cdbs::shard {

/// One shard's health, as published to metrics (`shard.<i>.health` carries
/// the numeric value) and the introspect JSON (the lower-case name).
enum class ShardHealth : uint8_t {
  kHealthy = 0,     ///< writes admitted, reads served
  kDegraded = 1,    ///< breaker tripped: writes fast-fail, reads serve
  kDown = 2,        ///< a reopen or probe failed; awaiting the backoff
  kRecovering = 3,  ///< store reopened; half-open probe writes running
};

/// Stable lower-case name ("healthy", "degraded", "down", "recovering").
const char* ShardHealthName(ShardHealth health);

struct SupervisorOptions {
  /// Probe writes that must commit durably before a recovering shard is
  /// re-admitted. 0 re-admits right after a verified reopen.
  int half_open_probes = 2;
  /// Wait after a breaker trip before the first reopen; doubles after each
  /// failed reopen or probe. Also the manifest re-probe cadence while the
  /// corpus is read-only or a shard is unhealthy.
  uint64_t recovery_backoff_ms = 50;
  uint64_t max_recovery_backoff_ms = 2000;
  /// Retry-after hint (ms) attached to breaker-tripped kUnavailable
  /// bounces — what CdbsClient's backoff honors.
  uint64_t breaker_retry_after_ms = 100;
};

/// Supervises the shards of one ShardedDb. Owned by the ShardedDb; all
/// methods are safe from any thread once constructed. The health gate reads
/// (`health`, `read_only`, `CheckWritable`) are lock-free — one atomic load
/// — so they can sit on the write hot path.
class ShardSupervisor {
 public:
  /// What the supervisor needs of one shard: its engine and a probe-write
  /// target (any live non-root node of the shard; the ShardedDb passes the
  /// first document root). 0 disables probe writes for that shard (an
  /// empty shard re-admits right after a verified reopen).
  struct ShardHandle {
    engine::ConcurrentXmlDb* engine = nullptr;
    engine::NodeId probe_target = 0;
  };

  ShardSupervisor(std::vector<ShardHandle> shards, std::string storage_dir,
                  const SupervisorOptions& options);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Starts the supervision thread and installs each engine's poison sink;
  /// Stop detaches the sinks and joins. Stop is idempotent.
  void Start();
  void Stop();

  size_t shard_count() const { return shards_.size(); }

  /// Current health of `shard` (lock-free).
  ShardHealth health(uint32_t shard) const;

  /// True while the whole corpus is degraded to read-only because the
  /// manifest directory is not writable (lock-free).
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// The write-path gate: OK when `shard` is healthy and the corpus is
  /// writable; otherwise kUnavailable with a message naming the state and
  /// the retry-after hint. Counted in `supervisor.fast_fails`.
  Status CheckWritable(uint32_t shard) const;

  /// Hint (ms) for a write bounced by CheckWritable: while a shard is in
  /// backoff this reflects the time until its next recovery attempt,
  /// floored at `breaker_retry_after_ms`.
  uint64_t RetryAfterHintMillis(uint32_t shard) const;

  /// Health snapshot as JSON, spliced into the sharded `introspect`
  /// response:
  /// `{"read_only":false,"shards":[{"shard":0,"health":"healthy",...}]}`.
  std::string ToJson() const;

  /// Completed recoveries (shards re-admitted to healthy) since start.
  uint64_t recoveries() const {
    return recoveries_count_.load(std::memory_order_acquire);
  }

  /// Test helper: polls until `shard` reaches `target` health or
  /// `timeout_ms` passes. Returns whether the target state was reached.
  bool WaitForHealth(uint32_t shard, ShardHealth target,
                     uint64_t timeout_ms) const;

 private:
  struct ShardState;

  using TimePoint = std::chrono::steady_clock::time_point;

  /// Wakes the loop (a poison sink; never blocks on an engine).
  void Notify();
  void Loop();
  /// One pass over every shard and, when due, the manifest directory.
  /// Returns when the loop must next run without an event: the earliest
  /// recovery deadline, or TimePoint::max() when all is well.
  TimePoint Scan();
  /// Advances shard `s`; true when its breaker tripped in this pass.
  bool ScanShard(uint32_t s);
  /// Reopens shard `s` and runs its half-open probes.
  void Recover(uint32_t s);
  Status ProbeWrite(uint32_t s);
  void ProbeManifestDir();
  void SetHealth(uint32_t s, ShardHealth health);
  /// Records `error`, doubles the backoff and puts `s` in `health` until
  /// the next attempt.
  void ScheduleRetry(uint32_t s, const Status& error, ShardHealth health);

  const std::vector<ShardHandle> shards_;
  const std::string storage_dir_;
  const SupervisorOptions options_;

  std::vector<std::unique_ptr<ShardState>> states_;
  std::atomic<bool> read_only_{false};
  std::atomic<uint64_t> recoveries_count_{0};

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_requested_ = false;  // guarded by mu_
  bool event_ = false;           // guarded by mu_: a writer poisoned
  bool started_ = false;
  // Supervisor-thread-only: when the manifest directory is next probed
  // while the corpus is read-only or a shard unhealthy.
  TimePoint next_manifest_probe_{};
  std::thread thread_;

  // supervisor.* metrics in the process-wide registry.
  obs::Counter* scans_ = nullptr;
  obs::Counter* breaker_trips_ = nullptr;
  obs::Counter* recoveries_ = nullptr;
  obs::Counter* reopen_failures_ = nullptr;
  obs::Counter* probe_writes_ = nullptr;
  obs::Counter* fast_fails_ = nullptr;
  obs::Counter* read_only_trips_ = nullptr;
  obs::Gauge* read_only_gauge_ = nullptr;
};

}  // namespace cdbs::shard

#endif  // CDBS_SHARD_SUPERVISOR_H_
