#include "shard/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/failpoint.h"

namespace cdbs::shard {

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kProbeTag[] = "cdbs-probe";
constexpr char kManifestProbeFile[] = "/.cdbs-health-probe";

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDown:
      return "down";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

/// Per-shard supervision state. `health` is the shared gate (atomic, read
/// on the write hot path); everything else is either owned by the
/// supervisor thread alone or guarded by `mu`.
struct ShardSupervisor::ShardState {
  std::atomic<ShardHealth> health{ShardHealth::kHealthy};
  /// Time (since start, in ms) before which no recovery attempt runs —
  /// atomic so RetryAfterHintMillis can read it from any thread.
  std::atomic<uint64_t> next_attempt_ms{0};

  // Supervisor-thread-only.
  uint64_t backoff_ms = 0;
  int probes_ok = 0;

  std::mutex mu;  // guards last_error (ToJson reads it cross-thread)
  Status last_error;

  obs::Gauge* health_gauge = nullptr;

  void RecordError(const Status& error) {
    std::lock_guard<std::mutex> lock(mu);
    last_error = error;
  }
  Status LastError() {
    std::lock_guard<std::mutex> lock(mu);
    return last_error;
  }
};

ShardSupervisor::ShardSupervisor(std::vector<ShardHandle> shards,
                                 std::string storage_dir,
                                 const SupervisorOptions& options)
    : shards_(std::move(shards)),
      storage_dir_(std::move(storage_dir)),
      options_(options) {
  auto& reg = obs::MetricRegistry::Default();
  breaker_trips_ = reg.GetCounter(
      "supervisor.breaker_trips", "shard circuit breakers tripped");
  recoveries_ = reg.GetCounter(
      "supervisor.recoveries", "shards recovered back to healthy");
  reopen_failures_ = reg.GetCounter(
      "supervisor.reopen_failures", "failed shard store reopen attempts");
  probe_writes_ = reg.GetCounter(
      "supervisor.probe_writes", "half-open probe writes issued");
  fast_fails_ = reg.GetCounter(
      "supervisor.fast_fails", "writes bounced by the health gate");
  read_only_trips_ = reg.GetCounter(
      "supervisor.read_only_trips",
      "times the corpus degraded to read-only");
  read_only_gauge_ = reg.GetGauge(
      "shard.read_only", "1 while the whole corpus is read-only");
  read_only_gauge_->Set(0);
  states_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto state = std::make_unique<ShardState>();
    state->health_gauge = reg.GetGauge(
        "shard." + std::to_string(s) + ".health",
        "0 healthy, 1 degraded, 2 down, 3 recovering");
    state->health_gauge->Set(0);
    states_.push_back(std::move(state));
  }
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

void ShardSupervisor::Start() {
  if (!options_.enabled || started_) return;
  started_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void ShardSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

ShardHealth ShardSupervisor::health(uint32_t shard) const {
  if (shard >= states_.size()) return ShardHealth::kHealthy;
  return states_[shard]->health.load(std::memory_order_acquire);
}

Status ShardSupervisor::CheckWritable(uint32_t shard) const {
  if (read_only()) {
    fast_fails_->Increment();
    return Status::Unavailable(
        "corpus is read-only: manifest directory is not writable");
  }
  const ShardHealth h = health(shard);
  if (h == ShardHealth::kHealthy) return Status::OK();
  fast_fails_->Increment();
  return Status::Unavailable(
      "shard " + std::to_string(shard) + " is " + ShardHealthName(h) +
      ": writes fast-fail while reads serve the last published snapshot");
}

uint64_t ShardSupervisor::RetryAfterHintMillis(uint32_t shard) const {
  uint64_t hint = options_.breaker_retry_after_ms;
  if (shard < states_.size() &&
      health(shard) == ShardHealth::kDown) {
    // While in backoff, tell clients when the next recovery attempt runs.
    const uint64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                Clock::now().time_since_epoch())
                                .count();
    const uint64_t next =
        states_[shard]->next_attempt_ms.load(std::memory_order_acquire);
    if (next > now_ms) hint = std::max(hint, next - now_ms);
  }
  return hint == 0 ? 1 : hint;
}

std::string ShardSupervisor::ToJson() const {
  std::string out = "{\"read_only\":";
  out += read_only() ? "true" : "false";
  out += ",\"shards\":[";
  for (size_t s = 0; s < states_.size(); ++s) {
    if (s > 0) out += ",";
    const ShardHealth h = health(static_cast<uint32_t>(s));
    out += "{\"shard\":" + std::to_string(s);
    out += ",\"health\":\"";
    out += ShardHealthName(h);
    out += "\",\"consecutive_persist_failures\":";
    out += std::to_string(shards_[s].engine == nullptr
                              ? 0
                              : shards_[s].engine->consecutive_persist_failures());
    out += ",\"last_error\":\"";
    const Status err = states_[s]->LastError();
    out += err.ok() ? "" : JsonEscape(err.ToString());
    out += "\"}";
  }
  out += "]}";
  return out;
}

bool ShardSupervisor::WaitForHealth(uint32_t shard, ShardHealth target,
                                    uint64_t timeout_ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (health(shard) != target) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void ShardSupervisor::SetHealth(uint32_t s, ShardHealth health) {
  states_[s]->health.store(health, std::memory_order_release);
  states_[s]->health_gauge->Set(static_cast<double>(health));
}

void ShardSupervisor::NoteFailure(uint32_t s, const Status& error,
                                  Clock::time_point now) {
  ShardState& st = *states_[s];
  st.RecordError(error);
  st.backoff_ms = st.backoff_ms == 0
                      ? options_.recovery_backoff_ms
                      : std::min(st.backoff_ms * 2,
                                 options_.max_recovery_backoff_ms);
  const uint64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now.time_since_epoch())
                              .count();
  st.next_attempt_ms.store(now_ms + st.backoff_ms,
                           std::memory_order_release);
  SetHealth(s, ShardHealth::kDown);
}

void ShardSupervisor::Loop() {
  auto next_manifest_probe = Clock::now();
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.poll_interval_ms),
                      [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    const auto now = Clock::now();
    if (now >= next_manifest_probe) {
      ProbeManifestDir();
      next_manifest_probe =
          now + std::chrono::milliseconds(options_.manifest_probe_interval_ms);
    }
    for (uint32_t s = 0; s < shards_.size(); ++s) ScanShard(s, now);
    lock.lock();
  }
}

void ShardSupervisor::ScanShard(uint32_t s, Clock::time_point now) {
  ShardState& st = *states_[s];
  engine::ConcurrentXmlDb* eng = shards_[s].engine;
  if (eng == nullptr) return;
  switch (st.health.load(std::memory_order_acquire)) {
    case ShardHealth::kHealthy:
      if (eng->poisoned()) {
        // Breaker trip: the writer poisoned itself on a persistent or
        // corruption-class persist failure. Degrade (writes already
        // fast-fail at the engine; now the routing layer bounces them
        // before they even queue) and schedule recovery.
        breaker_trips_->Increment();
        st.RecordError(eng->last_persist_error());
        st.backoff_ms = 0;
        st.next_attempt_ms.store(0, std::memory_order_release);
        SetHealth(s, ShardHealth::kDegraded);
      }
      break;
    case ShardHealth::kDegraded:
      // One scan in degraded lets in-flight submissions drain their
      // fast-fails; then recovery starts.
      SetHealth(s, ShardHealth::kDown);
      break;
    case ShardHealth::kDown: {
      const uint64_t now_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now.time_since_epoch())
              .count();
      if (now_ms < st.next_attempt_ms.load(std::memory_order_acquire)) break;
      const Status reopened = eng->Reopen();
      if (reopened.ok()) {
        st.probes_ok = 0;
        SetHealth(s, ShardHealth::kRecovering);
      } else {
        reopen_failures_->Increment();
        NoteFailure(s, reopened, now);
      }
      break;
    }
    case ShardHealth::kRecovering: {
      if (eng->poisoned()) {
        // A probe (or a straggler write) re-poisoned the writer: the
        // fault is still live. Back off and reopen again later.
        NoteFailure(s, eng->last_persist_error(), now);
        break;
      }
      if (shards_[s].probe_target == 0) {
        // Empty shard: nothing safe to probe against; the verified reopen
        // is the best evidence available.
        SetHealth(s, ShardHealth::kHealthy);
        recoveries_->Increment();
        recoveries_count_.fetch_add(1, std::memory_order_acq_rel);
        break;
      }
      const Status probed = ProbeWrite(s);
      if (!probed.ok()) {
        NoteFailure(s, probed, now);
        break;
      }
      if (++st.probes_ok >= options_.half_open_probes) {
        st.RecordError(Status::OK());
        SetHealth(s, ShardHealth::kHealthy);
        recoveries_->Increment();
        recoveries_count_.fetch_add(1, std::memory_order_acq_rel);
      }
      break;
    }
  }
}

Status ShardSupervisor::ProbeWrite(uint32_t s) {
  // A half-open probe: insert a transient element right after the probe
  // target (a document root — the new node lands BETWEEN documents, a
  // child of the synthetic shard root, so no document query ever sees it)
  // and delete it again. Both ops run through the full write pipeline —
  // group commit, WAL append, store fsync — so a passing probe certifies
  // the whole durability path, not just the reopen.
  probe_writes_->Increment();
  engine::ConcurrentXmlDb* eng = shards_[s].engine;
  Result<uint64_t> inserted =
      eng->Submit(engine::WriteOp::InsertAfter(shards_[s].probe_target,
                                               kProbeTag))
          .get();
  if (!inserted.ok()) return inserted.status();
  return eng->Submit(engine::WriteOp::Delete(
                         static_cast<engine::NodeId>(*inserted)))
      .get()
      .status();
}

void ShardSupervisor::ProbeManifestDir() {
  bool writable = true;
  if (CDBS_FAILPOINT("shard.manifest.unwritable")) {
    writable = false;
  } else if (!storage_dir_.empty()) {
    const std::string path = storage_dir_ + kManifestProbeFile;
    std::ofstream out(path, std::ios::trunc);
    out << "ok";
    out.flush();
    writable = out.good();
    out.close();
    std::remove(path.c_str());
  }
  // An in-memory corpus (empty storage_dir) can only degrade via the
  // failpoint; genuine probes need a directory.
  const bool was = read_only_.exchange(!writable, std::memory_order_acq_rel);
  if (!writable && !was) {
    read_only_trips_->Increment();
    read_only_gauge_->Set(1);
  } else if (writable && was) {
    read_only_gauge_->Set(0);
  }
}

}  // namespace cdbs::shard
