#include "shard/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/failpoint.h"

namespace cdbs::shard {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

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
  /// Time (NowMs) before which no recovery attempt runs — atomic so
  /// RetryAfterHintMillis can read it from any thread.
  std::atomic<uint64_t> next_attempt_ms{0};

  // Supervisor-thread-only.
  uint64_t backoff_ms = 0;

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
  scans_ = reg.GetCounter(
      "supervisor.scans", "supervisor passes over the shards' health");
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
  if (started_) return;
  started_ = true;
  stop_requested_ = false;
  for (const ShardHandle& h : shards_) {
    h.engine->SetPoisonSink([this] { Notify(); });
    if (h.engine->poisoned()) Notify();  // poisoned before the sink was set
  }
  thread_ = std::thread([this] { Loop(); });
}

void ShardSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  for (const ShardHandle& h : shards_) h.engine->SetPoisonSink(nullptr);
  started_ = false;
}

void ShardSupervisor::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    event_ = true;
  }
  wake_.notify_one();
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
  if (shard < states_.size()) {
    // While in backoff, tell clients when the next recovery attempt runs.
    const uint64_t now_ms = NowMs();
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
    out += std::to_string(shards_[s].engine->consecutive_persist_failures());
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

void ShardSupervisor::ScheduleRetry(uint32_t s, const Status& error,
                                    ShardHealth health) {
  ShardState& st = *states_[s];
  st.RecordError(error);
  // Floored at 1 ms, so a zero backoff cannot spin the loop.
  st.backoff_ms = std::max<uint64_t>(
      1, st.backoff_ms == 0 ? options_.recovery_backoff_ms
                            : std::min(st.backoff_ms * 2,
                                       options_.max_recovery_backoff_ms));
  st.next_attempt_ms.store(NowMs() + st.backoff_ms,
                           std::memory_order_release);
  SetHealth(s, health);
}

void ShardSupervisor::Loop() {
  // Sleeps with no timeout while all is well: a poison sink (Notify) or
  // Stop wakes it. Otherwise it also wakes at the deadline Scan returns.
  TimePoint wake_at = TimePoint::max();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto woken = [this] { return stop_requested_ || event_; };
    if (wake_at == TimePoint::max()) {
      wake_.wait(lock, woken);
    } else {
      wake_.wait_until(lock, wake_at, woken);
    }
    if (stop_requested_) return;
    event_ = false;
    // Unlocked while scanning: a Reopen or a probe write waits on a
    // writer, whose poison sink takes mu_.
    lock.unlock();
    wake_at = Scan();
    lock.lock();
  }
}

ShardSupervisor::TimePoint ShardSupervisor::Scan() {
  scans_->Increment();
  bool tripped = false;
  TimePoint wake_at = TimePoint::max();  // earliest unhealthy shard's retry
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    tripped |= ScanShard(s);
    if (health(s) == ShardHealth::kHealthy) continue;
    wake_at = std::min(wake_at, TimePoint(std::chrono::milliseconds(
                                    states_[s]->next_attempt_ms.load(
                                        std::memory_order_acquire))));
  }
  const TimePoint now = Clock::now();
  const bool sick = read_only() || wake_at != TimePoint::max();
  if (tripped || (sick && now >= next_manifest_probe_)) {
    ProbeManifestDir();
    next_manifest_probe_ =
        now + std::chrono::milliseconds(
                  std::max<uint64_t>(1, options_.recovery_backoff_ms));
  }
  if (!read_only() && wake_at == TimePoint::max()) return wake_at;
  return std::min(wake_at, next_manifest_probe_);
}

bool ShardSupervisor::ScanShard(uint32_t s) {
  ShardState& st = *states_[s];
  engine::ConcurrentXmlDb* eng = shards_[s].engine;
  if (st.health.load(std::memory_order_acquire) == ShardHealth::kHealthy) {
    if (!eng->poisoned()) return false;
    // Breaker trip: the writer poisoned itself on a persistent or
    // corruption-class persist failure. Degrade (writes already fast-fail
    // at the engine; now the routing layer bounces them before they even
    // queue). The first reopen waits one backoff, so in-flight
    // submissions drain as fast-fails first.
    breaker_trips_->Increment();
    st.backoff_ms = 0;
    ScheduleRetry(s, eng->last_persist_error(), ShardHealth::kDegraded);
    return true;
  }
  if (NowMs() >= st.next_attempt_ms.load(std::memory_order_acquire)) {
    Recover(s);
  }
  return false;
}

void ShardSupervisor::Recover(uint32_t s) {
  engine::ConcurrentXmlDb* eng = shards_[s].engine;
  const Status reopened = eng->Reopen();
  if (!reopened.ok()) {
    reopen_failures_->Increment();
    ScheduleRetry(s, reopened, ShardHealth::kDown);
    return;
  }
  SetHealth(s, ShardHealth::kRecovering);
  // Half-open: the shard is re-admitted only after `half_open_probes`
  // durable probe writes. An empty shard has nothing safe to probe
  // against; the verified reopen is the best evidence available. A probe
  // that fails (the fault is still live, or a straggler write re-poisoned
  // the writer) sends the shard back down to back off and reopen again.
  if (shards_[s].probe_target != 0) {
    for (int i = 0; i < options_.half_open_probes; ++i) {
      const Status probed = ProbeWrite(s);
      if (!probed.ok()) {
        ScheduleRetry(s, probed, ShardHealth::kDown);
        return;
      }
    }
  }
  states_[s]->RecordError(Status::OK());
  SetHealth(s, ShardHealth::kHealthy);
  recoveries_->Increment();
  recoveries_count_.fetch_add(1, std::memory_order_acq_rel);
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
  bool writable = !CDBS_FAILPOINT("shard.manifest.unwritable");
  if (writable) {
    const std::string path = storage_dir_ + kManifestProbeFile;
    std::ofstream out(path, std::ios::trunc);
    out << "ok";
    out.flush();
    writable = out.good();
    out.close();
    std::remove(path.c_str());
  }
  const bool was = read_only_.exchange(!writable, std::memory_order_acq_rel);
  if (!writable && !was) {
    read_only_trips_->Increment();
    read_only_gauge_->Set(1);
  } else if (writable && was) {
    read_only_gauge_->Set(0);
  }
}

}  // namespace cdbs::shard
