#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cdbs::obs {

namespace {

constexpr const char* kSpanNames[kNumSpanNames] = {
    "request",      "parse", "admission",     "queue_wait",
    "snapshot_pin", "eval",  "commit.phase1", "wal.append",
    "wal.fsync",    "publish",
};

constexpr const char* kOutcomeNames[] = {"ok", "error", "shed", "deadline"};

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

// SplitMix64: turns the sequential mint counter into well-scattered ids so
// wire ids and server-minted ids are unlikely to collide.
uint64_t Scramble(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The thread-local scope stack head (set of ids work on this thread is
// attributed to). Plain thread_local pointers: only the owning thread
// touches them.
thread_local const uint64_t* t_scope_ids = nullptr;
thread_local size_t t_scope_count = 0;

}  // namespace

const char* SpanNameString(SpanName name) {
  const auto i = static_cast<size_t>(name);
  return i < kNumSpanNames ? kSpanNames[i] : "unknown";
}

const char* SpanOutcomeString(SpanOutcome outcome) {
  const auto i = static_cast<size_t>(outcome);
  return i < 4 ? kOutcomeNames[i] : "unknown";
}

// --------------------------------------------------------------------------
// Tracer.

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives exiting threads
  return *tracer;
}

Tracer::Tracer() {
  MetricRegistry& reg = MetricRegistry::Default();
  for (int i = 0; i < kNumSpanNames; ++i) {
    stage_ns_[i] = reg.GetHistogram(
        std::string("trace.stage.") + kSpanNames[i] + ".ns",
        std::string("Span duration of trace stage ") + kSpanNames[i]);
  }
}

void Tracer::Configure(const TraceOptions& options) {
  sample_every_.store(options.sample_every, std::memory_order_relaxed);
  slow_ns_.store(options.slow_ms * 1000000ull, std::memory_order_relaxed);
  retain_.store(options.retain > 0 ? options.retain : 1,
                std::memory_order_relaxed);
  active_.store(options.sample_every > 0 || options.slow_ms > 0,
                std::memory_order_relaxed);
}

TraceOptions Tracer::options() const {
  TraceOptions out;
  out.sample_every = sample_every_.load(std::memory_order_relaxed);
  out.slow_ms = slow_ns_.load(std::memory_order_relaxed) / 1000000ull;
  out.retain = retain_.load(std::memory_order_relaxed);
  return out;
}

bool Tracer::ParseKnob(const char* name, const char* raw, uint64_t* value) {
  if (raw == nullptr || raw[0] == '\0') return true;  // unset: keep default
  uint64_t parsed = 0;
  const char* end = raw + std::strlen(raw);
  const auto [ptr, ec] = std::from_chars(raw, end, parsed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr,
                 "warning: ignoring %s=\"%s\" (want a whole non-negative "
                 "integer); using default %" PRIu64 "\n",
                 name, raw, *value);
    return false;
  }
  *value = parsed;
  return true;
}

TraceOptions Tracer::OptionsFromEnv() {
  TraceOptions out;
  ParseKnob("CDBS_TRACE_SAMPLE", std::getenv("CDBS_TRACE_SAMPLE"),
            &out.sample_every);
  ParseKnob("CDBS_TRACE_SLOW_MS", std::getenv("CDBS_TRACE_SLOW_MS"),
            &out.slow_ms);
  ParseKnob("CDBS_TRACE_RETAIN", std::getenv("CDBS_TRACE_RETAIN"),
            &out.retain);
  if (out.retain == 0) {
    std::fprintf(stderr,
                 "warning: CDBS_TRACE_RETAIN=0 keeps nothing; using 1\n");
    out.retain = 1;
  }
  return out;
}

uint64_t Tracer::MintTraceId() {
  const uint64_t id =
      Scramble(next_trace_id_.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

bool Tracer::ShouldSample() {
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return false;
  return sample_clock_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

uint64_t Tracer::NowNs() {
  // One shared monotonic epoch so spans from different threads line up.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Tracer::Ring* Tracer::LocalRing() {
  // Owns the thread's ring; the destructor returns it for reuse so a churn
  // of short-lived threads (one per connection) cannot grow ring memory
  // without bound.
  struct Holder {
    Tracer* tracer = nullptr;
    Ring* ring = nullptr;
    ~Holder() {
      if (tracer == nullptr || ring == nullptr) return;
      std::lock_guard<std::mutex> lock(tracer->rings_mu_);
      tracer->free_rings_.push_back(ring);
    }
  };
  thread_local Holder holder;
  if (holder.ring == nullptr) {
    std::lock_guard<std::mutex> lock(rings_mu_);
    if (!free_rings_.empty()) {
      holder.ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(
          std::make_unique<Ring>(static_cast<uint32_t>(rings_.size() + 1)));
      holder.ring = rings_.back().get();
    }
    holder.tracer = this;
  }
  return holder.ring;
}

void Tracer::RecordSpan(uint64_t trace_id, SpanName name, uint64_t start_ns,
                        uint64_t duration_ns, SpanOutcome outcome) {
  if (!active() || trace_id == 0) return;
  Ring* ring = LocalRing();
  const size_t i =
      ring->next.fetch_add(1, std::memory_order_relaxed) % Ring::kSlots;
  Slot& slot = ring->slots[i];
  // Seqlock write: odd while the fields are in flux, even (release) when
  // stable. Only this thread writes this ring, so a plain bump suffices.
  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.name.store(static_cast<uint8_t>(name), std::memory_order_relaxed);
  slot.outcome.store(static_cast<uint8_t>(outcome),
                     std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
  stage_ns_[static_cast<size_t>(name)]->Record(duration_ns);
}

void Tracer::CollectSpans(uint64_t trace_id, std::vector<Span>* out) const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    for (const Slot& slot : ring->slots) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint32_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 % 2 != 0) continue;  // mid-write; the span is being replaced
        Span span;
        span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
        span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
        span.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
        span.name =
            static_cast<SpanName>(slot.name.load(std::memory_order_relaxed));
        span.outcome = static_cast<SpanOutcome>(
            slot.outcome.load(std::memory_order_relaxed));
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
        if (span.trace_id == trace_id &&
            static_cast<size_t>(span.name) < kNumSpanNames) {
          span.tid = ring->id;
          out->push_back(span);
        }
        break;
      }
    }
  }
  std::sort(out->begin(), out->end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.duration_ns > b.duration_ns;
  });
}

void Tracer::EndRequest(uint64_t trace_id, uint64_t total_ns,
                        SpanOutcome outcome, bool sampled) {
  if (!active() || trace_id == 0) return;
  const uint64_t slow_ns = slow_ns_.load(std::memory_order_relaxed);
  const bool slow = slow_ns > 0 && total_ns >= slow_ns;
  const uint64_t end_ns = NowNs();
  RecordSpan(trace_id, SpanName::kRequest,
             end_ns > total_ns ? end_ns - total_ns : 0, total_ns, outcome);
  if (!sampled && !slow) return;

  RetainedTrace trace;
  trace.trace_id = trace_id;
  trace.total_ns = total_ns;
  trace.outcome = outcome;
  trace.slow = slow;
  CollectSpans(trace_id, &trace.spans);

  std::lock_guard<std::mutex> lock(retained_mu_);
  for (auto it = retained_.begin(); it != retained_.end(); ++it) {
    if (it->trace_id == trace_id) {
      // A retry of a request we already retained: the fresh collection
      // swept up both attempts' spans, so replace wholesale.
      trace.attempts = it->attempts + 1;
      trace.slow = trace.slow || it->slow;
      retained_.erase(it);
      break;
    }
  }
  retained_.push_back(std::move(trace));
  traces_retained_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t cap = retain_.load(std::memory_order_relaxed);
  while (retained_.size() > cap) retained_.pop_front();
}

std::vector<RetainedTrace> Tracer::Retained() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return {retained_.begin(), retained_.end()};
}

std::string Tracer::ToChromeJson(size_t max_traces) const {
  std::vector<RetainedTrace> traces = Retained();
  if (traces.size() > max_traces) {
    traces.erase(traces.begin(),
                 traces.end() - static_cast<ptrdiff_t>(max_traces));
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const RetainedTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      if (!first) out += ",";
      first = false;
      // Complete events; ts/dur are microseconds per the trace_event spec.
      Appendf(&out,
              "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
              "\"pid\":1,\"tid\":%u,\"args\":{\"trace_id\":\"%016" PRIx64
              "\",\"outcome\":\"%s\",\"attempts\":%u%s}}",
              SpanNameString(span.name), span.start_ns / 1e3,
              span.duration_ns / 1e3, span.tid, span.trace_id,
              SpanOutcomeString(span.outcome), trace.attempts,
              trace.slow ? ",\"slow\":true" : "");
    }
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::SlowLog() const {
  std::string out;
  for (const RetainedTrace& trace : Retained()) {
    if (!trace.slow) continue;
    Appendf(&out,
            "[slow-request] trace=%016" PRIx64
            " total=%.3fms outcome=%s attempts=%u spans:",
            trace.trace_id, trace.total_ns / 1e6,
            SpanOutcomeString(trace.outcome), trace.attempts);
    for (const Span& span : trace.spans) {
      if (span.name == SpanName::kRequest) continue;
      Appendf(&out, " %s=%.3fms", SpanNameString(span.name),
              span.duration_ns / 1e6);
    }
    out += "\n";
  }
  return out;
}

void Tracer::Clear() {
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained_.clear();
  }
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    for (Slot& slot : ring->slots) {
      const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
      slot.seq.store(seq + 1, std::memory_order_release);
      slot.trace_id.store(0, std::memory_order_relaxed);
      slot.seq.store(seq + 2, std::memory_order_release);
    }
  }
}

// --------------------------------------------------------------------------
// TraceScope.

TraceScope::TraceScope(uint64_t trace_id)
    : own_id_(trace_id),
      prev_ids_(t_scope_ids),
      prev_count_(t_scope_count) {
  if (trace_id != 0) {
    t_scope_ids = &own_id_;
    t_scope_count = 1;
  } else {
    t_scope_ids = nullptr;
    t_scope_count = 0;
  }
}

TraceScope::TraceScope(const uint64_t* ids, size_t n)
    : prev_ids_(t_scope_ids), prev_count_(t_scope_count) {
  t_scope_ids = n > 0 ? ids : nullptr;
  t_scope_count = n;
}

TraceScope::~TraceScope() {
  t_scope_ids = prev_ids_;
  t_scope_count = prev_count_;
}

uint64_t TraceScope::current() {
  return t_scope_count > 0 ? t_scope_ids[0] : 0;
}

const uint64_t* TraceScope::current_ids(size_t* n) {
  *n = t_scope_count;
  return t_scope_ids;
}

// --------------------------------------------------------------------------
// RequestTrace.

RequestTrace::RequestTrace(uint64_t wire_trace_id) {
  Tracer& tracer = Tracer::Instance();
  if (!tracer.active()) return;
  sampled_ = tracer.ShouldSample();
  // Slow capture needs every request recorded (slowness is only known at
  // the end); pure sampling records just the selected ones.
  if (!sampled_ && tracer.options().slow_ms == 0) return;
  trace_id_ = wire_trace_id != 0 ? wire_trace_id : tracer.MintTraceId();
  start_ns_ = Tracer::NowNs();
  scope_ = std::make_unique<TraceScope>(trace_id_);
}

RequestTrace::~RequestTrace() {
  if (trace_id_ == 0) return;
  scope_.reset();
  Tracer::Instance().EndRequest(trace_id_, Tracer::NowNs() - start_ns_,
                                outcome_, sampled_);
}

}  // namespace cdbs::obs
