#ifndef CDBS_OBS_TRACE_H_
#define CDBS_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file
/// End-to-end request tracing (docs/OBSERVABILITY.md, "Tracing"): every
/// served request can carry a 64-bit trace id from the client's wire frame
/// down through admission control, the bounded write queue, the WAL fsync
/// and the COW snapshot publish, accumulating *spans* — named, timestamped
/// stage intervals — along the way.
///
/// Design constraints, in order:
///   1. Near-zero cost when disabled: one relaxed atomic load per
///      potential span. With `CDBS_TRACE_SAMPLE=0` and
///      `CDBS_TRACE_SLOW_MS=0` no span is ever recorded (tests assert the
///      recorded-span counter stays exactly zero).
///   2. Lock-free recording when enabled: spans land in fixed-size
///      per-thread ring buffers; each slot is a seqlock of relaxed atomics
///      so a concurrent collector can snapshot rings without stopping
///      writers (and without data races under TSan).
///   3. Bounded memory: rings are fixed-size and recycled through a
///      freelist when threads exit; retained traces live in a bounded
///      deque.
///
/// The unit of retention is a *request*: `Tracer::EndRequest` decides
/// whether the request's spans are kept (it was sampled, or it ran longer
/// than the slow threshold), collects them from every ring, and stores
/// them as one `RetainedTrace`. Ending the same trace id again — a client
/// retry after a torn stream — *replaces* the retained entry with the
/// union of both attempts' spans, so a retried request reads as one trace
/// with two attempts.
///
/// Exports: Chrome `trace_event` JSON (loadable in chrome://tracing or
/// Perfetto) and a human-readable slow-request log. The same data is
/// servable live over the wire via the kIntrospect opcode
/// (src/net/protocol.h).

namespace cdbs::obs {

/// Span names are a closed enum so recording never allocates and exporters
/// can use a fixed table. `kRequest` is the whole-request envelope span
/// recorded by EndRequest; everything else is one pipeline stage.
enum class SpanName : uint8_t {
  kRequest = 0,   ///< whole request, wire-in to response-out
  kParse,         ///< frame/request or query parse
  kAdmission,     ///< admission control: the write-queue push (or bounce)
  kQueueWait,     ///< submission -> dequeue by a worker
  kSnapshotPin,   ///< read path: pinning the published snapshot
  kEval,          ///< read path: query evaluation against the snapshot
  kCommitPhase1,  ///< writer: in-memory apply of the whole group
  kWalAppend,     ///< WAL: the group's record append (one pwrite)
  kWalFsync,      ///< WAL: the group's one fdatasync
  kPublish,       ///< snapshot publication (Fork + Publish)
};
inline constexpr int kNumSpanNames = 10;

/// Stable lowercase name for exporters ("wal.fsync", "queue_wait", ...).
const char* SpanNameString(SpanName name);

/// How a span (or a whole request) ended.
enum class SpanOutcome : uint8_t {
  kOk = 0,
  kError,     ///< failed with a non-retriable status
  kShed,      ///< bounced by admission control (kRetryAfter)
  kDeadline,  ///< expired before or during execution
};

const char* SpanOutcomeString(SpanOutcome outcome);

/// One recorded stage interval. Timestamps are nanoseconds on the
/// process-wide monotonic clock (`Tracer::NowNs`).
struct Span {
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  SpanName name = SpanName::kRequest;
  SpanOutcome outcome = SpanOutcome::kOk;
  uint32_t tid = 0;  ///< recording thread (ring id; Chrome JSON "tid")
};

/// One retained request: its collected spans plus end-of-request facts.
struct RetainedTrace {
  uint64_t trace_id = 0;
  uint64_t total_ns = 0;  ///< end-to-end latency of the latest attempt
  SpanOutcome outcome = SpanOutcome::kOk;
  bool slow = false;       ///< exceeded CDBS_TRACE_SLOW_MS
  uint32_t attempts = 1;   ///< times this trace id was ended (retries)
  std::vector<Span> spans; ///< all attempts' spans, by start time
};

/// Runtime configuration, normally parsed from the environment.
struct TraceOptions {
  /// Record every Nth request (1 = all, 0 = none). Sampled requests are
  /// always retained.
  uint64_t sample_every = 0;
  /// Requests slower than this are retained even when not sampled
  /// (0 disables the slow path). When nonzero, spans are recorded for
  /// every request so a slow one has its breakdown by the time it is
  /// known to be slow.
  uint64_t slow_ms = 0;
  /// How many retained traces to keep (FIFO eviction).
  uint64_t retain = 32;
};

/// The process-wide trace collector. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& Instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Installs new options (tests, benches, server startup). Takes effect
  /// for subsequently started requests.
  void Configure(const TraceOptions& options);
  TraceOptions options() const;

  /// Strict-parsed options from CDBS_TRACE_SAMPLE / CDBS_TRACE_SLOW_MS /
  /// CDBS_TRACE_RETAIN. Follows the bench EnvKnob convention: a value
  /// that is not a whole non-negative decimal number is rejected with a
  /// warning on stderr and the default is used (0, 0, 32). Unlike the
  /// bench knobs, 0 is valid here — it means "off".
  static TraceOptions OptionsFromEnv();

  /// One strictly-parsed knob: accepts only a whole non-negative decimal
  /// number (0 allowed); anything else warns on stderr and leaves
  /// `*value` at its default. Returns whether `raw` parsed. Exposed for
  /// the unit tests; `raw == nullptr` (unset) keeps the default silently.
  static bool ParseKnob(const char* name, const char* raw, uint64_t* value);

  /// True when any request could record spans (sampling or slow capture
  /// enabled). One relaxed load — the whole cost of disabled tracing.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Mints a process-unique nonzero trace id (for requests that arrive
  /// without one — bare connections, engine-direct callers).
  uint64_t MintTraceId();

  /// Per-request sampling decision (every Nth start; false when off).
  bool ShouldSample();

  /// Records one span into the calling thread's ring. No-op while
  /// inactive. Also feeds the `trace.stage.<name>.ns` histogram in
  /// MetricRegistry::Default() (the benches' per-stage breakdown).
  void RecordSpan(uint64_t trace_id, SpanName name, uint64_t start_ns,
                  uint64_t duration_ns, SpanOutcome outcome);

  /// Ends a request: records its `kRequest` envelope span and, when
  /// `sampled` or the request exceeded the slow threshold, collects every
  /// span carrying `trace_id` from all rings into a RetainedTrace.
  /// Re-ending an id replaces its retained entry with the enlarged span
  /// set and bumps `attempts` (client retries reuse their trace id).
  void EndRequest(uint64_t trace_id, uint64_t total_ns, SpanOutcome outcome,
                  bool sampled);

  /// Copies of the retained traces, oldest first.
  std::vector<RetainedTrace> Retained() const;

  /// Retained traces as Chrome trace_event JSON: an object with a
  /// `traceEvents` array of complete ("ph":"X") events, timestamps in
  /// microseconds — loadable in chrome://tracing and Perfetto. At most
  /// `max_traces` most-recent traces.
  std::string ToChromeJson(size_t max_traces = SIZE_MAX) const;

  /// Human-readable one-line-per-request log of retained *slow* traces.
  std::string SlowLog() const;

  /// Spans recorded since process start (the disabled-overhead guard:
  /// stays exactly 0 while tracing is off).
  uint64_t spans_recorded() const {
    return spans_recorded_.load(std::memory_order_relaxed);
  }

  /// Requests retained since process start.
  uint64_t traces_retained() const {
    return traces_retained_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds on the shared monotonic clock all spans use.
  static uint64_t NowNs();

  /// Drops retained traces and wipes every ring (tests: isolate cases
  /// without restarting the process). Leaves options untouched.
  void Clear();

 private:
  // One seqlock slot. All fields are atomics accessed relaxed; `seq`
  // (odd = being written) orders them: the writer bumps it to odd,
  // stores the fields, then publishes even with release; a reader that
  // sees the same even value before and after its field loads has a
  // consistent span.
  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint8_t> name{0};
    std::atomic<uint8_t> outcome{0};
  };

  // A fixed ring owned by one recording thread at a time. Rings are never
  // destroyed while the process lives: when a thread exits, its ring goes
  // back to the freelist with its contents intact (spans of still-pending
  // traces stay collectible), and the next thread reuses it. Stale slots
  // are harmless — collection matches by trace id, and ids are
  // process-unique.
  struct Ring {
    static constexpr size_t kSlots = 2048;
    explicit Ring(uint32_t id) : id(id) {}
    const uint32_t id;
    std::atomic<size_t> next{0};
    Slot slots[kSlots];
  };

  Tracer();
  Ring* LocalRing();
  void CollectSpans(uint64_t trace_id, std::vector<Span>* out) const;

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> slow_ns_{0};
  std::atomic<uint64_t> retain_{32};

  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> sample_clock_{0};
  std::atomic<uint64_t> spans_recorded_{0};
  std::atomic<uint64_t> traces_retained_{0};

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;   // all ever created
  std::vector<Ring*> free_rings_;              // returned by exited threads

  mutable std::mutex retained_mu_;
  std::deque<RetainedTrace> retained_;

  // trace.stage.<name>.ns histograms, one per SpanName, registered once.
  Histogram* stage_ns_[kNumSpanNames] = {};
};

/// The thread-local trace context: the set of trace ids the current
/// thread's work is attributed to. A connection or reader thread carries
/// one id; the group-commit writer carries the whole group's ids so one
/// `wal.fsync` span fans out to every request it covered. RAII — nests by
/// save/restore, so a scope installed inside another shadows it.
class TraceScope {
 public:
  /// Single-id scope. `trace_id == 0` installs an empty scope (no-op
  /// spans), which keeps call sites branch-free.
  explicit TraceScope(uint64_t trace_id);
  /// Group scope over `ids[0..n)`. The array must outlive the scope.
  TraceScope(const uint64_t* ids, size_t n);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The current thread's single trace id: the first id of the innermost
  /// scope, or 0 when untraced. (Submission paths use this to tag work
  /// they hand to other threads.)
  static uint64_t current();

  /// The current thread's full id set (empty when untraced).
  static const uint64_t* current_ids(size_t* n);

 private:
  uint64_t own_id_ = 0;  // storage for the single-id form
  const uint64_t* prev_ids_;
  size_t prev_count_;
};

/// RAII stage span: captures the start time at construction and records
/// one span per trace id in the innermost TraceScope at destruction (or
/// an explicit End()). Free when the tracer is inactive or no scope is
/// installed.
class TraceSpan {
 public:
  explicit TraceSpan(SpanName name) : name_(name) {
    size_t n = 0;
    TraceScope::current_ids(&n);
    armed_ = n > 0 && Tracer::Instance().active();
    if (armed_) start_ns_ = Tracer::NowNs();
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_outcome(SpanOutcome outcome) { outcome_ = outcome; }

  /// Records now and disarms.
  void End() {
    if (!armed_) return;
    armed_ = false;
    const uint64_t end_ns = Tracer::NowNs();
    size_t n = 0;
    const uint64_t* ids = TraceScope::current_ids(&n);
    Tracer& tracer = Tracer::Instance();
    for (size_t i = 0; i < n; ++i) {
      tracer.RecordSpan(ids[i], name_, start_ns_,
                        end_ns - start_ns_, outcome_);
    }
  }

 private:
  SpanName name_;
  SpanOutcome outcome_ = SpanOutcome::kOk;
  bool armed_ = false;
  uint64_t start_ns_ = 0;
};

/// RAII request envelope, for the server (and engine-direct tests): makes
/// the sampling decision, installs the TraceScope, and calls
/// Tracer::EndRequest with the measured end-to-end latency at destruction.
/// Inactive (id 0, no scope, no EndRequest) when tracing is off or this
/// request was neither sampled nor a slow-capture candidate.
class RequestTrace {
 public:
  /// `wire_trace_id` is the id the client sent (0 = none: mint one).
  explicit RequestTrace(uint64_t wire_trace_id);
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool active() const { return trace_id_ != 0; }
  uint64_t trace_id() const { return trace_id_; }
  void set_outcome(SpanOutcome outcome) { outcome_ = outcome; }

 private:
  uint64_t trace_id_ = 0;
  uint64_t start_ns_ = 0;
  bool sampled_ = false;
  SpanOutcome outcome_ = SpanOutcome::kOk;
  std::unique_ptr<TraceScope> scope_;
};

}  // namespace cdbs::obs

#endif  // CDBS_OBS_TRACE_H_
