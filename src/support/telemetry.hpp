// Campaign telemetry: a lock-cheap metrics registry and a Chrome-trace span
// tracer.
//
// At campaign scale the harness must be observable while it runs — the
// ROADMAP's distributed-fleet coordinator needs machine-readable progress and
// health, not stdout prose — and observation must never perturb results.
// This module provides the two primitives everything else builds on:
//
//   telemetry::Registry — process-wide named metrics (monotonic counters,
//       gauges, power-of-two-bucket histograms). Registration returns a
//       stable reference; the hot path is one relaxed atomic RMW with zero
//       allocations, so counters are always on. snapshot() captures every
//       metric for renderers, the campaign_metrics.json sampler, and the
//       fleet heartbeat; MetricsSnapshot::delta_from scopes a snapshot to
//       one campaign run.
//
//   telemetry::Tracer — a span recorder emitting Chrome trace_event JSON
//       (load the file in chrome://tracing or Perfetto). Off by default:
//       ScopedSpan costs one relaxed atomic load when tracing is disabled
//       and allocates nothing. Spans carry category + name + key/value args
//       (program fingerprint, backend index, ...) so a trace is joinable
//       against the campaign report.
//
// Hard invariant, shared with support/fault_injection: telemetry is strictly
// out-of-band. Nothing here feeds back into results — campaign reports stay
// byte-identical with telemetry on or off, which CI enforces.
//
// Layering note: rank-0 support, like fault_injection — included by harness,
// store, executor, and reduce code alike, legal only because it depends on
// nothing above support. Keep it that way.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ompfuzz::telemetry {

/// Monotonic counter. add() is one relaxed fetch_add — safe and cheap from
/// any campaign worker, the pool's event loop, or a store caller.
class Counter {
 public:
  /// Adds `n` and returns the PREVIOUS value. The return value doubles as a
  /// per-counter ordinal (the fault injector's decision stream indexes on
  /// it), so it must stay an atomic RMW, never a load+store.
  std::uint64_t add(std::uint64_t n = 1) noexcept {
    return value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Owner-only reset (e.g. FaultInjector::configure clearing its site
  /// stats). Concurrent adders make the counter non-monotonic across a
  /// reset, so only the subsystem that registered the counter may call it,
  /// and only while its own writers are idle.
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (units in flight, live backends).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency/size histogram. Bucket k counts samples whose value
/// has bit width k (i.e. [2^(k-1), 2^k)), bucket 0 counts zeros — power-of-
/// two buckets need no configuration, cover the full uint64 range, and cost
/// one bit-scan plus one relaxed fetch_add to record.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  ///< bit_width(v) in [0, 64]

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int k) const noexcept {
    return buckets_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { Counter, Gauge, Histogram };

/// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter = 0;  ///< Counter value / Histogram count
  std::int64_t gauge = 0;
  std::uint64_t sum = 0;                 ///< Histogram only
  std::vector<std::uint64_t> buckets;    ///< Histogram only; trailing-zero trimmed
};

/// Point-in-time capture of every registered metric, sorted by name.
class MetricsSnapshot {
 public:
  MetricsSnapshot() = default;
  explicit MetricsSnapshot(std::vector<MetricSample> samples)
      : samples_(std::move(samples)) {}

  [[nodiscard]] const std::vector<MetricSample>& samples() const noexcept {
    return samples_;
  }
  /// The named sample, or nullptr.
  [[nodiscard]] const MetricSample* find(std::string_view name) const noexcept;
  /// Counter value by name; 0 when absent (a never-bumped counter and an
  /// unregistered one are indistinguishable by design).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  /// Gauge value by name; 0 when absent.
  [[nodiscard]] std::int64_t gauge(std::string_view name) const noexcept;

  /// This snapshot minus `base`: counters and histograms subtract (saturating
  /// at 0 if a counter was reset in between), gauges keep their current
  /// value. Scopes process-global metrics to one campaign run.
  [[nodiscard]] MetricsSnapshot delta_from(const MetricsSnapshot& base) const;

 private:
  std::vector<MetricSample> samples_;
};

/// Process-wide metric registry. counter()/gauge()/histogram() register on
/// first use and return a stable reference (callers cache it and never pay
/// the lookup again); snapshot() captures everything.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  Registry() = default;

  struct Entry {
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Finds or creates `name`. Caller holds mutex_: a concurrent
  /// registration may move the entry, so the metric pointer must be read
  /// before the lock is released (the metric itself never moves).
  Entry& entry(std::string_view name, MetricKind kind);

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Entry>> entries_;  ///< sorted by name
};

/// Span tracer producing Chrome trace_event JSON. Disabled by default;
/// start() arms it, stop() writes `{"traceEvents": [...]}` to the path given
/// to start(). Thread-safe: spans come from campaign workers, the process
/// pool's event loop, and store callers concurrently.
class Tracer {
 public:
  static Tracer& instance();

  /// Arms tracing and clears any buffered events. Events are buffered in
  /// memory until stop().
  void start(std::string path);

  /// Disarms tracing and writes the buffered events as Chrome trace JSON.
  /// Returns false (with the buffer dropped) when the file cannot be
  /// written. No-op returning true when tracing was never started.
  bool stop();

  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Current time on the tracer's clock, in ns. Only meaningful while
  /// active.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Records a complete ("ph":"X") event. `args_json` is either empty or a
  /// pre-rendered JSON object body ("\"k\":\"v\",...") — built by the caller
  /// only when active() says the cost is warranted.
  void complete(const char* cat, const char* name, std::uint64_t start_ns,
                std::uint64_t end_ns, std::string args_json = {});

  /// Records an instant ("ph":"i") event: a point in time, not a span.
  void instant(const char* cat, const char* name, std::string args_json = {});

  /// Small dense id of the calling thread, assigned on first use.
  [[nodiscard]] static std::uint32_t thread_id();

 private:
  Tracer() = default;

  struct Event {
    const char* cat;
    const char* name;
    char phase;              ///< 'X' or 'i'
    std::uint32_t tid;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;    ///< 'X' only
    std::string args_json;
  };

  void record(Event event);

  std::atomic<bool> active_{false};
  std::mutex mutex_;
  std::string path_;
  std::vector<Event> events_;
};

/// RAII span: times from construction to destruction and emits one complete
/// event when (and only when) the tracer was active at construction. When
/// inactive, construction is one relaxed load and NOTHING is allocated —
/// guard arg() calls with `if (span.active())` so arg rendering follows the
/// same rule.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name) : cat_(cat), name_(name) {
    if (Tracer::instance().active()) start_ns_ = Tracer::now_ns() + 1;
  }
  ~ScopedSpan() {
    if (start_ns_ == 0) return;
    Tracer::instance().complete(cat_, name_, start_ns_ - 1, Tracer::now_ns(),
                                std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] bool active() const noexcept { return start_ns_ != 0; }

  /// Attaches one "key": value arg (string / unsigned / signed). Call only
  /// under `if (span.active())`.
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, int value) {
    arg(key, static_cast<std::int64_t>(value));
  }

 private:
  const char* cat_;
  const char* name_;
  /// 0 = span disabled; otherwise start time + 1 (so a start at tick 0 is
  /// still distinguishable from "disabled").
  std::uint64_t start_ns_ = 0;
  std::string args_;
};

/// Formats `v` as the 16-hex-digit form used across the framework, for span
/// args that carry a program fingerprint.
[[nodiscard]] std::string hex_fingerprint(std::uint64_t v);

}  // namespace ompfuzz::telemetry
