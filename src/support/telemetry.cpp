#include "support/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/json_writer.hpp"

namespace ompfuzz::telemetry {

// ---------------------------------------------------------- Histogram ------

void Histogram::record(std::uint64_t v) noexcept {
  const int k = std::bit_width(v);  // 0 for v == 0, else floor(log2(v)) + 1
  buckets_[static_cast<std::size_t>(k)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

// ---------------------------------------------------- MetricsSnapshot ------

const MetricSample* MetricsSnapshot::find(std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  if (it == samples_.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  const MetricSample* s = find(name);
  return s != nullptr && s->kind != MetricKind::Gauge ? s->counter : 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  const MetricSample* s = find(name);
  return s != nullptr && s->kind == MetricKind::Gauge ? s->gauge : 0;
}

MetricsSnapshot MetricsSnapshot::delta_from(const MetricsSnapshot& base) const {
  const auto sub = [](std::uint64_t cur, std::uint64_t old) {
    return cur >= old ? cur - old : 0;
  };
  std::vector<MetricSample> out;
  out.reserve(samples_.size());
  for (const MetricSample& cur : samples_) {
    MetricSample d = cur;
    if (const MetricSample* old = base.find(cur.name)) {
      switch (cur.kind) {
        case MetricKind::Counter:
          d.counter = sub(cur.counter, old->counter);
          break;
        case MetricKind::Gauge:
          break;  // gauges are instantaneous — keep the current value
        case MetricKind::Histogram:
          d.counter = sub(cur.counter, old->counter);
          d.sum = sub(cur.sum, old->sum);
          for (std::size_t k = 0; k < d.buckets.size(); ++k) {
            d.buckets[k] = sub(d.buckets[k], k < old->buckets.size()
                                                 ? old->buckets[k]
                                                 : 0);
          }
          break;
      }
    }
    out.push_back(std::move(d));
  }
  return MetricsSnapshot(std::move(out));
}

// ------------------------------------------------------------ Registry -----

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::entry(std::string_view name, MetricKind kind) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it != entries_.end() && it->first == name) {
    // Same-name-different-kind is a programming error; returning the
    // existing entry (whose accessor will be null for the wrong kind) would
    // be a silent nullptr deref, so fail loudly here.
    if (it->second.kind != kind) {
      std::fprintf(stderr, "ompfuzz telemetry: metric '%s' re-registered with "
                           "a different kind\n",
                   it->first.c_str());
      std::abort();
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::Counter: entry.counter = std::make_unique<Counter>(); break;
    case MetricKind::Gauge: entry.gauge = std::make_unique<Gauge>(); break;
    case MetricKind::Histogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return entries_.emplace(it, std::string(name), std::move(entry))->second;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *entry(name, MetricKind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *entry(name, MetricKind::Gauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *entry(name, MetricKind::Histogram).histogram;
}

MetricsSnapshot Registry::snapshot() const {
  std::vector<MetricSample> samples;
  const std::lock_guard<std::mutex> lock(mutex_);
  samples.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter:
        s.counter = entry.counter->value();
        break;
      case MetricKind::Gauge:
        s.gauge = entry.gauge->value();
        break;
      case MetricKind::Histogram: {
        s.counter = entry.histogram->count();
        s.sum = entry.histogram->sum();
        int top = Histogram::kBuckets;
        while (top > 0 && entry.histogram->bucket(top - 1) == 0) --top;
        s.buckets.reserve(static_cast<std::size_t>(top));
        for (int k = 0; k < top; ++k) s.buckets.push_back(entry.histogram->bucket(k));
        break;
      }
    }
    samples.push_back(std::move(s));
  }
  return MetricsSnapshot(std::move(samples));
}

// -------------------------------------------------------------- Tracer -----

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Tracer::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::start(std::string path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  events_.clear();
  active_.store(true, std::memory_order_release);
}

bool Tracer::stop() {
  std::vector<Event> events;
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!active_.load(std::memory_order_relaxed)) return true;
    active_.store(false, std::memory_order_release);
    events.swap(events_);
    path.swap(path_);
  }

  // Chrome trace_event JSON object format: ts/dur in MICROseconds (Chrome's
  // unit), fractional to keep the ns resolution. One process, dense tids.
  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const Event& event : events) {
    json.begin_object();
    json.key("name").value(event.name);
    json.key("cat").value(event.cat);
    json.key("ph").value(std::string_view(&event.phase, 1));
    json.key("ts").value(static_cast<double>(event.ts_ns) / 1000.0);
    if (event.phase == 'X') {
      json.key("dur").value(static_cast<double>(event.dur_ns) / 1000.0);
    } else {
      json.key("s").value("t");  // instant scope: thread
    }
    json.key("pid").value(std::int64_t{1});
    json.key("tid").value(static_cast<std::int64_t>(event.tid));
    if (!event.args_json.empty()) {
      // args_json is a pre-rendered object body; splice it verbatim.
      json.key("args").begin_object();
      json.raw_members(event.args_json);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.key("displayTimeUnit").value("ms");
  json.end_object();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << json.str() << "\n";
  return static_cast<bool>(out);
}

void Tracer::record(Event event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // A span may outlive the tracing window (stop() raced its destructor);
  // dropping it is correct — the trace covers [start, stop].
  if (!active_.load(std::memory_order_relaxed)) return;
  events_.push_back(std::move(event));
}

void Tracer::complete(const char* cat, const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::string args_json) {
  Event event;
  event.cat = cat;
  event.name = name;
  event.phase = 'X';
  event.tid = thread_id();
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.args_json = std::move(args_json);
  record(std::move(event));
}

void Tracer::instant(const char* cat, const char* name, std::string args_json) {
  Event event;
  event.cat = cat;
  event.name = name;
  event.phase = 'i';
  event.tid = thread_id();
  event.ts_ns = now_ns();
  event.dur_ns = 0;
  event.args_json = std::move(args_json);
  record(std::move(event));
}

// ---------------------------------------------------------- ScopedSpan -----

void ScopedSpan::arg(std::string_view key, std::string_view value) {
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::escape(key);
  args_ += "\":\"";
  args_ += JsonWriter::escape(value);
  args_ += '"';
}

void ScopedSpan::arg(std::string_view key, std::uint64_t value) {
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void ScopedSpan::arg(std::string_view key, std::int64_t value) {
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

std::string hex_fingerprint(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace ompfuzz::telemetry
