#include "harness/campaign_metrics.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/json_writer.hpp"

namespace ompfuzz {

namespace {

/// Writes `content` to `path` via tmp + rename, so a concurrent reader never
/// sees a torn document. Best-effort: the sampler must not fail a campaign
/// over an unwritable metrics file.
void write_snapshot_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << content;
    if (!out) return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

std::string render_metrics_json(const telemetry::MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("ompfuzz-metrics-v1");

  json.key("counters").begin_object();
  for (const auto& s : snapshot.samples()) {
    if (s.kind == telemetry::MetricKind::Counter) json.key(s.name).value(s.counter);
  }
  json.end_object();

  json.key("gauges").begin_object();
  for (const auto& s : snapshot.samples()) {
    if (s.kind == telemetry::MetricKind::Gauge) json.key(s.name).value(s.gauge);
  }
  json.end_object();

  json.key("histograms").begin_object();
  for (const auto& s : snapshot.samples()) {
    if (s.kind != telemetry::MetricKind::Histogram) continue;
    json.key(s.name).begin_object();
    json.key("count").value(s.counter);
    json.key("sum").value(s.sum);
    json.key("buckets").begin_array();
    for (std::uint64_t b : s.buckets) json.value(b);
    json.end_array();
    json.end_object();
  }
  json.end_object();

  json.end_object();
  return json.str() + "\n";
}

MetricsSampler::MetricsSampler(const TelemetryConfig& config) : config_(config) {}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::start() {
  if (thread_.joinable()) return;
  if (config_.metrics_file.empty() && !config_.heartbeat) return;
  stopping_ = false;
  last_children_ = 0;
  last_sample_ns_ = telemetry::Tracer::now_ns();
  thread_ = std::thread([this] { run(); });
}

void MetricsSampler::stop() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  sample(/*final_sample=*/true);
}

void MetricsSampler::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const auto interval = std::chrono::milliseconds(config_.interval_ms);
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    lock.unlock();
    sample(/*final_sample=*/false);
    lock.lock();
  }
}

void MetricsSampler::sample(bool final_sample) {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::global().snapshot();

  if (!config_.metrics_file.empty()) {
    write_snapshot_atomic(config_.metrics_file, render_metrics_json(snapshot));
  }

  if (!config_.heartbeat) return;

  const std::uint64_t now_ns = telemetry::Tracer::now_ns();
  const std::uint64_t children = snapshot.counter("exec.children");
  const double dt =
      static_cast<double>(now_ns - last_sample_ns_) * 1e-9;
  const double children_per_s =
      dt > 0.0 ? static_cast<double>(children - last_children_) / dt : 0.0;
  last_children_ = children;
  last_sample_ns_ = now_ns;

  const std::uint64_t hits = snapshot.counter("store.hits");
  const std::uint64_t misses = snapshot.counter("store.misses");
  const std::uint64_t lookups = hits + misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;

  std::fprintf(stderr,
               "[campaign] units %lld/%lld, %.1f children/s, "
               "store hit-rate %.0f%%, %lld live backends%s\n",
               static_cast<long long>(snapshot.gauge("campaign.units_done")),
               static_cast<long long>(snapshot.gauge("campaign.units_total")),
               children_per_s, hit_rate * 100.0,
               static_cast<long long>(snapshot.gauge("campaign.live_backends")),
               final_sample ? " (final)" : "");
}

}  // namespace ompfuzz
