// Periodic metrics snapshots and the live progress heartbeat.
//
// The telemetry registry (support/telemetry.hpp) answers "what happened";
// this sampler answers "what is happening": a background thread wakes every
// interval, snapshots every registered metric, and
//
//   * rewrites `telemetry.metrics_file` atomically (tmp + rename) with the
//     "ompfuzz-metrics-v1" JSON schema, so an external watcher — or the
//     ROADMAP's distributed-fleet coordinator, which consumes exactly this
//     snapshot as the runner heartbeat payload — always reads a complete,
//     parseable document;
//   * optionally prints a one-line progress heartbeat to stderr (units
//     done/total, children spawned per second, store hit rate, live
//     backends).
//
// Strictly out-of-band, like the rest of telemetry: nothing here touches
// campaign results or the report. The sampler writes a final snapshot on
// stop(), so short campaigns still leave a complete metrics file behind.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "support/config.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz {

/// Renders a metrics snapshot as "ompfuzz-metrics-v1" JSON: counters and
/// gauges as name -> number maps, histograms as {count, sum, buckets}.
[[nodiscard]] std::string render_metrics_json(
    const telemetry::MetricsSnapshot& snapshot);

/// Background sampler; construct, start(), and stop() around a campaign run.
/// Reads metrics_file, interval_ms and heartbeat from the [telemetry] config.
class MetricsSampler {
 public:
  explicit MetricsSampler(const TelemetryConfig& config);
  ~MetricsSampler();  ///< implies stop()

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Launches the sampler thread. No-op when neither a metrics file nor the
  /// heartbeat was requested, or when already running.
  void start();

  /// Stops the thread and writes one final snapshot so the file reflects the
  /// finished campaign. Safe to call repeatedly.
  void stop();

 private:
  void run();
  void sample(bool final_sample);

  TelemetryConfig config_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Previous-sample state for the heartbeat's rate figures.
  std::uint64_t last_children_ = 0;
  std::uint64_t last_sample_ns_ = 0;
};

}  // namespace ompfuzz
