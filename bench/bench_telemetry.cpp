// Cost of campaign telemetry: off vs registry-sampler-only vs full tracing.
//
// Telemetry's contract is "always on, never felt": metric counters are
// compiled in unconditionally, the sampler and the span tracer are opt-in.
// This bench quantifies all three tiers on a sleep-dominated campaign (the
// realistic regime — child processes dwarf harness bookkeeping) plus a
// hot-path microbench for the per-op costs the campaign numbers are built
// from.
//
// Gates, recorded in BENCH_telemetry.json and enforced by exit status:
//   * registry-only (sampler thread, metrics file): <= 2% wall overhead;
//   * full tracing (spans buffered + trace written): <= 10% wall overhead;
//   * a disabled ScopedSpan + counter add: <= 150 ns per op (near-zero).
//
//   $ ./bench_telemetry [num_programs] [unit_ms] [reps]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/campaign_metrics.hpp"
#include "harness/executor.hpp"
#include "support/json_writer.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace ompfuzz;

/// Fixed-cost sleeping executor: every run sleeps `unit_ms`, results are a
/// pure function of (test, input, impl) so wall-clock differences between
/// modes are telemetry, not workload.
class FixedCostExecutor final : public harness::Executor {
 public:
  explicit FixedCostExecutor(int unit_ms) : unit_ms_(unit_ms) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(unit_ms_));
    core::RunResult result;
    result.impl = impl_name;
    result.status = core::RunStatus::Ok;
    result.time_us = 2000.0;
    result.output = static_cast<double>((test.seed >> 8) % 1000) +
                    static_cast<double>(input_index);
    return result;
  }

  [[nodiscard]] std::vector<std::string> implementations() const override {
    return {"stub"};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  int unit_ms_;
};

enum class Mode { Off, Registry, Full };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Registry: return "registry";
    case Mode::Full: return "full";
  }
  return "?";
}

double run_campaign_ms(const CampaignConfig& cfg, int unit_ms, Mode mode) {
  FixedCostExecutor exec(unit_ms);
  TelemetryConfig telemetry;
  telemetry.metrics_file = "bench_telemetry_metrics.json";
  telemetry.interval_ms = 50;
  MetricsSampler sampler(telemetry);
  if (mode != Mode::Off) sampler.start();
  if (mode == Mode::Full) {
    telemetry::Tracer::instance().start("bench_telemetry_trace.json");
  }

  harness::Campaign campaign(cfg, {{&exec, "bench"}});
  const auto start = std::chrono::steady_clock::now();
  (void)campaign.run();
  double wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (mode == Mode::Full) {
    // Writing the trace file is part of full tracing's cost.
    const auto t0 = std::chrono::steady_clock::now();
    telemetry::Tracer::instance().stop();
    wall_ms +=
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  return wall_ms;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int num_programs = argc > 1 ? std::atoi(argv[1]) : 48;
  const int unit_ms = argc > 2 ? std::atoi(argv[2]) : 2;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 5;

  CampaignConfig cfg;
  cfg.num_programs = num_programs;
  cfg.inputs_per_program = 1;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0xFACE;
  cfg.threads = 4;

  std::printf("telemetry overhead on a sleep-dominated campaign\n");
  std::printf("  %d programs x %d ms, 4 workers, median of %d reps\n\n",
              num_programs, unit_ms, reps);
  std::printf("  %-10s %10s %10s\n", "mode", "wall_ms", "overhead");

  struct Row {
    Mode mode = Mode::Off;
    double wall_ms = 0.0;
    double overhead = 0.0;
  };
  std::vector<Row> rows;
  for (const Mode mode : {Mode::Off, Mode::Registry, Mode::Full}) {
    std::vector<double> walls;
    for (int r = 0; r < reps; ++r) {
      walls.push_back(run_campaign_ms(cfg, unit_ms, mode));
    }
    Row row;
    row.mode = mode;
    row.wall_ms = median(walls);
    row.overhead = rows.empty()
                       ? 0.0
                       : std::max(0.0, row.wall_ms / rows.front().wall_ms - 1.0);
    rows.push_back(row);
    std::printf("  %-10s %10.1f %9.1f%%\n", mode_name(row.mode), row.wall_ms,
                row.overhead * 100.0);
  }
  std::remove("bench_telemetry_metrics.json");
  std::remove("bench_telemetry_trace.json");

  // Hot-path microbench: counter add + disabled span, amortized per op.
  auto& counter = telemetry::Registry::global().counter("bench.hot");
  constexpr int kOps = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    counter.add();
    telemetry::ScopedSpan span("bench", "hot");
  }
  const double ns_per_op =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()) /
      kOps;
  std::printf("\n  disabled span + counter add: %.1f ns/op\n", ns_per_op);

  const double registry_overhead = rows[1].overhead;
  const double full_overhead = rows[2].overhead;
  const bool registry_ok = registry_overhead <= 0.02;
  const bool full_ok = full_overhead <= 0.10;
  const bool hot_ok = ns_per_op <= 150.0;
  std::printf("  gates: registry <= 2%%: %s, full <= 10%%: %s, "
              "hot path <= 150 ns: %s\n",
              registry_ok ? "pass" : "FAIL", full_ok ? "pass" : "FAIL",
              hot_ok ? "pass" : "FAIL");

  JsonWriter json;
  json.begin_object();
  json.key("workload").begin_object();
  json.key("num_programs").value(num_programs);
  json.key("unit_ms").value(unit_ms);
  json.key("campaign_threads").value(4);
  json.key("reps").value(reps);
  json.end_object();
  json.key("modes").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("mode").value(mode_name(row.mode));
    json.key("wall_ms").value(row.wall_ms);
    json.key("overhead").value(row.overhead);
    json.end_object();
  }
  json.end_array();
  json.key("hot_path_ns_per_op").value(ns_per_op);
  json.key("gates").begin_object();
  json.key("registry_overhead_max").value(0.02);
  json.key("full_overhead_max").value(0.10);
  json.key("hot_path_ns_max").value(150.0);
  json.key("pass").value(registry_ok && full_ok && hot_ok);
  json.end_object();
  json.end_object();
  {
    std::ofstream out("BENCH_telemetry.json");
    out << json.str() << "\n";
  }
  std::printf("  wrote BENCH_telemetry.json\n");

  return registry_ok && full_ok && hot_ok ? 0 : 1;
}
