// Campaign worker-pool speedup on a skewed-cost workload.
//
// The workload models a hang-heavy campaign: one program shard costs 50x
// the others (a child parked in a hang timeout). With one worker the
// campaign runs every unit serially, the heavy one included; with four, the
// other workers drain the light units while one sits in the heavy unit, so
// wall-clock collapses towards the cost of the heavy unit alone.
//
// Two properties are verified and recorded in BENCH_scheduler.json:
//   * >= 2x wall-clock improvement with threads = 4 vs threads = 1 (the
//     gate);
//   * the merged CampaignResult is bit-identical across thread counts and
//     backend splits — dispatch must never touch results.
//
//   $ ./bench_scheduler [num_programs] [light_ms]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "runtime/impl_profile.hpp"
#include "support/json_writer.hpp"

namespace {

using namespace ompfuzz;

/// Deterministic sleeping executor: program "test_0" costs `heavy_ms` per
/// run, every other program `light_ms`. Results are a pure function of
/// (program, input, impl) — fixed self-reported time, output derived from
/// the test seed — so campaigns over it are bit-identical however units are
/// scheduled.
class SleepExecutor final : public harness::Executor {
 public:
  SleepExecutor(std::string impl, int heavy_ms, int light_ms)
      : impl_(std::move(impl)), heavy_ms_(heavy_ms), light_ms_(light_ms) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    const bool heavy = test.program.name() == "test_0";
    std::this_thread::sleep_for(
        std::chrono::milliseconds(heavy ? heavy_ms_ : light_ms_));
    core::RunResult result;
    result.impl = impl_name;
    result.status = core::RunStatus::Ok;
    result.time_us = 2000.0;
    result.output = static_cast<double>((test.seed >> 8) % 1000) +
                    static_cast<double>(input_index);
    return result;
  }

  [[nodiscard]] std::vector<std::string> implementations() const override {
    return {impl_};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  std::string impl_;
  int heavy_ms_;
  int light_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  const int num_programs = argc > 1 ? std::atoi(argv[1]) : 96;
  const int light_ms = argc > 2 ? std::atoi(argv[2]) : 4;
  const int heavy_ms = 50 * light_ms;

  CampaignConfig cfg;
  cfg.num_programs = num_programs;
  cfg.inputs_per_program = 1;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0xBEEF;

  std::printf("campaign worker pool on a skewed-cost workload\n");
  std::printf("  %d programs, one 50x shard (%d ms vs %d ms)\n\n",
              num_programs, heavy_ms, light_ms);
  std::printf("  %-8s %10s %9s\n", "threads", "wall_ms", "speedup");

  struct Row {
    int threads = 1;
    double wall_ms = 0.0;
  };
  std::vector<Row> rows;
  std::vector<std::string> reports;

  for (const int threads : {1, 4}) {
    cfg.threads = threads;
    SleepExecutor exec("stub", heavy_ms, light_ms);
    harness::Campaign campaign(cfg, {{&exec, "sleepy"}});

    const auto start = std::chrono::steady_clock::now();
    const harness::CampaignResult result = campaign.run();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    reports.push_back(harness::to_json(result));
    rows.push_back({threads, wall_ms});
    std::printf("  %-8d %10.1f %8.2fx\n", threads, wall_ms,
                rows.front().wall_ms / wall_ms);
  }

  // A two-backend split of the same workload must merge to the same report
  // at every thread count (the split has one more impl column than the
  // single-backend campaign, so compare the split against itself).
  bool split_identical = true;
  {
    std::string expected;
    for (const int threads : {1, 4}) {
      cfg.threads = threads;
      SleepExecutor a("stub_a", heavy_ms, light_ms);
      SleepExecutor b("stub_b", 0, 0);
      harness::Campaign campaign(cfg, {{&a, "skewed"}, {&b, "flat"}});
      const std::string json = harness::to_json(campaign.run());
      if (expected.empty()) {
        expected = json;
      } else if (json != expected) {
        split_identical = false;
      }
    }
  }

  const bool identical = reports[0] == reports[1] && split_identical;
  const double speedup = rows[0].wall_ms / rows[1].wall_ms;
  std::printf("\n  threads = 4 speedup: %.2fx (gate: >= 2x)\n", speedup);
  std::printf("  results bit-identical across threads/split: %s\n",
              identical ? "yes" : "NO — dispatch changed results!");

  JsonWriter json;
  json.begin_object();
  json.key("workload").begin_object();
  json.key("num_programs").value(num_programs);
  json.key("inputs_per_program").value(1);
  json.key("light_ms").value(light_ms);
  json.key("heavy_ms").value(heavy_ms);
  json.end_object();
  json.key("results_identical").value(identical);
  json.key("curve").begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.key("campaign_threads").value(row.threads);
    json.key("wall_ms").value(row.wall_ms);
    json.key("speedup_vs_one_thread").value(rows.front().wall_ms / row.wall_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  {
    std::ofstream out("BENCH_scheduler.json");
    out << json.str() << "\n";
  }
  std::printf("  wrote BENCH_scheduler.json\n");

  const bool fast_enough = speedup >= 2.0;
  if (!fast_enough) {
    std::printf("\n  WARNING: threads = 4 speedup %.2fx below the 2x gate\n",
                speedup);
  }
  return identical && fast_enough ? 0 : 1;
}
