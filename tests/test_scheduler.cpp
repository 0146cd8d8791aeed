// Tests for multi-backend campaign dispatch: merged CampaignResults are
// bit-identical across thread counts and backend splits, a worker pool
// actually moves work off a skewed campaign (wall-clock bound against one
// worker), and a re-run on a warm result store resumes without dispatching,
// whatever the backend split.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "runtime/impl_profile.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"

namespace ompfuzz::harness {
namespace {

std::string temp_dir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/ompfuzz_sched_" +
                    std::to_string(getpid()) + "_" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

CampaignConfig sim_config(int programs, int threads) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.max_loop_trip_count = 50;
  cfg.min_time_us = 0;
  cfg.seed = 51966;
  cfg.threads = threads;
  return cfg;
}

/// The three vendor profiles in canonical order; slices of this list build
/// backend splits whose concatenated implementation order matches the
/// single-backend baseline.
std::vector<rt::OmpImplProfile> profile_slice(std::size_t from, std::size_t to) {
  const std::vector<rt::OmpImplProfile> all = {
      rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()};
  return {all.begin() + static_cast<std::ptrdiff_t>(from),
          all.begin() + static_cast<std::ptrdiff_t>(to)};
}

// ------------------------------------------- bit-identical merged result ---

TEST(SchedulerCampaign, BitIdenticalAcrossThreadCounts) {
  SimExecutorOptions opt;
  opt.num_threads = 4;

  SimExecutor baseline_exec(opt);
  Campaign baseline(sim_config(18, 1), baseline_exec);
  const std::string expected = to_json(baseline.run());

  for (const int threads : {2, 3, 4, 8}) {
    SimExecutor exec(opt);
    Campaign campaign(sim_config(18, threads), exec);
    EXPECT_EQ(to_json(campaign.run()), expected) << "threads=" << threads;
    EXPECT_EQ(campaign.scheduler_stats().units, 18u);
  }
}

TEST(SchedulerCampaign, BitIdenticalAcrossBackendSplits) {
  SimExecutorOptions opt;
  opt.num_threads = 4;

  SimExecutor baseline_exec(profile_slice(0, 3), opt);
  Campaign baseline(sim_config(12, 1), {{&baseline_exec, "all"}});
  const std::string expected = to_json(baseline.run());

  {
    // {gcc} | {clang, intel}
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    Campaign campaign(sim_config(12, 4), {{&a, "left"}, {&b, "right"}});
    EXPECT_EQ(to_json(campaign.run()), expected);
  }
  {
    // {gcc} | {clang} | {intel}
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 2), opt);
    SimExecutor c(profile_slice(2, 3), opt);
    Campaign campaign(sim_config(12, 4),
                      {{&a, "b0"}, {&b, "b1"}, {&c, "b2"}});
    EXPECT_EQ(to_json(campaign.run()), expected);
  }
}

// Every unit generates its program once and the unit that completes a
// program classifies it from that same TestCase, so the analysed drafts are
// exactly one draft stream per backend — divergent programs are never
// generated again.
TEST(SchedulerCampaign, AnalyzedDraftsAreOneStreamPerBackend) {
  SimExecutorOptions opt;
  opt.num_threads = 4;
  for (const int threads : {1, 4}) {
    {
      SimExecutor exec(opt);
      Campaign campaign(sim_config(12, threads), exec);
      const CampaignResult result = campaign.run();
      ASSERT_FALSE(result.divergent.empty());
      EXPECT_EQ(campaign.run_metrics().counter("campaign.analyzed_drafts"),
                static_cast<std::uint64_t>(result.analysis.programs_checked))
          << "threads=" << threads;
    }
    {
      SimExecutor a(profile_slice(0, 1), opt);
      SimExecutor b(profile_slice(1, 2), opt);
      SimExecutor c(profile_slice(2, 3), opt);
      Campaign campaign(sim_config(12, threads),
                        {{&a, "b0"}, {&b, "b1"}, {&c, "b2"}});
      const CampaignResult result = campaign.run();
      ASSERT_FALSE(result.divergent.empty());
      EXPECT_EQ(campaign.run_metrics().counter("campaign.analyzed_drafts"),
                3u * static_cast<std::uint64_t>(result.analysis.programs_checked))
          << "threads=" << threads;
    }
  }
}

TEST(SchedulerCampaign, RejectsDuplicateImplsAndAnonymousBackends) {
  SimExecutorOptions opt;
  SimExecutor a(profile_slice(0, 2), opt);
  SimExecutor b(profile_slice(1, 3), opt);  // clang appears in both
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&a, "a"}, {&b, "b"}}), Error);

  SimExecutor c(profile_slice(0, 1), opt);
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&c, ""}}), Error);
  SimExecutor d(profile_slice(1, 3), opt);
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&c, "same"}, {&d, "same"}}), Error);
}

// ---------------------------------------------------- skewed-cost pool ----

/// Deterministic sleeping executor: program "test_0" costs `heavy_ms` per
/// run, every other program `light_ms` — the 50x-skew shape of a hang-heavy
/// shard. Results are a pure function of (program, input, impl): fixed
/// self-reported time, output derived from the test seed, so campaigns over
/// it are bit-identical however units are scheduled.
class SleepExecutor final : public Executor {
 public:
  SleepExecutor(int heavy_ms, int light_ms)
      : heavy_ms_(heavy_ms), light_ms_(light_ms) {}

  [[nodiscard]] core::RunResult run(const TestCase& test,
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
    return {"stub"};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  int heavy_ms_;
  int light_ms_;
};

TEST(SchedulerSteal, MovesWorkOffSkewedBatchesAndPreservesResults) {
  // 40 programs, one 50x shard. One worker runs all 40 units serially (the
  // sum of every sleep); with 4 workers the other three drain the light
  // units while one sits in the heavy unit, so wall-clock collapses towards
  // the heavy unit's cost.
  constexpr int kPrograms = 40;
  constexpr int kLightMs = 4;
  constexpr int kHeavyMs = 50 * kLightMs;

  const auto timed_run = [&](int threads) {
    CampaignConfig cfg = sim_config(kPrograms, threads);
    cfg.inputs_per_program = 1;
    SleepExecutor exec(kHeavyMs, kLightMs);
    Campaign campaign(cfg, {{&exec, "sleepy"}});
    const auto start = std::chrono::steady_clock::now();
    const CampaignResult result = campaign.run();
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return std::make_pair(to_json(result), wall);
  };

  const auto [json_one, wall_one] = timed_run(1);
  const auto [json_four, wall_four] = timed_run(4);

  EXPECT_EQ(json_four, json_one) << "the thread count changed the merged result";
  // One worker's lower bound: the sum of all sleeps (~356 ms). Four workers'
  // bound is ~one heavy unit (~200 ms); 0.75 leaves CI scheduling noise
  // plenty of headroom while still proving movement.
  EXPECT_LT(wall_four, wall_one * 3 / 4)
      << "4 workers did not shorten the skewed campaign: " << wall_four
      << "ms vs " << wall_one << "ms";
}

// ------------------------------------------------- store-backed resume ----

/// Forwards to an inner executor, counting batch dispatches — a campaign
/// re-run on a warm store must dispatch nothing.
class CountingExecutor final : public Executor {
 public:
  CountingExecutor(Executor& inner, std::atomic<int>& batches)
      : inner_(inner), batches_(batches) {}

  [[nodiscard]] core::RunResult run(const TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    batches_.fetch_add(1);
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    batches_.fetch_add(1);
    return inner_.run_batch(test, input_indices, impls);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override {
    return inner_.impl_identity(impl_name);
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_.thread_safe();
  }

 private:
  Executor& inner_;
  std::atomic<int>& batches_;
};

StoreConfig store_at(const std::string& dir) {
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  return cfg;
}

TEST(SchedulerJournal, MultiBackendResumeRepinsEveryBackend) {
  const StoreConfig store_cfg = store_at(temp_dir() + "/store");
  SimExecutorOptions opt;
  opt.num_threads = 4;
  const CampaignConfig cfg = sim_config(6, 2);
  const auto triples = static_cast<std::uint64_t>(
      cfg.num_programs * cfg.inputs_per_program * 3);

  std::string cold_json;
  {
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    ResultStore store(store_cfg);
    Campaign campaign(cfg, {{&a, "left"}, {&b, "right"}});
    campaign.set_result_store(&store);
    cold_json = to_json(campaign.run());
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().puts, triples);
  }
  {
    // Same split, fresh store instance: every triple is a hit from disk and
    // no executor sees a single dispatch.
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    std::atomic<int> dispatches{0};
    CountingExecutor ca(a, dispatches);
    CountingExecutor cb(b, dispatches);
    ResultStore store(store_cfg);
    Campaign campaign(cfg, {{&ca, "left"}, {&cb, "right"}});
    campaign.set_result_store(&store);
    EXPECT_EQ(to_json(campaign.run()), cold_json);
    EXPECT_EQ(store.stats().hits, triples);
    EXPECT_EQ(dispatches.load(), 0)
        << "warm-store campaign dispatched to an executor";
  }
  {
    // Different split, same implementations: the store is keyed by triple,
    // not by backend, so a re-split campaign gets every hit too.
    SimExecutor all(profile_slice(0, 3), opt);
    std::atomic<int> dispatches{0};
    CountingExecutor counted(all, dispatches);
    ResultStore store(store_cfg);
    Campaign campaign(cfg, {{&counted, "all"}});
    campaign.set_result_store(&store);
    EXPECT_EQ(to_json(campaign.run()), cold_json)
        << "the merged result itself is split-invariant";
    EXPECT_EQ(store.stats().hits, triples);
    EXPECT_EQ(dispatches.load(), 0);
  }
}

TEST(SchedulerJournal, GrownCampaignResumesItsPrefix) {
  const StoreConfig store_cfg = store_at(temp_dir() + "/store");
  SimExecutorOptions opt;
  opt.num_threads = 4;

  {
    SimExecutor a(profile_slice(0, 2), opt);
    SimExecutor b(profile_slice(2, 3), opt);
    ResultStore store(store_cfg);
    Campaign campaign(sim_config(3, 2), {{&a, "left"}, {&b, "right"}});
    campaign.set_result_store(&store);
    (void)campaign.run();
  }
  std::string grown_json;
  {
    SimExecutor a(profile_slice(0, 2), opt);
    SimExecutor b(profile_slice(2, 3), opt);
    ResultStore store(store_cfg);
    Campaign campaign(sim_config(6, 2), {{&a, "left"}, {&b, "right"}});
    campaign.set_result_store(&store);
    grown_json = to_json(campaign.run());
    // Program i does not depend on num_programs: the 3-program prefix
    // (3 programs x 2 inputs x 3 impls) is served from the store, and only
    // the 3 new programs execute.
    EXPECT_EQ(store.stats().hits, 18u);
    EXPECT_EQ(store.stats().misses, 18u);
  }
  // The grown, partially resumed campaign matches a cold serial run.
  SimExecutor a(profile_slice(0, 2), opt);
  SimExecutor b(profile_slice(2, 3), opt);
  Campaign cold(sim_config(6, 1), {{&a, "left"}, {&b, "right"}});
  EXPECT_EQ(grown_json, to_json(cold.run()));
}

// ------------------------------------------------------ mixed backends ----

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

TEST(SchedulerCampaign, SimAndSubprocessBackendsMergeIntoOneResult) {
  const std::string dir = temp_dir();
  const std::string payload = dir + "/payload.sh";
  write_script(payload, "#!/bin/sh\necho 42\necho \"time_us: 2000\"\n");
  const std::string cc = dir + "/cc.sh";
  write_script(cc, "#!/bin/sh\ncp " + payload + " \"$2\"\nchmod +x \"$2\"\n");

  SimExecutorOptions opt;
  opt.num_threads = 4;
  SimExecutor sim(profile_slice(0, 3), opt);
  std::vector<ImplementationSpec> impls = {{"stubcc", cc + " {src} {bin}", ""}};
  SubprocessOptions sub_opt;
  sub_opt.work_dir = dir + "/work";
  sub_opt.concurrent_runs = true;
  SubprocessExecutor sub(impls, sub_opt);

  CampaignConfig cfg = sim_config(4, 2);
  Campaign campaign(cfg, {{&sim, "sim"}, {&sub, "cc"}});
  const CampaignResult result = campaign.run();

  const std::vector<std::string> expected_names = {"gcc", "clang", "intel",
                                                   "stubcc"};
  EXPECT_EQ(result.impl_names, expected_names);
  EXPECT_EQ(result.total_runs,
            cfg.num_programs * cfg.inputs_per_program * 4);
  ASSERT_TRUE(result.per_impl.contains("stubcc"));
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.runs.size(), 4u);
    EXPECT_EQ(outcome.runs[3].impl, "stubcc");
    EXPECT_EQ(outcome.runs[3].status, core::RunStatus::Ok);
    EXPECT_EQ(outcome.runs[3].output, 42.0);
  }
}

}  // namespace
}  // namespace ompfuzz::harness
