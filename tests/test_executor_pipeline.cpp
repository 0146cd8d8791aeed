// Tests for the batched execution pipeline: Executor::run_batch default-vs-
// overridden equivalence (Sim and Subprocess backends, serial and
// multithreaded campaigns), the quiet-timing guarantee (timed runs never
// overlap another child), output classification, work_dir handling, the
// precompiled prelude of g++-like commands, and the [executor] config
// section.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generator.hpp"
#include "emit/codegen.hpp"
#include "fp/input_gen.hpp"
#include "harness/async_process.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace ompfuzz::harness {
namespace {

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

/// Stub "compiler": runs `prologue` (it may read {src} as $1), then writes a
/// fixed-output "binary" script to {bin}. Every run is deterministic (fixed
/// comp value and self-reported time), so campaigns over it are
/// bit-reproducible like the Sim backend.
std::string make_stub_compiler(const std::string& dir, const std::string& name,
                               const std::string& binary_body,
                               const std::string& prologue = "") {
  const std::string bin_template = dir + "/" + name + "_payload.sh";
  write_script(bin_template, "#!/bin/sh\n" + binary_body);
  const std::string cc = dir + "/" + name + ".sh";
  write_script(cc, "#!/bin/sh\n" + prologue +
                   "cp " + bin_template + " \"$2\"\n"
                   "chmod +x \"$2\"\n");
  return cc;
}

/// A stub compiler that fails unless its source exists, appends the source
/// path ($1) to `log`, and sleeps `sleep_s` seconds before writing the binary.
/// A non-empty `run_log` makes the binary append a line to it on every run.
std::string make_logging_stub_compiler(const std::string& dir,
                                       const std::string& log,
                                       const std::string& sleep_s = "0",
                                       const std::string& run_log = "") {
  const std::string log_run = run_log.empty() ? "" : "echo run >> " + run_log + "\n";
  return make_stub_compiler(dir, "logging_cc",
                            log_run + "echo 1\necho \"time_us: 10\"\n",
                            "test -f \"$1\" || exit 1\n"
                            "echo \"$1\" >> " + log + "\n"
                            "sleep " + sleep_s + "\n");
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

CampaignConfig stub_campaign_config(int programs, int threads) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 4;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0xFEED;
  cfg.threads = threads;
  return cfg;
}

/// Forwards run() but hides the inner executor's run_batch override, so a
/// campaign over it exercises the default per-run path of the SAME backend.
class PerRunExecutor final : public Executor {
 public:
  explicit PerRunExecutor(Executor& inner) : inner_(inner) {}
  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override {
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_.thread_safe();
  }

 private:
  Executor& inner_;
};

void expect_bits_eq(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.impl_names, b.impl_names);
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_tests, b.total_tests);
  EXPECT_EQ(a.analyzable_tests, b.analyzable_tests);
  EXPECT_EQ(a.skipped_runs, b.skipped_runs);

  ASSERT_EQ(a.per_impl.size(), b.per_impl.size());
  for (const auto& [name, counts] : a.per_impl) {
    const auto it = b.per_impl.find(name);
    ASSERT_NE(it, b.per_impl.end()) << name;
    EXPECT_EQ(counts.slow, it->second.slow) << name;
    EXPECT_EQ(counts.fast, it->second.fast) << name;
    EXPECT_EQ(counts.crash, it->second.crash) << name;
    EXPECT_EQ(counts.hang, it->second.hang) << name;
  }

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    const TestOutcome& oa = a.outcomes[t];
    const TestOutcome& ob = b.outcomes[t];
    EXPECT_EQ(oa.program_index, ob.program_index);
    EXPECT_EQ(oa.input_index, ob.input_index);
    EXPECT_EQ(oa.input_text, ob.input_text);
    ASSERT_EQ(oa.runs.size(), ob.runs.size());
    for (std::size_t r = 0; r < oa.runs.size(); ++r) {
      EXPECT_EQ(oa.runs[r].impl, ob.runs[r].impl);
      EXPECT_EQ(oa.runs[r].status, ob.runs[r].status);
      expect_bits_eq(oa.runs[r].time_us, ob.runs[r].time_us);
      expect_bits_eq(oa.runs[r].output, ob.runs[r].output);
    }
    EXPECT_EQ(oa.verdict.per_run, ob.verdict.per_run);
    EXPECT_EQ(oa.divergence.diverges, ob.divergence.diverges);
  }
}

// ------------------------------------------------- run_batch equivalence ---

TEST(RunBatch, DefaultImplementationMatchesPerRunCalls) {
  SimExecutorOptions opt;
  opt.num_threads = 4;
  SimExecutor exec(opt);
  Campaign campaign(stub_campaign_config(4, 1), exec);
  const TestCase test = campaign.make_test_case(0);

  const std::vector<std::size_t> inputs = {0, 1};
  const auto impls = exec.implementations();
  const auto batch = exec.run_batch(test, inputs, impls);
  ASSERT_EQ(batch.size(), inputs.size() * impls.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < impls.size(); ++j) {
      const auto single = exec.run(test, inputs[i], impls[j]);
      const auto& batched = batch[i * impls.size() + j];
      EXPECT_EQ(batched.impl, single.impl);
      EXPECT_EQ(batched.status, single.status);
      expect_bits_eq(batched.time_us, single.time_us);
      expect_bits_eq(batched.output, single.output);
    }
  }
}

TEST(RunBatch, SimCampaignMatchesPerRunExecution) {
  SimExecutorOptions opt;
  opt.num_threads = 4;
  for (const int threads : {1, 4}) {
    SimExecutor batched_exec(opt);
    Campaign batched(stub_campaign_config(6, threads), batched_exec);
    const CampaignResult a = batched.run();

    SimExecutor inner(opt);
    PerRunExecutor per_run(inner);
    Campaign looped(stub_campaign_config(6, threads), per_run);
    const CampaignResult b = looped.run();

    expect_identical(a, b);
  }
}

TEST(RunBatch, SubprocessCampaignMatchesPerRunExecution) {
  const std::string dir = temp_dir();
  const std::string cc = make_stub_compiler(
      dir, "cc", "echo 42\necho \"time_us: 2000\"\n");
  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };

  for (const int threads : {1, 4}) {
    SubprocessOptions opt;
    opt.work_dir = dir + "/batched_" + std::to_string(threads);
    opt.concurrent_runs = true;
    opt.max_inflight = 8;
    SubprocessExecutor batched_exec(impls, opt);
    Campaign batched(stub_campaign_config(3, threads), batched_exec);
    const CampaignResult a = batched.run();

    SubprocessOptions per_opt = opt;
    per_opt.work_dir = dir + "/perrun_" + std::to_string(threads);
    SubprocessExecutor inner(impls, per_opt);
    PerRunExecutor per_run(inner);
    Campaign looped(stub_campaign_config(3, threads), per_run);
    const CampaignResult b = looped.run();

    expect_identical(a, b);
    for (const auto& outcome : a.outcomes) {
      for (const auto& run : outcome.runs) {
        EXPECT_EQ(run.status, core::RunStatus::Ok);
        EXPECT_EQ(run.output, 42.0);
        EXPECT_EQ(run.time_us, 2000.0);
      }
    }
  }
}

// ------------------------------------------- sim run_batch sharing --------

/// The first `n` programs of the sim campaign stream in the paper's shape
/// (team of 32, trip counts <= 100), two inputs each.
std::vector<TestCase> sim_stream(int n) {
  CampaignConfig config;
  config.num_programs = n;
  config.inputs_per_program = 2;
  config.generator.num_threads = 32;
  config.generator.max_loop_trip_count = 100;
  SimExecutor exec;
  const Campaign campaign(config, exec);
  std::vector<TestCase> tests;
  for (int k = 0; k < n; ++k) tests.push_back(campaign.make_test_case(k));
  return tests;
}

SimExecutorOptions sim_stream_options() {
  SimExecutorOptions opt;
  opt.max_interp_steps = 250'000;  // the sim-interp benchmark's budget
  return opt;
}

std::uint64_t sim_interpretations() {
  return telemetry::Registry::global().counter("sim.interpretations").value();
}

/// run_batch over both inputs equals looping run_detailed, field by field
/// and bit for bit. Returns the batch for further checks.
std::vector<core::RunResult> expect_batch_matches_loop(
    SimExecutor& exec, const TestCase& test, const std::vector<std::string>& impls) {
  const std::vector<std::size_t> inputs = {0, 1};
  const auto batch = exec.run_batch(test, inputs, impls);
  EXPECT_EQ(batch.size(), inputs.size() * impls.size());
  if (batch.size() != inputs.size() * impls.size()) return batch;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < impls.size(); ++j) {
      const core::RunResult looped = exec.run_detailed(test, inputs[i], impls[j]).result;
      const core::RunResult& batched = batch[i * impls.size() + j];
      EXPECT_EQ(batched.impl, looped.impl);
      EXPECT_EQ(batched.status, looped.status) << looped.impl;
      expect_bits_eq(batched.time_us, looped.time_us);
      expect_bits_eq(batched.output, looped.output);
    }
  }
  return batch;
}

TEST(SimRunBatch, MatchesLoopedRunDetailedForAnyImplementationOrder) {
  SimExecutor exec(sim_stream_options());
  const std::vector<std::vector<std::string>> orders = {
      {"gcc", "clang", "intel"},  // the default profiles
      {"intel", "clang", "gcc"},  // reversed
      {"intel", "gcc"},           // non-contiguous subsets
      {"clang"},
      {"gcc", "intel", "gcc"},    // a repeated name
  };
  for (const auto& test : sim_stream(8)) {
    for (const auto& impls : orders) (void)expect_batch_matches_loop(exec, test, impls);
  }
}

TEST(SimRunBatch, SharedSemanticsArePricedPerImplementation) {
  // "clang2" interprets exactly like clang (equal FpSemantics) but launches
  // regions at 3x the cost and crashes on every deep libm-calling program.
  rt::OmpImplProfile clang2 = rt::clang_profile();
  clang2.name = "clang2";
  clang2.cost.ns_region_launch *= 3.0;
  clang2.fault.crash_probability = 1.0;
  clang2.fault.crash_min_nesting = 0;
  ASSERT_EQ(clang2.fp, rt::clang_profile().fp);
  SimExecutor exec({rt::gcc_profile(), rt::clang_profile(), rt::intel_profile(), clang2},
                   sim_stream_options());
  const std::vector<std::string> impls = {"clang", "gcc", "clang2", "intel"};

  int time_differs = 0;
  int only_clang2_crashes = 0;
  for (const auto& test : sim_stream(8)) {
    const std::uint64_t before = sim_interpretations();
    const auto batch = expect_batch_matches_loop(exec, test, impls);
    // The batch interprets gcc alone and {clang, clang2, intel} once, per
    // input; the looped reference then interprets every (input, impl).
    EXPECT_EQ(sim_interpretations() - before, 2u * 2u + 2u * impls.size());
    for (std::size_t i = 0; i + impls.size() <= batch.size(); i += impls.size()) {
      const core::RunResult& clang = batch[i];
      const core::RunResult& other = batch[i + 2];
      if (clang.status == core::RunStatus::Ok && other.status == core::RunStatus::Ok &&
          clang.time_us != other.time_us) {
        ++time_differs;
      }
      if (clang.status == core::RunStatus::Ok && other.status == core::RunStatus::Crash) {
        ++only_clang2_crashes;
      }
    }
  }
  EXPECT_GT(time_differs, 0) << "cost model not applied per implementation";
  EXPECT_GT(only_clang2_crashes, 0) << "fault model not applied per implementation";
}

TEST(SimRunBatch, StepBudgetSkipsMatchLoopedRuns) {
  SimExecutorOptions opt = sim_stream_options();
  opt.max_interp_steps = 20'000;
  SimExecutor exec(opt);
  int skipped = 0;
  int completed = 0;
  for (const auto& test : sim_stream(8)) {
    for (const auto& r : expect_batch_matches_loop(exec, test, {"gcc", "clang", "intel"})) {
      (r.status == core::RunStatus::Skipped ? skipped : completed) += 1;
    }
  }
  EXPECT_GT(skipped, 0) << "budget too large to exercise the Skipped path";
  EXPECT_GT(completed, 0) << "budget too small to exercise pricing";
}

TEST(SimRunBatch, DefaultProfilesInterpretTwicePerProgramInput) {
  // libomp and libiomp5 share FpSemantics; libgomp differs.
  SimExecutor exec(sim_stream_options());
  for (const auto& test : sim_stream(4)) {
    const std::uint64_t before = sim_interpretations();
    (void)exec.run_batch(test, {0, 1}, exec.implementations());
    EXPECT_EQ(sim_interpretations() - before, 2u * 2u);
  }
}

// ------------------------------------------------------- quiet timing ------

struct Interval {
  long long start = 0;
  long long end = 0;
  bool timed_run = false;
};

std::vector<Interval> read_intervals(const std::string& dir) {
  std::vector<Interval> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool is_run = name.rfind("run_", 0) == 0;
    if (!is_run && name.rfind("compile_", 0) != 0) continue;
    std::ifstream in(entry.path());
    Interval iv;
    iv.timed_run = is_run;
    in >> iv.start >> iv.end;
    if (iv.end > iv.start) out.push_back(iv);
  }
  return out;
}

TEST(QuietTiming, TimedRunsNeverOverlapAnotherChild) {
  const std::string dir = temp_dir();
  const std::string ivdir = dir + "/iv";
  mkdir(ivdir.c_str(), 0755);

  // Both stages record their own wall-clock interval: the stub compiler
  // sleeps while "compiling", the produced binary sleeps while "running".
  const std::string payload = dir + "/payload.sh";
  write_script(payload, "#!/bin/sh\n"
                        "s=$(date +%s%N)\n"
                        "sleep 0.06\n"
                        "e=$(date +%s%N)\n"
                        "echo \"$s $e\" > " + ivdir + "/run_$$\n"
                        "echo 42\n"
                        "echo \"time_us: 2000\"\n");
  const std::string cc = dir + "/cc.sh";
  write_script(cc, "#!/bin/sh\n"
                   "s=$(date +%s%N)\n"
                   "sleep 0.06\n"
                   "e=$(date +%s%N)\n"
                   "echo \"$s $e\" > " + ivdir + "/compile_$$\n"
                   "cp " + payload + " \"$2\"\n"
                   "chmod +x \"$2\"\n");

  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = false;  // quiet-timing mode under test
  opt.max_inflight = 8;
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(4, 4), exec);
  const CampaignResult result = campaign.run();
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) {
      EXPECT_EQ(run.status, core::RunStatus::Ok);
    }
  }

  const auto intervals = read_intervals(ivdir);
  // 4 programs x 2 impls compiles + 4 x 2 inputs x 2 impls runs.
  ASSERT_EQ(intervals.size(), 24u);
  int timed = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    timed += intervals[i].timed_run ? 1 : 0;
    for (std::size_t j = i + 1; j < intervals.size(); ++j) {
      if (!intervals[i].timed_run && !intervals[j].timed_run) continue;
      const bool overlap = intervals[i].start < intervals[j].end &&
                           intervals[j].start < intervals[i].end;
      EXPECT_FALSE(overlap)
          << "a timed run overlapped another child: [" << intervals[i].start
          << "," << intervals[i].end << ") vs [" << intervals[j].start << ","
          << intervals[j].end << ")";
    }
  }
  EXPECT_EQ(timed, 16);
}

TEST(QuietTiming, ConcurrentModeDoesOverlapRuns) {
  // The inverse guard: with concurrent_runs = true the pipeline must
  // actually overlap test children, or the tentpole is a no-op.
  const std::string dir = temp_dir();
  const std::string ivdir = dir + "/iv";
  mkdir(ivdir.c_str(), 0755);

  const std::string payload = dir + "/payload.sh";
  write_script(payload, "#!/bin/sh\n"
                        "s=$(date +%s%N)\n"
                        "sleep 0.08\n"
                        "e=$(date +%s%N)\n"
                        "echo \"$s $e\" > " + ivdir + "/run_$$\n"
                        "echo 42\n"
                        "echo \"time_us: 2000\"\n");
  const std::string cc = dir + "/cc.sh";
  write_script(cc, "#!/bin/sh\n"
                   "cp " + payload + " \"$2\"\n"
                   "chmod +x \"$2\"\n");

  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  opt.max_inflight = 8;
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(4, 4), exec);
  (void)campaign.run();

  const auto intervals = read_intervals(ivdir);
  ASSERT_GE(intervals.size(), 16u);
  int overlapping = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t j = i + 1; j < intervals.size(); ++j) {
      overlapping += (intervals[i].start < intervals[j].end &&
                      intervals[j].start < intervals[i].end)
                         ? 1
                         : 0;
    }
  }
  EXPECT_GT(overlapping, 0) << "pipeline never ran two test children at once";
}

TEST(RunBatch, RunsStartInTheOrderCompilesFinish) {
  // Each compile's completion submits its own runs: the quick second
  // implementation's runs must not wait for the slow first compile.
  const std::string dir = temp_dir();
  const std::string slow_end = dir + "/slow_compile_end";
  const std::string fast_runs = dir + "/fast_runs";
  const std::string stamp = "date +%s%N";
  const std::string slow =
      make_stub_compiler(dir, "slow", stamp + " >> " + dir + "/slow_runs\necho 1\n",
                         "sleep 0.8\n" + stamp + " > " + slow_end + "\n");
  const std::string fast = make_stub_compiler(
      dir, "fast", stamp + " >> " + fast_runs + "\necho 1\n");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;  // exclusive runs would wait for the slow compile
  opt.max_inflight = 4;
  SubprocessExecutor exec({{"slow", slow + " {src} {bin}", ""},
                           {"fast", fast + " {src} {bin}", ""}},
                          opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  TestCase test = campaign.make_test_case(0);
  test.inputs.push_back(test.inputs.front());
  test.inputs.push_back(test.inputs.front());
  const auto results = exec.run_batch(test, {0, 1, 2}, {"slow", "fast"});
  for (const auto& run : results) EXPECT_EQ(run.status, core::RunStatus::Ok);

  const std::vector<std::string> end = read_lines(slow_end);
  const std::vector<std::string> runs = read_lines(fast_runs);
  ASSERT_EQ(end.size(), 1u);
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_EQ(read_lines(dir + "/slow_runs").size(), 3u);
  for (const auto& start : runs) {
    EXPECT_LT(std::stoll(start), std::stoll(end.front()))
        << "a fast run waited for the slow compile";
  }
}

// ------------------------------------------------------ classification -----

TEST(SubprocessClassify, UnparseableFirstLineIsCrash) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"garbage", make_stub_compiler(dir, "garbage",
                                     "echo bogus-output\necho \"time_us: 5\"\n") +
                      " {src} {bin}",
       ""},
      {"trailing", make_stub_compiler(dir, "trailing", "echo 42abc\n") +
                       " {src} {bin}",
       ""},
      {"silent", make_stub_compiler(dir, "silent", "true\n") + " {src} {bin}",
       ""},
      {"good", make_stub_compiler(dir, "good",
                                  "echo 7.5\necho \"time_us: 123\"\n") +
                   " {src} {bin}",
       ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  const TestCase test = campaign.make_test_case(0);

  EXPECT_EQ(exec.run(test, 0, "garbage").status, core::RunStatus::Crash);
  EXPECT_EQ(exec.run(test, 0, "trailing").status, core::RunStatus::Crash);
  EXPECT_EQ(exec.run(test, 0, "silent").status, core::RunStatus::Crash);
  const auto good = exec.run(test, 0, "good");
  EXPECT_EQ(good.status, core::RunStatus::Ok);
  EXPECT_EQ(good.output, 7.5);
  EXPECT_EQ(good.time_us, 123.0);
}

TEST(SubprocessClassify, SameNameDifferentProgramsGetDistinctFiles) {
  // Regression: with concurrent compiles, two programs sharing a name but
  // differing in body must not race on one source/binary path — the stem
  // includes the fingerprint.
  const std::string dir = temp_dir();
  const std::string log = dir + "/compiles.log";
  std::vector<ImplementationSpec> impls = {
      {"cc", make_logging_stub_compiler(dir, log) + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  SubprocessExecutor exec(impls, opt);

  core::ProgramGenerator gen(GeneratorConfig{});
  fp::InputGenerator input_gen(fp::InputGenOptions{});
  RandomEngine rng(99);
  TestCase a, b;
  a.program = gen.generate("same_name", 1);
  b.program = gen.generate("same_name", 2);
  ASSERT_NE(a.program.fingerprint(), b.program.fingerprint());
  a.inputs.push_back(input_gen.generate(a.program.signature(), rng));
  b.inputs.push_back(input_gen.generate(b.program.signature(), rng));

  EXPECT_EQ(exec.run(a, 0, "cc").status, core::RunStatus::Ok);
  EXPECT_EQ(exec.run(b, 0, "cc").status, core::RunStatus::Ok);
  const std::vector<std::string> sources = read_lines(log);
  ASSERT_EQ(sources.size(), 2u);
  const auto has_fingerprint = [](const std::string& path, const ast::Program& p) {
    return path.find(telemetry::hex_fingerprint(p.fingerprint())) != std::string::npos;
  };
  EXPECT_TRUE(has_fingerprint(sources[0], a.program)) << sources[0];
  EXPECT_TRUE(has_fingerprint(sources[1], b.program)) << sources[1];
}

TEST(SubprocessClassify, UnknownImplementationThrows) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"only", make_stub_compiler(dir, "only", "echo 1\n") + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  const TestCase test = campaign.make_test_case(0);
  EXPECT_THROW((void)exec.run(test, 0, "missing"), Error);
  EXPECT_THROW((void)exec.run(test, 99, "only"), Error);
}

// ------------------------------------------------------------ work_dir ----

TEST(SubprocessWorkDir, PathWithSpaceCompilesAndRuns) {
  // The template is tokenized before {src}/{bin} are substituted, so a
  // work_dir containing a space stays one argv entry.
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"cc", make_stub_compiler(dir, "cc", "echo 3.5\necho \"time_us: 10\"\n") +
                 " {src} {bin}",
       ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work dir";
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  const auto result = exec.run(campaign.make_test_case(0), 0, "cc");
  EXPECT_EQ(result.status, core::RunStatus::Ok);
  EXPECT_EQ(result.output, 3.5);
}

TEST(SubprocessWorkDir, NestedWorkDirIsCreated) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"cc", make_stub_compiler(dir, "cc", "echo 1\necho \"time_us: 10\"\n") +
                 " {src} {bin}",
       ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/missing/parent/work";
  SubprocessExecutor exec(impls, opt);
  EXPECT_TRUE(std::filesystem::is_directory(opt.work_dir));
  Campaign campaign(stub_campaign_config(1, 1), exec);
  EXPECT_EQ(exec.run(campaign.make_test_case(0), 0, "cc").status,
            core::RunStatus::Ok);
}

TEST(SubprocessWorkDir, UncreatableWorkDirThrowsAtConstruction) {
  const std::string dir = temp_dir();
  std::ofstream(dir + "/plain_file") << "x";
  SubprocessOptions opt;
  opt.work_dir = dir + "/plain_file/work";  // a regular file as parent
  try {
    SubprocessExecutor exec({{"cc", "/bin/true {src} {bin}", ""}}, opt);
    FAIL() << "constructing over an uncreatable work_dir did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(opt.work_dir), std::string::npos)
        << e.what();
  }
}

TEST(SubprocessWorkDir, UnresolvableCompilerThrowsAtConstruction) {
  // A misspelled compiler must fail before any campaign runs, naming the
  // implementation and its argv[0] — not surface as lost children that are
  // retried and quarantined triple by triple.
  const std::string dir = temp_dir();
  const std::string not_executable = dir + "/plain.sh";
  std::ofstream(not_executable) << "#!/bin/sh\n";
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  for (const std::string& cc :
       {std::string("g+++"), dir + "/no/such/compiler", dir, not_executable}) {
    try {
      SubprocessExecutor exec({{"alpha", "/bin/true {src} {bin}", ""},
                               {"beta", cc + " {src} {bin}", ""}},
                              opt);
      ADD_FAILURE() << "compiler '" << cc << "' was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'beta'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + cc + "'"), std::string::npos) << what;
    }
  }
}

TEST(SubprocessWorkDir, CampaignLeavesNoArtifacts) {
  // Each run_batch call unlinks the sources and binaries it compiled; stub
  // compilers never get a PCH, so nothing at all remains.
  const std::string dir = temp_dir();
  const std::string cc =
      make_stub_compiler(dir, "cc", "echo 42\necho \"time_us: 2000\"\n");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.max_inflight = 4;
  SubprocessExecutor exec({{"alpha", cc + " {src} {bin}", ""},
                           {"beta", cc + " {src} {bin}", ""}},
                          opt);
  Campaign campaign(stub_campaign_config(6, 2), exec);
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.total_runs, 6 * 2 * 2);
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) EXPECT_EQ(run.status, core::RunStatus::Ok);
  }
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(opt.work_dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_TRUE(left.empty()) << left.size() << " files left, e.g. " << left.front();
}

TEST(SubprocessWorkDir, ConcurrentBatchesOfOneProgramDoNotCollide) {
  // Two batches of the same program in flight at once (duplicate candidates
  // of one oracle generation do this) compile into distinct files, so
  // neither unlinks or overwrites the other's source or binary.
  const std::string dir = temp_dir();
  const std::string log = dir + "/compiles.log";
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.max_inflight = 4;
  opt.concurrent_runs = true;
  SubprocessExecutor exec(
      {{"cc", make_logging_stub_compiler(dir, log, "0.3") + " {src} {bin}", ""}},
      opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  const TestCase test = campaign.make_test_case(0);
  const auto batch = [&] { return exec.run_batch(test, {0, 1}, {"cc"}); };
  auto first = std::async(std::launch::async, batch);
  auto second = std::async(std::launch::async, batch);
  for (const auto& results : {first.get(), second.get()}) {
    ASSERT_EQ(results.size(), 2u);
    for (const auto& run : results) EXPECT_EQ(run.status, core::RunStatus::Ok);
  }
  const std::vector<std::string> sources = read_lines(log);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(sources[0], sources[1]);
  EXPECT_TRUE(std::filesystem::is_empty(opt.work_dir));
}

TEST(SubprocessWorkDir, ThrowingBatchLeavesNoArtifacts) {
  // The unknown second implementation throws after the first compile was
  // submitted; the batch waits for that compile and the runs it chains
  // before unlinking, so no late binary appears and no run starts once
  // run_batch has thrown.
  const std::string dir = temp_dir();
  const std::string runs = dir + "/runs.log";
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  SubprocessExecutor exec(
      {{"cc", make_logging_stub_compiler(dir, dir + "/compiles.log", "0.3", runs) +
                  " {src} {bin}",
        ""}},
      opt);
  Campaign campaign(stub_campaign_config(1, 1), exec);
  EXPECT_THROW((void)exec.run_batch(campaign.make_test_case(0), {0},
                                    {"cc", "missing"}),
               Error);
  const std::size_t runs_at_throw = read_lines(runs).size();
  EXPECT_EQ(read_lines(dir + "/compiles.log").size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_TRUE(std::filesystem::is_empty(opt.work_dir));
  EXPECT_EQ(read_lines(runs).size(), runs_at_throw)
      << "a run started after run_batch threw";
}

// ------------------------------------------------- precompiled prelude ----

TEST(PrecompiledPrelude, OnlyGxxLikeCommandsQualify) {
  for (const char* yes :
       {"g++", "/usr/bin/g++", "g++-12", "g++-12.2", "x86_64-linux-gnu-g++",
        "/usr/local/bin/aarch64-linux-gnu-g++-13"}) {
    EXPECT_TRUE(is_gxx_like(yes)) << yes;
  }
  for (const char* no : {"gcc", "clang++", "c++", "cc.sh", "/tmp/stub_cc.sh",
                         "g++.sh", "g++-wrapper", "-g++", "ccache", "xg++"}) {
    EXPECT_FALSE(is_gxx_like(no)) << no;
  }
}

TEST(PrecompiledPrelude, ArgvSubstitutesInsideTokens) {
  const std::string cmd = "g++ -fopenmp  -O2 {src} -o {bin}";
  EXPECT_EQ(compile_argv(cmd, "/a b/t.cpp", "/a b/t.bin"),
            (std::vector<std::string>{"g++", "-fopenmp", "-O2", "/a b/t.cpp",
                                      "-o", "/a b/t.bin"}));
  EXPECT_EQ(compile_argv(cmd, "t.cpp", "t.bin", "/w/pch/x/prelude.hpp"),
            (std::vector<std::string>{"g++", "-include", "/w/pch/x/prelude.hpp",
                                      "-fopenmp", "-O2", "t.cpp", "-o", "t.bin"}));
  EXPECT_EQ(prelude_build_argv(cmd, "/w/pch/x/prelude.hpp"),
            (std::vector<std::string>{"g++", "-x", "c++-header", "-fopenmp", "-O2",
                                      "/w/pch/x/prelude.hpp", "-o",
                                      "/w/pch/x/prelude.hpp.gch"}));
}

bool have_gxx() { return std::system("g++ --version > /dev/null 2>&1") == 0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Implementation names are INI keys, so they may hold any character: the
// compile span must escape the name, or one `"` makes trace.json invalid.
TEST(SubprocessTrace, CompileSpanEscapesTheImplementationName) {
  const std::string dir = temp_dir();
  const std::string name = "cc\"q\\x";
  std::vector<ImplementationSpec> impls = {
      {name, make_stub_compiler(dir, "cc", "echo 1\n") + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  SubprocessExecutor exec(impls, opt);
  const TestCase test = Campaign(stub_campaign_config(1, 1), exec).make_test_case(0);
  const std::string path = dir + "/trace.json";
  telemetry::Tracer::instance().start(path);
  const auto runs = exec.run_batch(test, {0}, {name});
  ASSERT_TRUE(telemetry::Tracer::instance().stop());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].status, core::RunStatus::Ok);
  const std::string trace = read_file(path);
  EXPECT_NE(trace.find(R"("impl":"cc\"q\\x")"), std::string::npos) << trace;
  EXPECT_EQ(trace.find(R"("impl":"cc"q\x")"), std::string::npos) << trace;
}

/// The first `n` programs of a real-g++-sized campaign stream (trip counts
/// <= 10), optionally with every feature gate on.
std::vector<TestCase> gxx_stream(int n, bool all_gates) {
  CampaignConfig config = stub_campaign_config(n, 1);
  config.inputs_per_program = 1;
  config.generator.max_loop_trip_count = 10;
  if (all_gates) {
    config.generator.enable_features("atomic,single,master,schedule,rangeidx");
  }
  SimExecutor exec;
  const Campaign campaign(config, exec);
  std::vector<TestCase> tests;
  for (int k = 0; k < n; ++k) tests.push_back(campaign.make_test_case(k));
  return tests;
}

std::uint64_t counter_value(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

/// Polls `name` until it reaches `target` or 60 s pass.
bool await_counter(const char* name, std::uint64_t target) {
  for (int i = 0; i < 6000 && counter_value(name) < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return counter_value(name) >= target;
}

std::vector<std::string> files_with_extension(const std::string& root,
                                              const std::string& ext) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (entry.path().extension() == ext) out.push_back(entry.path().string());
  }
  return out;
}

TEST(PrecompiledPrelude, BinariesAreByteIdenticalToPlainCompiles) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  std::vector<TestCase> programs = gxx_stream(2, false);
  for (auto& test : gxx_stream(2, true)) programs.push_back(std::move(test));
  AsyncProcessPool pool(4);
  for (const char* level : {"-O0", "-O2", "-O3"}) {
    SCOPED_TRACE(level);
    const std::string dir = temp_dir();
    const std::string cmd = std::string("g++ -fopenmp ") + level + " {src} -o {bin}";
    const std::string header = dir + "/prelude.hpp";
    std::ofstream(header) << emit::prelude();
    const ProcessResult build = run_process(prelude_build_argv(cmd, header), 120'000);
    ASSERT_EQ(build.exit_code, 0);
    // From here on g++ can only succeed by loading the PCH: parsing the
    // header text instead would hit the #error.
    std::ofstream(header) << "#error \"precompiled prelude not used\"\n";
    std::vector<std::future<ProcessResult>> compiles;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      const std::string stem = dir + "/p" + std::to_string(p);
      std::ofstream(stem + ".cpp") << emit::emit_translation_unit(programs[p].program);
      ProcessJob plain;
      plain.argv = compile_argv(cmd, stem + ".cpp", stem + "_plain.bin");
      plain.timeout_ms = 120'000;
      ProcessJob with_pch = plain;
      with_pch.argv = compile_argv(cmd, stem + ".cpp", stem + "_pch.bin", header);
      compiles.push_back(pool.submit(std::move(plain)));
      compiles.push_back(pool.submit(std::move(with_pch)));
    }
    for (auto& compile : compiles) EXPECT_EQ(compile.get().exit_code, 0);
    for (std::size_t p = 0; p < programs.size(); ++p) {
      const std::string stem = dir + "/p" + std::to_string(p);
      const std::string plain = read_file(stem + "_plain.bin");
      EXPECT_FALSE(plain.empty()) << programs[p].program.name();
      EXPECT_EQ(plain, read_file(stem + "_pch.bin")) << programs[p].program.name();
    }
  }
}

/// Statuses of a `programs`-program, one-implementation campaign compiled
/// by `command`, plus the PCH counters it moved.
struct PchCampaign {
  std::vector<core::RunStatus> statuses;
  std::uint64_t builds = 0;
  std::uint64_t failures = 0;
  bool pch_dir_left = false;
};

PchCampaign run_pch_campaign(const std::string& command, int programs) {
  PchCampaign out;
  const std::string dir = temp_dir();
  const std::uint64_t builds0 = counter_value("exec.pch_builds");
  const std::uint64_t failures0 = counter_value("exec.pch_failures");
  {
    SubprocessOptions opt;
    opt.work_dir = dir + "/work";
    opt.max_inflight = 4;
    SubprocessExecutor exec({{"cc", command, ""}}, opt);
    CampaignConfig config = stub_campaign_config(programs, 1);
    config.inputs_per_program = 1;
    config.generator.max_loop_trip_count = 10;
    Campaign campaign(config, exec);
    for (const auto& outcome : campaign.run().outcomes) {
      for (const auto& run : outcome.runs) out.statuses.push_back(run.status);
    }
    out.builds = counter_value("exec.pch_builds") - builds0;
    out.failures = counter_value("exec.pch_failures") - failures0;
  }
  out.pch_dir_left = std::filesystem::exists(dir + "/work/pch");
  return out;
}

/// A command that is not g++-like but compiles exactly as g++ does.
std::string plain_gxx_wrapper() {
  const std::string path = temp_dir() + "/plain_cxx.sh";
  write_script(path, "#!/bin/sh\nexec g++ \"$@\"\n");
  return path;
}

TEST(PrecompiledPrelude, CampaignBuildsOnePchAndKeepsStatuses) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  const PchCampaign gxx = run_pch_campaign("g++ -fopenmp -O0 {src} -o {bin}", 3);
  EXPECT_EQ(gxx.builds, 1u);
  EXPECT_EQ(gxx.failures, 0u);
  EXPECT_FALSE(gxx.pch_dir_left);
  const PchCampaign plain =
      run_pch_campaign(plain_gxx_wrapper() + " -fopenmp -O0 {src} -o {bin}", 3);
  EXPECT_EQ(plain.builds, 0u) << "a non-g++-like command got a PCH";
  EXPECT_EQ(gxx.statuses, plain.statuses);
  EXPECT_EQ(gxx.statuses.size(), 3u);
}

TEST(PrecompiledPrelude, OneProgramCampaignBuildsNoPch) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  const PchCampaign one = run_pch_campaign("g++ -fopenmp -O0 {src} -o {bin}", 1);
  EXPECT_EQ(one.builds, 0u);
  EXPECT_EQ(one.statuses, std::vector<core::RunStatus>{core::RunStatus::Ok});
}

TEST(PrecompiledPrelude, FailedBuildFallsBackToPlainCompiles) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  // A wrapper NAMED g++ (so it qualifies) that refuses to build headers.
  const std::string dir = temp_dir();
  write_script(dir + "/g++",
               "#!/bin/sh\n"
               "for arg in \"$@\"; do\n"
               "  [ \"$arg\" = c++-header ] && exit 1\n"
               "done\n"
               "exec g++ \"$@\"\n");
  const std::string flags = " -fopenmp -O0 {src} -o {bin}";
  const std::vector<TestCase> programs = gxx_stream(3, false);
  const auto run_all = [&](const std::string& command, bool await_failure) {
    SubprocessOptions opt;
    opt.work_dir = temp_dir() + "/work";
    SubprocessExecutor exec({{"cc", command, ""}}, opt);
    const std::uint64_t failures0 = counter_value("exec.pch_failures");
    std::vector<core::RunResult> results;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      results.push_back(exec.run(programs[p], 0, "cc"));
      // The second program started the build; let it fail before the third.
      if (await_failure && p == 1) {
        EXPECT_TRUE(await_counter("exec.pch_failures", failures0 + 1));
      }
    }
    return results;
  };
  const std::uint64_t builds0 = counter_value("exec.pch_builds");
  const std::uint64_t compiles0 = counter_value("exec.pch_compiles");
  const auto fallback = run_all(dir + "/g++" + flags, true);
  EXPECT_EQ(counter_value("exec.pch_builds") - builds0, 1u);
  EXPECT_EQ(counter_value("exec.pch_compiles") - compiles0, 0u)
      << "a compile used a PCH whose build failed";
  const auto plain = run_all(plain_gxx_wrapper() + flags, false);
  ASSERT_EQ(fallback.size(), plain.size());
  for (std::size_t p = 0; p < plain.size(); ++p) {
    EXPECT_EQ(fallback[p].status, core::RunStatus::Ok);
    EXPECT_EQ(fallback[p].status, plain[p].status);
  }
}

TEST(PrecompiledPrelude, LaterCompilesUseThePchAndNoGchOutlivesTheExecutor) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  const std::vector<TestCase> programs = gxx_stream(24, false);
  const std::string work = temp_dir() + "/work";
  const std::uint64_t compiles0 = counter_value("exec.pch_compiles");
  {
    SubprocessOptions opt;
    opt.work_dir = work;
    SubprocessExecutor exec({{"cc", "g++ -fopenmp -O0 {src} -o {bin}", ""}}, opt);
    // Programs run one at a time until one compiles with the PCH (the build
    // starts at the second and no compile waits for it).
    std::size_t p = 0;
    while (p < programs.size() && counter_value("exec.pch_compiles") == compiles0) {
      EXPECT_EQ(exec.run(programs[p++], 0, "cc").status, core::RunStatus::Ok);
    }
    ASSERT_GT(counter_value("exec.pch_compiles"), compiles0)
        << "no compile used the PCH in " << p << " programs";
    EXPECT_EQ(files_with_extension(work, ".gch"),
              std::vector<std::string>{work + "/pch/cc/prelude.hpp.gch"});
    EXPECT_TRUE(files_with_extension(work, ".cpp").empty() &&
                files_with_extension(work, ".bin").empty())
        << "a source or binary outlived its batch";
  }
  EXPECT_TRUE(files_with_extension(work, ".gch").empty());
  EXPECT_FALSE(std::filesystem::exists(work + "/pch"));
  EXPECT_TRUE(std::filesystem::is_empty(work)) << "a file outlived the executor";
}

// ------------------------------------------------------------- config ------

TEST(ExecutorConfigTest, ParsesExecutorSection) {
  const ConfigFile file = ConfigFile::parse(
      "[executor]\n"
      "work_dir = _pipe\n"
      "run_timeout_ms = 1234\n"
      "compile_timeout_ms = 9999\n"
      "concurrent_runs = true\n"
      "max_inflight = 24\n");
  const ExecutorConfig cfg = ExecutorConfig::from_config(file);
  EXPECT_EQ(cfg.work_dir, "_pipe");
  EXPECT_EQ(cfg.run_timeout_ms, 1234);
  EXPECT_EQ(cfg.compile_timeout_ms, 9999);
  EXPECT_TRUE(cfg.concurrent_runs);
  EXPECT_EQ(cfg.max_inflight, 24);

  const SubprocessOptions opt = to_subprocess_options(cfg);
  EXPECT_EQ(opt.work_dir, "_pipe");
  EXPECT_EQ(opt.run_timeout_ms, 1234);
  EXPECT_EQ(opt.compile_timeout_ms, 9999);
  EXPECT_TRUE(opt.concurrent_runs);
  EXPECT_EQ(opt.max_inflight, 24);
}

TEST(ExecutorConfigTest, DefaultsAndValidation) {
  const ExecutorConfig defaults =
      ExecutorConfig::from_config(ConfigFile::parse(""));
  EXPECT_EQ(defaults.work_dir, "_tests");
  EXPECT_EQ(defaults.max_inflight, 0);  // 0 = 2x hardware concurrency
  EXPECT_FALSE(defaults.concurrent_runs);

  ExecutorConfig cfg;
  cfg.max_inflight = -1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = ExecutorConfig{};
  cfg.run_timeout_ms = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = ExecutorConfig{};
  cfg.work_dir.clear();
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_THROW(
      (void)ExecutorConfig::from_config(
          ConfigFile::parse("[executor]\nmax_inflight = -2\n")),
      ConfigError);
}

}  // namespace
}  // namespace ompfuzz::harness
