// Tests for the batched execution pipeline: Executor::run_batch default-vs-
// overridden equivalence (Sim and Subprocess backends, serial and
// multithreaded campaigns), the quiet-timing guarantee (timed runs never
// overlap another child), output classification, and the [executor] config
// section.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "fp/input_gen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {
namespace {

std::string temp_dir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/ompfuzz_pipe_" +
                    std::to_string(getpid()) + "_" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

/// Stub "compiler": ignores {src}, writes a fixed-output "binary" script to
/// {bin}. Every run is deterministic (fixed comp value and self-reported
/// time), so campaigns over it are bit-reproducible like the Sim backend.
std::string make_stub_compiler(const std::string& dir, const std::string& name,
                               const std::string& binary_body) {
  const std::string bin_template = dir + "/" + name + "_payload.sh";
  write_script(bin_template, "#!/bin/sh\n" + binary_body);
  const std::string cc = dir + "/" + name + ".sh";
  write_script(cc, "#!/bin/sh\n"
                   "cp " + bin_template + " \"$2\"\n"
                   "chmod +x \"$2\"\n");
  return cc;
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
  std::vector<ImplementationSpec> impls = {
      {"cc", make_stub_compiler(dir, "cc", "echo 1\necho \"time_us: 10\"\n") +
                 " {src} {bin}",
       ""},
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
  int sources = 0;
  for (const auto& entry : std::filesystem::directory_iterator(opt.work_dir)) {
    sources += entry.path().extension() == ".cpp" ? 1 : 0;
  }
  EXPECT_EQ(sources, 2) << "same-name programs shared an emission path";
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
