// Tests for the campaign harness: SimExecutor semantics, campaign
// determinism and aggregation, report rendering, and the case-study analyzer.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "analysis/race_analyzer.hpp"
#include "harness/campaign.hpp"
#include "harness/perf_analyzer.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::harness {
namespace {

CampaignConfig tiny_config(int programs = 8) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 8;
  cfg.generator.max_loop_trip_count = 30;
  cfg.min_time_us = 10;
  cfg.seed = 0xABCD;
  return cfg;
}

SimExecutorOptions tiny_options() {
  SimExecutorOptions opt;
  opt.num_threads = 8;
  opt.max_interp_steps = 2'000'000;
  return opt;
}

TEST(SimExecutor, ListsThreeVendorsByDefault) {
  SimExecutor exec(tiny_options());
  const auto impls = exec.implementations();
  ASSERT_EQ(impls.size(), 3u);
  EXPECT_EQ(impls[0], "gcc");
  EXPECT_EQ(impls[1], "clang");
  EXPECT_EQ(impls[2], "intel");
  EXPECT_THROW((void)exec.profile("msvc"), Error);
}

TEST(SimExecutor, RunsAreDeterministic) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  const auto a = exec.run(test, 0, "gcc");
  const auto b = exec.run(test, 0, "gcc");
  EXPECT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_EQ(std::isnan(a.output), std::isnan(b.output));
  if (!std::isnan(a.output)) {
    EXPECT_DOUBLE_EQ(a.output, b.output);
  }
}

TEST(SimExecutor, DifferentImplsDifferentTimes) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(1);
  const auto gcc = exec.run(test, 0, "gcc");
  const auto intel = exec.run(test, 0, "intel");
  if (gcc.status == core::RunStatus::Ok && intel.status == core::RunStatus::Ok) {
    EXPECT_NE(gcc.time_us, intel.time_us);
  }
}

TEST(SimExecutor, DetailedRunExposesEventsAndCounters) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(2);
  const auto d = exec.run_detailed(test, 0, "intel");
  if (d.result.status == core::RunStatus::Ok) {
    EXPECT_GT(d.events.total_ops(), 0u);
    EXPECT_GT(d.time.total_us(), 0.0);
    EXPECT_GT(d.counters.instructions, 0u);
    EXPECT_NEAR(d.result.time_us, d.time.total_us(), 1e-9);
  }
}

TEST(SimExecutor, InputIndexValidated) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  EXPECT_THROW((void)exec.run(test, 99, "gcc"), Error);
}

TEST(SimExecutor, BudgetProducesSkipped) {
  SimExecutorOptions opt = tiny_options();
  opt.max_interp_steps = 50;  // absurdly small
  SimExecutor exec(opt);
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  const auto r = exec.run(test, 0, "gcc");
  EXPECT_EQ(r.status, core::RunStatus::Skipped);
}

TEST(SimExecutor, IdentityCoversEveryProfileParameter) {
  // One perturbation per simulation parameter of a profile.
  using P = rt::OmpImplProfile;
  const std::vector<std::function<void(P&)>> perturbations = {
      [](P& p) { p.fp.flush_subnormals = !p.fp.flush_subnormals; },
      [](P& p) { p.fp.contract_fma = !p.fp.contract_fma; },
      [](P& p) { p.fp.reassociate_reductions = !p.fp.reassociate_reductions; },
      [](P& p) { p.cost.ns_fp_add += 0.25; },
      [](P& p) { p.cost.ns_fp_mul += 0.25; },
      [](P& p) { p.cost.ns_fp_div += 0.25; },
      [](P& p) { p.cost.ns_math_call += 0.25; },
      [](P& p) { p.cost.ns_subnormal_assist += 0.25; },
      [](P& p) { p.cost.ns_int_op += 0.25; },
      [](P& p) { p.cost.ns_scalar_load += 0.25; },
      [](P& p) { p.cost.ns_scalar_store += 0.25; },
      [](P& p) { p.cost.ns_array_load += 0.25; },
      [](P& p) { p.cost.ns_array_store += 0.25; },
      [](P& p) { p.cost.ns_branch += 0.25; },
      [](P& p) { p.cost.ns_region_launch += 0.25; },
      [](P& p) { p.cost.ns_thread_start += 0.25; },
      [](P& p) { p.cost.ns_barrier_arrival += 0.25; },
      [](P& p) { p.cost.ns_reduction_combine += 0.25; },
      [](P& p) { p.cost.relaunch_multiplier += 0.25; },
      [](P& p) { p.cost.relaunch_threshold += 1; },
      [](P& p) { p.cost.vectorization_factor += 0.25; },
      [](P& p) { p.cost.mixed_width_vector_penalty += 0.25; },
      [](P& p) { p.cost.noise_fraction += 0.25; },
      [](P& p) { p.cost.time_scale += 0.25; },
      [](P& p) { p.wait.active_fraction += 0.25; },
      [](P& p) { p.wait.spin_instr_per_ns += 0.25; },
      [](P& p) { p.wait.cs_per_thread_launch += 0.25; },
      [](P& p) { p.wait.base_ctx_switches += 0.25; },
      [](P& p) { p.wait.pages_per_region += 0.25; },
      [](P& p) { p.wait.base_page_faults += 0.25; },
      [](P& p) { p.wait.migrations_per_thread += 0.25; },
      [](P& p) { p.wait.branch_miss_rate += 0.25; },
      [](P& p) { p.fault.hang_probability += 0.25; },
      [](P& p) { p.fault.hang_min_threads += 1; },
      [](P& p) { p.fault.crash_probability += 0.25; },
      [](P& p) { p.fault.crash_min_nesting += 1; },
      [](P& p) {
        p.critical_lock = p.critical_lock == rt::LockAlgorithm::Ticket
                              ? rt::LockAlgorithm::Queuing
                              : rt::LockAlgorithm::Ticket;
      },
  };
  for (const P& base : {rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()}) {
    const std::string identity =
        SimExecutor({base}, tiny_options()).impl_identity(base.name);
    for (std::size_t k = 0; k < perturbations.size(); ++k) {
      P changed = base;
      perturbations[k](changed);
      EXPECT_NE(SimExecutor({changed}, tiny_options()).impl_identity(base.name),
                identity)
          << base.name << " perturbation " << k;
    }
  }
}

TEST(SimExecutor, EqualProfilesShareIdentity) {
  const SimExecutor a(tiny_options());
  const SimExecutor b({rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()},
                      tiny_options());
  for (const auto& name : a.implementations()) {
    EXPECT_EQ(a.impl_identity(name), b.impl_identity(name)) << name;
  }
  // The digest is one fixed-width field, distinct per built-in profile.
  EXPECT_NE(a.impl_identity("clang").find(";params="), std::string::npos);
  EXPECT_NE(a.impl_identity("clang").find(
                ";interp=" + std::to_string(interp::kSemanticsVersion)),
            std::string::npos);
  EXPECT_NE(rt::parameter_digest(rt::clang_profile()),
            rt::parameter_digest(rt::intel_profile()));
}

// ------------------------------------------------------------ campaign -----

TEST(CampaignTest, TestCasesAreReproducible) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase a = campaign.make_test_case(3);
  const TestCase b = campaign.make_test_case(3);
  EXPECT_EQ(a.program.fingerprint(), b.program.fingerprint());
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i].hash(), b.inputs[i].hash());
  }
}

TEST(CampaignTest, GeneratedTestsAreRaceFree) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(20), exec);
  for (int p = 0; p < 20; ++p) {
    const TestCase test = campaign.make_test_case(p);
    EXPECT_TRUE(analysis::analyze_races(test.program).race_free());
  }
}

TEST(CampaignTest, FullRunAggregatesConsistently) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  EXPECT_EQ(result.total_tests, 20);      // 10 programs x 2 inputs
  EXPECT_EQ(result.total_runs, 60);       // x 3 impls
  EXPECT_EQ(result.outcomes.size(), 20u);
  EXPECT_EQ(result.impl_names.size(), 3u);
  // Per-impl aggregates must equal a recount over outcomes.
  std::map<std::string, int> recount;
  for (const auto& o : result.outcomes) {
    for (std::size_t r = 0; r < o.runs.size(); ++r) {
      if (o.verdict.per_run[r] != core::OutlierKind::None) {
        recount[o.runs[r].impl]++;
      }
    }
  }
  for (const auto& name : result.impl_names) {
    EXPECT_EQ(result.per_impl.at(name).total(), recount[name]) << name;
  }
  EXPECT_GE(result.outlier_rate(), 0.0);
  EXPECT_LE(result.outlier_rate(), 1.0);
}

TEST(CampaignTest, RunIsDeterministic) {
  SimExecutor exec1(tiny_options());
  Campaign campaign1(tiny_config(6), exec1);
  const auto r1 = campaign1.run();
  SimExecutor exec2(tiny_options());
  Campaign campaign2(tiny_config(6), exec2);
  const auto r2 = campaign2.run();
  EXPECT_EQ(r1.total_runs, r2.total_runs);
  EXPECT_EQ(r1.analyzable_tests, r2.analyzable_tests);
  EXPECT_EQ(r1.outlier_runs(), r2.outlier_runs());
  for (const auto& name : r1.impl_names) {
    EXPECT_EQ(r1.per_impl.at(name).fast, r2.per_impl.at(name).fast);
    EXPECT_EQ(r1.per_impl.at(name).slow, r2.per_impl.at(name).slow);
  }
}

TEST(CampaignTest, SeedChangesOutcomes) {
  SimExecutor exec(tiny_options());
  auto cfg1 = tiny_config(6);
  auto cfg2 = tiny_config(6);
  cfg2.seed = cfg1.seed + 1;
  Campaign c1(cfg1, exec);
  Campaign c2(cfg2, exec);
  EXPECT_NE(c1.make_test_case(0).program.fingerprint(),
            c2.make_test_case(0).program.fingerprint());
}

TEST(CampaignTest, ProgressCallbackInvoked) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(5), exec);
  int calls = 0;
  int last_done = 0;
  (void)campaign.run([&](int done, int total) {
    ++calls;
    EXPECT_EQ(total, 5);
    EXPECT_GT(done, last_done);
    last_done = done;
  });
  EXPECT_EQ(calls, 5);
}

// ------------------------------------------------------------ reports ------

TEST(Report, Table1HasAllImplRows) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(6), exec);
  const auto result = campaign.run();
  const std::string table = render_table1(result);
  EXPECT_NE(table.find("Implementation"), std::string::npos);
  EXPECT_NE(table.find("Slow"), std::string::npos);
  EXPECT_NE(table.find("Hang"), std::string::npos);
  for (const auto& name : result.impl_names) {
    EXPECT_NE(table.find(name), std::string::npos);
  }
}

TEST(Report, SummaryMentionsKeyRates) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(6), exec);
  const auto result = campaign.run();
  const std::string summary = render_summary(result);
  EXPECT_NE(summary.find("runs:"), std::string::npos);
  EXPECT_NE(summary.find("outlier runs:"), std::string::npos);
  EXPECT_NE(summary.find("correctness outliers:"), std::string::npos);
}

TEST(Report, JsonIsWellFormedEnough) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(4), exec);
  const auto result = campaign.run();
  const std::string json = to_json(result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"per_impl\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  // Balanced braces/brackets (a cheap structural check).
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      EXPECT_GE(depth, 0);
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
}

// The drafts/sec rate must be the analyzed-drafts counter over the analysis
// time. Both counters grow with the number of backends (every unit analyses
// its program's drafts), while programs_checked does not, so dividing the
// latter by the time made the rate depend on the backend split.
TEST(Report, AnalysisRateCountsAnalyzedDrafts) {
  CampaignResult result;
  result.analysis.programs_checked = 10;
  const telemetry::MetricsSnapshot metrics(std::vector<telemetry::MetricSample>{
      {"campaign.analysis_nanos", telemetry::MetricKind::Counter, 2'000'000, 0, 0, {}},
      {"campaign.analyzed_drafts", telemetry::MetricKind::Counter, 30, 0, 0, {}}});
  const std::string summary = render_analysis_summary(result, metrics);
  EXPECT_NE(summary.find("analysis wall time: 2.0 ms (15000 drafts/sec)"),
            std::string::npos)
      << summary;
  // No timer in the snapshot: no timing line at all.
  EXPECT_EQ(render_analysis_summary(result, telemetry::MetricsSnapshot{})
                .find("analysis wall time"),
            std::string::npos);
}

// make_test_case's accounting covers exactly the drafts it generated: the
// rejected ones plus the accepted one.
TEST(CampaignTest, MakeTestCaseAccountsEveryDraft) {
  SimExecutor exec(tiny_options());
  const Campaign campaign(tiny_config(8), exec);
  for (int p = 0; p < 8; ++p) {
    StaticAnalysisStats accounting;
    const TestCase test = campaign.make_test_case(p, &accounting);
    EXPECT_EQ(accounting.programs_checked, test.regeneration_attempts + 1);
    EXPECT_EQ(accounting.programs_filtered, test.regeneration_attempts);
    EXPECT_EQ(test.program.fingerprint(),
              campaign.make_test_case(p).program.fingerprint());
  }
}

// add_draft re-analyses a clean draft affine-only only when an interval pair
// or a mod rewrite fired on it. Replays make_test_case's draft stream on a
// rangeidx config and counts rescues the slow way — re-analysing every clean
// draft — to show the skip loses none.
TEST(CampaignTest, IntervalRescuesMatchAlwaysReanalysing) {
  CampaignConfig cfg = tiny_config(24);
  cfg.generator.array_size = 64;  // banks >= 2 under 8-thread regions
  cfg.generator.max_loop_trip_count = 12;
  cfg.generator.enable_features("rangeidx");
  SimExecutor exec(tiny_options());
  const Campaign campaign(cfg, exec);
  const core::ProgramGenerator generator(cfg.generator);

  StaticAnalysisStats accounting;
  int expected_rescues = 0;
  int expected_drafts = 0;
  int skippable_clean_drafts = 0;
  for (int p = 0; p < cfg.num_programs; ++p) {
    (void)campaign.make_test_case(p, &accounting);
    RandomEngine campaign_rng(cfg.seed);
    const std::uint64_t program_seed =
        campaign_rng.fork(static_cast<std::uint64_t>(p)).next_u64();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const ast::Program draft = generator.generate(
          "test_" + std::to_string(p), hash_combine(program_seed, attempt));
      ++expected_drafts;
      analysis::AnalyzerStats precision;
      if (!analysis::analyze_races(draft, {}, &precision).race_free()) continue;
      if (precision.interval_disjoint_pairs == 0 && precision.mod_rewrites == 0) {
        ++skippable_clean_drafts;
      }
      if (!analysis::analyze_races(draft, {.use_intervals = false}).race_free()) {
        ++expected_rescues;
      }
      break;
    }
  }
  EXPECT_EQ(accounting.programs_checked, expected_drafts);
  EXPECT_GT(expected_rescues, 0);
  EXPECT_GT(skippable_clean_drafts, 0);
  EXPECT_EQ(accounting.interval_rescued_drafts, expected_rescues);
}

TEST(Report, OutlierListRenders) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  const std::string list = render_outlier_list(result);
  EXPECT_NE(list.find("Kind"), std::string::npos);
}

// ------------------------------------------------------------ analyzer -----

TEST(PerfAnalyzer, CounterComparisonTable) {
  rt::PerfCounters a;
  a.context_switches = 232;
  a.cycles = 110520780;
  rt::PerfCounters b;
  b.context_switches = 10;
  b.cycles = 154797061;
  const std::string table = render_counter_comparison("Intel", a, "GCC", b);
  EXPECT_NE(table.find("context-switches"), std::string::npos);
  EXPECT_NE(table.find("110,520,780"), std::string::npos);
  EXPECT_NE(table.find("154,797,061"), std::string::npos);
  EXPECT_NE(table.find("branch-misses"), std::string::npos);
}

TEST(PerfAnalyzer, CaseStudyReRunsMatchCampaign) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  // Pick any outcome and re-run it in detailed mode: times must match the
  // campaign's recorded runs exactly (full determinism end to end).
  const auto& outcome = result.outcomes.front();
  const auto cs = analyze_case(campaign, exec, outcome, "gcc", "intel");
  EXPECT_EQ(cs.subject.result.status, outcome.runs[0].status);
  if (outcome.runs[0].status == core::RunStatus::Ok) {
    EXPECT_DOUBLE_EQ(cs.subject.result.time_us, outcome.runs[0].time_us);
  }
  EXPECT_EQ(cs.baseline.result.status, outcome.runs[2].status);
}

TEST(PerfAnalyzer, TimeBreakdownRenders) {
  rt::TimeBreakdown t;
  t.compute_ns = 1e6;
  t.launch_ns = 2e5;
  t.critical_ns = 3e5;
  const std::string out = render_time_breakdown("gcc", t);
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("critical sections"), std::string::npos);
  EXPECT_NE(out.find("total"), std::string::npos);
}

}  // namespace
}  // namespace ompfuzz::harness
