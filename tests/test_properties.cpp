// Cross-module property tests: invariants that must hold across the whole
// pipeline for arbitrary seeds, checked over parameterized sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/differ.hpp"
#include "core/generator.hpp"
#include "core/grammar.hpp"
#include "analysis/race_analyzer.hpp"
#include "emit/codegen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {
namespace {

// ---------------------------------------------------------------------------
// Verdict internal consistency: whatever the campaign produces, the verdict
// structure must be self-consistent.
// ---------------------------------------------------------------------------

class CampaignInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  harness::CampaignResult run_campaign() {
    CampaignConfig cfg;
    cfg.num_programs = 12;
    cfg.inputs_per_program = 2;
    cfg.seed = GetParam();
    cfg.generator.num_threads = 8;
    cfg.generator.max_loop_trip_count = 40;
    cfg.min_time_us = 50;
    harness::SimExecutorOptions opt;
    opt.num_threads = 8;
    executor_ = std::make_unique<harness::SimExecutor>(opt);
    harness::Campaign campaign(cfg, *executor_);
    return campaign.run();
  }
  std::unique_ptr<harness::SimExecutor> executor_;
};

TEST_P(CampaignInvariants, VerdictKindsMatchStatuses) {
  const auto result = run_campaign();
  for (const auto& o : result.outcomes) {
    ASSERT_EQ(o.runs.size(), o.verdict.per_run.size());
    for (std::size_t r = 0; r < o.runs.size(); ++r) {
      const auto status = o.runs[r].status;
      const auto kind = o.verdict.per_run[r];
      switch (kind) {
        case core::OutlierKind::Crash:
          EXPECT_EQ(status, core::RunStatus::Crash);
          break;
        case core::OutlierKind::Hang:
          EXPECT_EQ(status, core::RunStatus::Hang);
          break;
        case core::OutlierKind::Slow:
        case core::OutlierKind::Fast:
          EXPECT_EQ(status, core::RunStatus::Ok);
          EXPECT_TRUE(o.verdict.analyzable);
          break;
        case core::OutlierKind::None:
          break;
      }
    }
  }
}

TEST_P(CampaignInvariants, ComparableGroupIsPairwiseComparable) {
  const auto result = run_campaign();
  for (const auto& o : result.outcomes) {
    const auto& group = o.verdict.comparable_group;
    if (group.size() < 2) continue;
    for (std::size_t a : group) {
      EXPECT_EQ(o.runs[a].status, core::RunStatus::Ok);
      for (std::size_t b : group) {
        EXPECT_TRUE(core::comparable_times(o.runs[a].time_us, o.runs[b].time_us,
                                           0.2))
            << o.program_name << ": " << o.runs[a].time_us << " vs "
            << o.runs[b].time_us;
      }
    }
    // Midpoint is the mean of the group.
    double sum = 0.0;
    for (std::size_t a : group) sum += o.runs[a].time_us;
    EXPECT_NEAR(o.verdict.midpoint_us, sum / group.size(), 1e-9);
  }
}

TEST_P(CampaignInvariants, PerformanceOutliersRespectBeta) {
  const auto result = run_campaign();
  for (const auto& o : result.outcomes) {
    if (!o.verdict.analyzable) continue;
    for (std::size_t r = 0; r < o.runs.size(); ++r) {
      const double t = o.runs[r].time_us;
      const double m = o.verdict.midpoint_us;
      if (o.verdict.per_run[r] == core::OutlierKind::Slow) {
        EXPECT_GE(t / m, 1.5);
      } else if (o.verdict.per_run[r] == core::OutlierKind::Fast) {
        EXPECT_GE(m / t, 1.5);
      }
    }
  }
}

TEST_P(CampaignInvariants, DivergenceVectorAligned) {
  const auto result = run_campaign();
  for (const auto& o : result.outcomes) {
    ASSERT_EQ(o.divergence.diverges.size(), o.runs.size());
    for (std::size_t r = 0; r < o.runs.size(); ++r) {
      if (o.runs[r].status != core::RunStatus::Ok) {
        EXPECT_FALSE(o.divergence.diverges[r]);  // non-OK runs never "diverge"
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignInvariants,
                         ::testing::Values(0x100, 0x200, 0x300));

// ---------------------------------------------------------------------------
// Interpreter/emitter coherence: the emitted text and the interpreted tree
// describe the same program for arbitrary generated seeds.
// ---------------------------------------------------------------------------

class PipelineCoherence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineCoherence, EmissionIsDeterministicAndNonTrivial) {
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 25;
  const core::ProgramGenerator gen(cfg);
  const auto prog = gen.generate("coherence", GetParam());
  const std::string code = emit::emit_translation_unit(prog);
  EXPECT_GT(code.size(), 500u);
  EXPECT_EQ(code, emit::emit_translation_unit(prog));
  // Every declared parameter name appears in the source.
  for (ast::VarId id : prog.params()) {
    EXPECT_NE(code.find(prog.var(id).name), std::string::npos);
  }
}

TEST(PipelineCoherenceAggregate, MostProgramsAreInputSensitive) {
  // A single program may legitimately compute an input-independent comp
  // (constants dominating, guards never taken); across many seeds the
  // majority must react to their inputs, or the fuzzer would be toothless.
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 25;
  const core::ProgramGenerator gen(cfg);
  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = 25;
  in_opt.class_weights = {1.0, 0.0, 0.0, 0.0, 0.0};  // normal values only
  const fp::InputGenerator input_gen(in_opt);
  int sensitive = 0;
  constexpr int kSeeds = 20;
  for (std::uint64_t seed = 500; seed < 500 + kSeeds; ++seed) {
    const auto prog = gen.generate("coherence", seed);
    RandomEngine rng(seed + 99);
    std::set<std::string> outputs;
    for (int i = 0; i < 4; ++i) {
      const auto input = input_gen.generate(prog.signature(), rng);
      const auto result = interp::execute(prog, input, {});
      ASSERT_TRUE(result.ok);
      outputs.insert(format_double(result.comp));
    }
    sensitive += (outputs.size() >= 2);
  }
  EXPECT_GE(sensitive, kSeeds / 2) << "most programs ignore their inputs";
}

TEST_P(PipelineCoherence, RepeatedExecutionIsExact) {
  // The same (program, input) under the same FP semantics must give the
  // exact same event stream and output, for any semantics.
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 25;
  const core::ProgramGenerator gen(cfg);
  const auto prog = gen.generate("coherence", GetParam());
  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = 25;
  const fp::InputGenerator input_gen(in_opt);
  RandomEngine rng(GetParam() + 7);
  const auto input = input_gen.generate(prog.signature(), rng);

  const auto a = interp::execute(prog, input, {});
  const auto b = interp::execute(prog, input, {});
  EXPECT_EQ(a.events.total_ops(), b.events.total_ops());
  EXPECT_EQ(a.events.loop_iterations, b.events.loop_iterations);
  EXPECT_EQ(format_double(a.comp), format_double(b.comp));

  // Different FP semantics may legitimately change anything — including how
  // many regions execute, when an if-guard hiding a region flips (that IS
  // the Section V-B divergence mechanism). The only invariant: execution
  // still completes and stays deterministic.
  interp::InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  const auto c = interp::execute(prog, input, ftz);
  const auto d = interp::execute(prog, input, ftz);
  ASSERT_TRUE(c.ok);
  EXPECT_EQ(c.events.total_ops(), d.events.total_ops());
  EXPECT_EQ(format_double(c.comp), format_double(d.comp));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineCoherence,
                         ::testing::Range<std::uint64_t>(500, 510));

// ---------------------------------------------------------------------------
// ULP distance metric properties over random values.
// ---------------------------------------------------------------------------

TEST(UlpMetric, SymmetryAndIdentity) {
  RandomEngine rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const double a = fp::random_double(
        fp::fp_class_from_index(static_cast<int>(rng.uniform_index(4))), rng);
    const double b = fp::random_double(
        fp::fp_class_from_index(static_cast<int>(rng.uniform_index(4))), rng);
    EXPECT_EQ(core::ulp_distance(a, b), core::ulp_distance(b, a));
    EXPECT_EQ(core::ulp_distance(a, a), 0);
  }
}

TEST(UlpMetric, MonotoneAlongNextafterChains) {
  RandomEngine rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const double base = fp::random_double(fp::FpClass::Normal, rng);
    double x = base;
    for (int k = 1; k <= 8; ++k) {
      x = std::nextafter(x, HUGE_VAL);
      EXPECT_EQ(core::ulp_distance(base, x), k);
    }
  }
}

TEST(UlpMetric, EquivalenceIsReflexiveOnGeneratedValues) {
  RandomEngine rng(888);
  for (int i = 0; i < 1000; ++i) {
    const double v = fp::random_double(
        fp::fp_class_from_index(static_cast<int>(rng.uniform_index(5))), rng);
    EXPECT_TRUE(core::compare_outputs(v, v).equivalent);
  }
}

// ---------------------------------------------------------------------------
// Generated programs stay inside their static guarantees under stress
// configurations.
// ---------------------------------------------------------------------------

struct StressParam {
  std::uint64_t seed_base;
  double p_if, p_for, p_omp, p_reduction, p_critical;
};

class GeneratorStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(GeneratorStress, ConformantRaceFreeAndInterpretable) {
  const auto p = GetParam();
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 20;
  cfg.p_if_block = p.p_if;
  cfg.p_for_block = p.p_for;
  cfg.p_openmp_block = p.p_omp;
  cfg.p_reduction = p.p_reduction;
  cfg.p_critical = p.p_critical;
  const core::ProgramGenerator gen(cfg);
  const fp::InputGenerator input_gen;
  for (int s = 0; s < 25; ++s) {
    const auto prog = gen.generate("stress", p.seed_base + s);
    EXPECT_TRUE(core::check_conformance(prog, cfg).empty()) << "seed " << s;
    EXPECT_TRUE(analysis::analyze_races(prog).race_free()) << "seed " << s;
    RandomEngine rng(p.seed_base + s);
    const auto input = input_gen.generate(prog.signature(), rng);
    interp::InterpOptions opt;
    opt.max_steps = 2'000'000;
    EXPECT_NO_THROW((void)interp::execute(prog, input, opt)) << "seed " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, GeneratorStress,
    ::testing::Values(StressParam{10'000, 1.0, 0.0, 0.0, 0.5, 0.5},   // ifs only
                      StressParam{20'000, 0.0, 1.0, 0.0, 0.5, 0.5},   // loops only
                      StressParam{30'000, 0.0, 0.0, 1.0, 0.5, 0.5},   // regions only
                      StressParam{40'000, 0.0, 0.0, 1.0, 1.0, 1.0},   // max OpenMP
                      StressParam{50'000, 0.0, 0.0, 1.0, 0.0, 1.0},   // criticals, no red.
                      StressParam{60'000, 0.3, 0.3, 0.3, 0.0, 0.0})); // no sync at all

// ---------------------------------------------------------------------------
// Fault-model determinism at the campaign level: the same campaign seed
// produces byte-identical Table I counts.
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, RepeatedCampaignsAgreeOnCorrectnessOutliers) {
  CampaignConfig cfg;
  cfg.num_programs = 15;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 32;  // wide teams arm the hang hazard
  cfg.generator.max_loop_trip_count = 30;
  std::vector<int> crash_counts, hang_counts;
  for (int round = 0; round < 2; ++round) {
    harness::SimExecutorOptions opt;
    opt.num_threads = 32;
    harness::SimExecutor exec(opt);
    harness::Campaign campaign(cfg, exec);
    const auto result = campaign.run();
    int crashes = 0, hangs = 0;
    for (const auto& [name, c] : result.per_impl) {
      crashes += c.crash;
      hangs += c.hang;
    }
    crash_counts.push_back(crashes);
    hang_counts.push_back(hangs);
  }
  EXPECT_EQ(crash_counts[0], crash_counts[1]);
  EXPECT_EQ(hang_counts[0], hang_counts[1]);
}

}  // namespace
}  // namespace ompfuzz
