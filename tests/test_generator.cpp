// Tests for the random program generator (Sections III-C..III-G).
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "analysis/race_analyzer.hpp"
#include "core/generator.hpp"
#include "emit/codegen.hpp"

namespace ompfuzz::core {
namespace {

using ast::Expr;
using ast::Program;
using ast::Stmt;

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 20;
  return cfg;
}

TEST(Generator, DeterministicForSameSeed) {
  const ProgramGenerator gen(small_config());
  const auto a = gen.generate("t", 123);
  const auto b = gen.generate("t", 123);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(emit::emit_translation_unit(a), emit::emit_translation_unit(b));
}

TEST(Generator, DifferentSeedsProduceDifferentPrograms) {
  const ProgramGenerator gen(small_config());
  std::set<std::uint64_t> fingerprints;
  for (int s = 0; s < 30; ++s) {
    fingerprints.insert(gen.generate("t", 9000 + s).fingerprint());
  }
  EXPECT_GE(fingerprints.size(), 29u);  // collisions should be near-impossible
}

// ------------------------------------------------ fingerprint stability ----
//
// The persistent result store addresses cached runs by Program::fingerprint,
// so the value must be pinned: a silent change would orphan every store on
// disk (annoying), and a fingerprint that skips an emitted structural field
// would *alias* distinct programs (a stale-cache correctness bug).

constexpr std::array<std::uint64_t, 3> kGoldenSeeds = {20240611, 1, 424242};
constexpr std::array<std::uint64_t, 3> kGoldenFingerprints = {
    0x8412101c254f44a8ULL,  // seed 20240611
    0xbdb2809bb74d200cULL,  // seed 1
    0x07b7117bd767f921ULL,  // seed 424242
};

std::uint64_t golden_fingerprint(std::uint64_t seed) {
  const ProgramGenerator gen(small_config());
  return gen.generate("golden", seed).fingerprint();
}

TEST(FingerprintGolden, SeededValuesArePinned) {
  for (std::size_t i = 0; i < kGoldenSeeds.size(); ++i) {
    EXPECT_EQ(golden_fingerprint(kGoldenSeeds[i]), kGoldenFingerprints[i])
        << "seed " << kGoldenSeeds[i]
        << ": Program::fingerprint changed — bump the store format / expect "
           "every persistent result store to go cold, and update the goldens "
           "deliberately";
  }
}

TEST(FingerprintGolden, StableAcrossProcesses) {
  // Child mode: re-generate and print, then leave before gtest reports.
  // (Guards against any address- or process-dependent input sneaking into
  // the hash — exactly what a cross-process run cache cannot tolerate.)
  if (std::getenv("OMPFUZZ_FINGERPRINT_CHILD") != nullptr) {
    for (std::size_t i = 0; i < kGoldenSeeds.size(); ++i) {
      std::printf("fingerprint %llu %016llx\n",
                  static_cast<unsigned long long>(kGoldenSeeds[i]),
                  static_cast<unsigned long long>(
                      golden_fingerprint(kGoldenSeeds[i])));
    }
    std::fflush(stdout);
    std::_Exit(0);
  }

  // Resolve our own binary: /proc/self/exe inside the popen'd shell would
  // name the shell, not this test.
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';
  const std::string command =
      "OMPFUZZ_FINGERPRINT_CHILD=1 '" + std::string(exe) +
      "' --gtest_filter=FingerprintGolden.StableAcrossProcesses 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::set<std::pair<std::uint64_t, std::uint64_t>> reported;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    unsigned long long seed = 0, fp = 0;
    if (std::sscanf(line, "fingerprint %llu %llx", &seed, &fp) == 2) {
      reported.insert({seed, fp});
    }
  }
  ASSERT_EQ(pclose(pipe), 0);
  ASSERT_EQ(reported.size(), kGoldenSeeds.size());
  for (std::size_t i = 0; i < kGoldenSeeds.size(); ++i) {
    EXPECT_TRUE(reported.contains({kGoldenSeeds[i], kGoldenFingerprints[i]}))
        << "child process re-hash of seed " << kGoldenSeeds[i]
        << " does not match the in-process fingerprint";
  }
}

TEST(FingerprintGolden, CoversEmittedStructuralFields) {
  using ast::VarDecl;
  using ast::VarKind;
  using ast::VarRole;
  using ast::FpWidth;

  // Parameter order shapes the emitted compute() signature and main()'s
  // argv parsing — regression for a fingerprint that skipped params.
  const auto make = [](bool swap_params) {
    Program prog;
    prog.set_name("p");
    const auto a = prog.add_var({"a", VarKind::FpScalar, VarRole::Param,
                                 FpWidth::F64, 0});
    const auto b = prog.add_var({"b", VarKind::FpScalar, VarRole::Param,
                                 FpWidth::F64, 0});
    const auto comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp,
                                    FpWidth::F64, 0});
    prog.set_comp(comp);
    if (swap_params) {
      prog.add_param(b);
      prog.add_param(a);
    } else {
      prog.add_param(a);
      prog.add_param(b);
    }
    prog.body().stmts.push_back(Stmt::assign(
        ast::LValue{comp, nullptr}, ast::AssignOp::AddAssign, Expr::var(a)));
    return prog;
  };
  const auto ab = make(false);
  const auto ba = make(true);
  ASSERT_NE(emit::emit_translation_unit(ab), emit::emit_translation_unit(ba));
  EXPECT_NE(ab.fingerprint(), ba.fingerprint())
      << "fingerprint ignores parameter order but codegen does not";

  // Explicit grammar parentheses are emitted — two trees differing only in
  // the paren flag must not share a fingerprint.
  const auto make_paren = [](bool paren) {
    Program prog;
    prog.set_name("p");
    const auto a = prog.add_var({"a", VarKind::FpScalar, VarRole::Param,
                                 FpWidth::F64, 0});
    const auto comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp,
                                    FpWidth::F64, 0});
    prog.set_comp(comp);
    prog.add_param(a);
    prog.body().stmts.push_back(Stmt::assign(
        ast::LValue{comp, nullptr}, ast::AssignOp::Assign,
        Expr::binary(ast::BinOp::Add, Expr::var(a), Expr::fp_const(1.0), paren)));
    return prog;
  };
  const auto plain = make_paren(false);
  const auto parenthesized = make_paren(true);
  ASSERT_NE(emit::emit_translation_unit(plain),
            emit::emit_translation_unit(parenthesized));
  EXPECT_NE(plain.fingerprint(), parenthesized.fingerprint())
      << "fingerprint ignores explicit parentheses but codegen emits them";
}

// Feature-enabled config: all four scenario-surface gates on.
GeneratorConfig feature_config() {
  GeneratorConfig cfg = small_config();
  cfg.enable_atomic = true;
  cfg.enable_single = true;
  cfg.enable_master = true;
  cfg.enable_schedule = true;
  return cfg;
}

std::uint64_t feature_fingerprint(std::uint64_t seed) {
  const ProgramGenerator gen(feature_config());
  return gen.generate("feature", seed).fingerprint();
}

TEST(FingerprintGolden, CoversFeatureConstructFields) {
  using ast::FpWidth;
  using ast::ScheduleKind;
  using ast::VarKind;
  using ast::VarRole;

  // Schedule clause fields shape the emitted "#pragma omp for" line, so two
  // loops differing only in schedule kind or chunk must not alias in the
  // run cache.
  const auto make_loop = [](ScheduleKind schedule, int chunk) {
    Program prog;
    prog.set_name("p");
    const auto comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp,
                                    FpWidth::F64, 0});
    prog.set_comp(comp);
    const auto i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex,
                                 FpWidth::F64, 0});
    ast::Block body;
    body.stmts.push_back(Stmt::assign(ast::LValue{comp, nullptr},
                                      ast::AssignOp::AddAssign,
                                      Expr::fp_const(1.0)));
    prog.body().stmts.push_back(Stmt::for_loop(
        i, Expr::int_const(8), std::move(body), /*omp_for=*/true, schedule,
        chunk));
    return prog;
  };
  const auto none = make_loop(ScheduleKind::None, 0);
  const auto st0 = make_loop(ScheduleKind::Static, 0);
  const auto st2 = make_loop(ScheduleKind::Static, 2);
  const auto dy2 = make_loop(ScheduleKind::Dynamic, 2);
  EXPECT_NE(none.fingerprint(), st0.fingerprint());
  EXPECT_NE(st0.fingerprint(), st2.fingerprint());
  EXPECT_NE(st2.fingerprint(), dy2.fingerprint());

  // An atomic update and the identical plain assignment emit differently.
  const auto make_update = [](bool atomic) {
    Program prog;
    prog.set_name("p");
    const auto comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp,
                                    FpWidth::F64, 0});
    prog.set_comp(comp);
    auto value = Expr::fp_const(2.0);
    prog.body().stmts.push_back(
        atomic ? Stmt::omp_atomic(ast::LValue{comp, nullptr},
                                  ast::AssignOp::AddAssign, std::move(value))
               : Stmt::assign(ast::LValue{comp, nullptr},
                              ast::AssignOp::AddAssign, std::move(value)));
    return prog;
  };
  EXPECT_NE(make_update(true).fingerprint(), make_update(false).fingerprint());

  // single / master / critical wrap the same body but emit different
  // pragmas; all three must hash apart.
  const auto make_wrapped = [](int which) {
    Program prog;
    prog.set_name("p");
    const auto comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp,
                                    FpWidth::F64, 0});
    prog.set_comp(comp);
    ast::Block body;
    body.stmts.push_back(Stmt::assign(ast::LValue{comp, nullptr},
                                      ast::AssignOp::AddAssign,
                                      Expr::fp_const(1.0)));
    prog.body().stmts.push_back(
        which == 0   ? Stmt::omp_single(std::move(body))
        : which == 1 ? Stmt::omp_master(std::move(body))
                     : Stmt::omp_critical(std::move(body)));
    return prog;
  };
  const auto single_fp = make_wrapped(0).fingerprint();
  const auto master_fp = make_wrapped(1).fingerprint();
  const auto critical_fp = make_wrapped(2).fingerprint();
  EXPECT_NE(single_fp, master_fp);
  EXPECT_NE(single_fp, critical_fp);
  EXPECT_NE(master_fp, critical_fp);
}

TEST(FingerprintGolden, FeatureProgramsStableAcrossProcesses) {
  // Same cross-process guarantee as StableAcrossProcesses, but for the
  // feature-enabled stream: the store must be able to re-hash a
  // feature-gated program in a different process and hit the same key.
  constexpr std::array<std::uint64_t, 3> kSeeds = {7, 8, 9};
  if (std::getenv("OMPFUZZ_FEATURE_FINGERPRINT_CHILD") != nullptr) {
    for (const std::uint64_t seed : kSeeds) {
      std::printf("fingerprint %llu %016llx\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(feature_fingerprint(seed)));
    }
    std::fflush(stdout);
    std::_Exit(0);
  }

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';
  const std::string command =
      "OMPFUZZ_FEATURE_FINGERPRINT_CHILD=1 '" + std::string(exe) +
      "' --gtest_filter=FingerprintGolden.FeatureProgramsStableAcrossProcesses"
      " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::set<std::pair<std::uint64_t, std::uint64_t>> reported;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    unsigned long long seed = 0, fp = 0;
    if (std::sscanf(line, "fingerprint %llu %llx", &seed, &fp) == 2) {
      reported.insert({seed, fp});
    }
  }
  ASSERT_EQ(pclose(pipe), 0);
  ASSERT_EQ(reported.size(), kSeeds.size());
  for (const std::uint64_t seed : kSeeds) {
    EXPECT_TRUE(reported.contains({seed, feature_fingerprint(seed)}))
        << "child re-hash of feature-enabled seed " << seed << " diverged";
  }
}

TEST(Generator, DefaultConfigNeverEmitsFeatureConstructs) {
  // The compatibility guarantee behind the gates: with every feature off
  // the draft stream contains none of the new constructs (and, per the
  // pinned goldens above, is bit-identical to the pre-feature stream).
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 80; ++s) {
    const auto prog = gen.generate("t", 7000 + s);
    const auto f = ast::analyze(prog);
    EXPECT_EQ(f.num_atomics, 0) << "seed " << 7000 + s;
    EXPECT_EQ(f.num_singles, 0) << "seed " << 7000 + s;
    EXPECT_EQ(f.num_masters, 0) << "seed " << 7000 + s;
    EXPECT_EQ(f.num_scheduled_loops, 0) << "seed " << 7000 + s;
  }
}

TEST(Generator, FeatureConstructsAppearValidateAndStayRaceFree) {
  const ProgramGenerator gen(feature_config());
  int atomics = 0, singles = 0, masters = 0, scheduled = 0;
  for (int s = 0; s < 150; ++s) {
    const auto prog = gen.generate("t", 8000 + s);
    EXPECT_NO_THROW(prog.validate()) << "seed " << 8000 + s;
    EXPECT_TRUE(analysis::analyze_races(prog).race_free()) << "seed " << 8000 + s;
    const auto f = ast::analyze(prog);
    atomics += f.num_atomics;
    singles += f.num_singles;
    masters += f.num_masters;
    scheduled += f.num_scheduled_loops;
  }
  // Each family must actually show up across the sweep — a gate that never
  // fires is indistinguishable from a broken one.
  EXPECT_GT(atomics, 0);
  EXPECT_GT(singles, 0);
  EXPECT_GT(masters, 0);
  EXPECT_GT(scheduled, 0);
}

TEST(Generator, GenerationIsIndependentOfCallOrder) {
  const ProgramGenerator gen(small_config());
  const auto direct = gen.generate("t", 77);
  (void)gen.generate("other", 5);
  const auto after = gen.generate("t", 77);
  EXPECT_EQ(direct.fingerprint(), after.fingerprint());
}

TEST(Generator, ProgramsValidate) {
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 100; ++s) {
    EXPECT_NO_THROW(gen.generate("t", 100 + s).validate());
  }
}

TEST(Generator, EveryProgramWritesComp) {
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 60; ++s) {
    const auto prog = gen.generate("t", 400 + s);
    bool writes_comp = false;
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind == Stmt::Kind::Assign && st.target.var == prog.comp() &&
          !st.target.is_array_element()) {
        writes_comp = true;
      }
    });
    EXPECT_TRUE(writes_comp) << "seed " << 400 + s;
  }
}

TEST(Generator, RespectsNumThreadsInClauses) {
  GeneratorConfig cfg = small_config();
  cfg.num_threads = 7;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", 500 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind == Stmt::Kind::OmpParallel) {
        EXPECT_EQ(st.clauses.num_threads, 7);
      }
    });
  }
}

TEST(Generator, LoopBoundsWithinConfiguredRange) {
  GeneratorConfig cfg = small_config();
  cfg.max_loop_trip_count = 50;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", 600 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind == Stmt::Kind::For &&
          st.loop_bound->kind() == Expr::Kind::IntConst) {
        EXPECT_GE(st.loop_bound->int_value(), 1);
        EXPECT_LE(st.loop_bound->int_value(), 50);
      }
    });
  }
}

TEST(Generator, ArraySubscriptConstantsInBounds) {
  GeneratorConfig cfg = small_config();
  cfg.array_size = 16;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", 700 + s);
    ast::walk_exprs(prog.body(), [&](const Expr& e) {
      if (e.kind() == Expr::Kind::ArrayRef &&
          e.index().kind() == Expr::Kind::IntConst) {
        EXPECT_GE(e.index().int_value(), 0);
        EXPECT_LT(e.index().int_value(), 16);
      }
      if (e.kind() == Expr::Kind::Binary && e.bin_op() == ast::BinOp::Mod) {
        EXPECT_EQ(e.rhs().kind(), Expr::Kind::IntConst);
        EXPECT_GT(e.rhs().int_value(), 0);  // never modulo by zero
      }
    });
  }
}

TEST(Generator, NoMathCallsWhenDisallowed) {
  GeneratorConfig cfg = small_config();
  cfg.math_func_allowed = false;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", 800 + s);
    EXPECT_EQ(ast::analyze(prog).num_math_calls, 0);
  }
}

TEST(Generator, MathProbabilityOneProducesCalls) {
  GeneratorConfig cfg = small_config();
  cfg.math_func_probability = 1.0;
  const ProgramGenerator gen(cfg);
  int with_math = 0;
  for (int s = 0; s < 20; ++s) {
    with_math += (ast::analyze(gen.generate("t", 900 + s)).num_math_calls > 0);
  }
  EXPECT_EQ(with_math, 20);
}

TEST(Generator, PrivatesAreInitializedInPreamble) {
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 60; ++s) {
    const auto prog = gen.generate("t", 1000 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind != Stmt::Kind::OmpParallel) return;
      std::set<ast::VarId> assigned;
      for (const auto& inner : st.body.stmts) {
        if (inner->kind == Stmt::Kind::Assign &&
            !inner->target.is_array_element()) {
          assigned.insert(inner->target.var);
        }
        if (inner->kind == Stmt::Kind::For) break;
      }
      for (ast::VarId v : st.clauses.privates) {
        EXPECT_TRUE(assigned.contains(v))
            << "private " << prog.var(v).name << " not initialized, seed "
            << 1000 + s;
      }
    });
  }
}

TEST(Generator, ClausesNeverContainComp) {
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 60; ++s) {
    const auto prog = gen.generate("t", 1100 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind != Stmt::Kind::OmpParallel) return;
      for (ast::VarId v : st.clauses.privates) EXPECT_NE(v, prog.comp());
      for (ast::VarId v : st.clauses.firstprivates) EXPECT_NE(v, prog.comp());
    });
  }
}

TEST(Generator, PrivateAndFirstprivateAreDisjoint) {
  const ProgramGenerator gen(small_config());
  for (int s = 0; s < 60; ++s) {
    const auto prog = gen.generate("t", 1200 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& st) {
      if (st.kind != Stmt::Kind::OmpParallel) return;
      std::set<ast::VarId> privates(st.clauses.privates.begin(),
                                    st.clauses.privates.end());
      for (ast::VarId v : st.clauses.firstprivates) {
        EXPECT_FALSE(privates.contains(v));
      }
    });
  }
}

TEST(Generator, ReductionUpdatesUseMatchingOperator) {
  GeneratorConfig cfg = small_config();
  cfg.p_reduction = 1.0;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 60; ++s) {
    const auto prog = gen.generate("t", 1300 + s);
    ast::walk_stmts(prog.body(), [&](const Stmt& region) {
      if (region.kind != Stmt::Kind::OmpParallel) return;
      ASSERT_TRUE(region.clauses.reduction.has_value());
      const auto op = *region.clauses.reduction;
      ast::walk_stmts(region.body, [&](const Stmt& st) {
        if (st.kind == Stmt::Kind::Assign && st.target.var == prog.comp()) {
          if (op == ast::ReductionOp::Sum) {
            EXPECT_TRUE(st.assign_op == ast::AssignOp::AddAssign ||
                        st.assign_op == ast::AssignOp::SubAssign);
          } else {
            EXPECT_EQ(st.assign_op, ast::AssignOp::MulAssign);
          }
        }
      });
    });
  }
}

TEST(Generator, DepthScaledTripCountsLimitTotalIterations) {
  GeneratorConfig cfg = small_config();
  cfg.max_loop_trip_count = 100;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 30; ++s) {
    const auto prog = gen.generate("t", 1400 + s);
    // Walk loops tracking depth: a loop nested under d others must have a
    // static bound <= max / 3^d.
    std::function<void(const ast::Block&, int)> visit = [&](const ast::Block& b,
                                                            int loop_depth) {
      for (const auto& st : b.stmts) {
        switch (st->kind) {
          case Stmt::Kind::For: {
            if (st->loop_bound->kind() == Expr::Kind::IntConst) {
              std::int64_t cap = 100;
              for (int d = 0; d < loop_depth; ++d) cap /= 3;
              cap = std::max<std::int64_t>(cap, 2);
              EXPECT_LE(st->loop_bound->int_value(), cap)
                  << "depth " << loop_depth << " seed " << 1400 + s;
            }
            visit(st->body, loop_depth + 1);
            break;
          }
          case Stmt::Kind::If:
          case Stmt::Kind::OmpParallel:
          case Stmt::Kind::OmpCritical:
            visit(st->body, loop_depth);
            break;
          default:
            break;
        }
      }
    };
    visit(prog.body(), 0);
  }
}

// Property sweep: race freedom and validity across many seeds and configs.
class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, RaceFreeAndValid) {
  GeneratorConfig cfg = small_config();
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 50; ++s) {
    const auto prog = gen.generate("t", GetParam() * 10000 + s);
    const auto report = analysis::analyze_races(prog);
    EXPECT_TRUE(report.race_free())
        << "seed " << GetParam() * 10000 + s << ": "
        << to_string(report.findings[0].kind) << " on "
        << report.findings[0].variable;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, GeneratorProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ompfuzz::core
