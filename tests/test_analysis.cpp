// Tests for the MHP-based static race analysis subsystem (src/analysis/):
//
//   * unit tests for the phase model, subscript classification, the
//     dependence test's disjointness rules, and definite assignment;
//   * a parity sweep pinning the new analyzer's verdict to the retired
//     pattern-rule checker (analysis/rules_reference.hpp) over the exact
//     draft streams the campaigns generate — verdict changes would shift
//     every downstream program stream and break the CI gates keyed to
//     seed 51966;
//   * the differential self-validation sweep: thousands of generated
//     programs plus race-seeded mutants, each executed under the
//     interpreter's shared-access trace. A statically race-free program
//     with a dynamic conflicting pair is unsoundness and fails hard.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <vector>

#include "analysis/access_set.hpp"
#include "analysis/differential.hpp"
#include "analysis/phase_model.hpp"
#include "analysis/race_analyzer.hpp"
#include "analysis/reaching_defs.hpp"
#include "analysis/rules_reference.hpp"
#include "core/generator.hpp"
#include "support/rng.hpp"

namespace ompfuzz::analysis {
namespace {

using ast::AssignOp;
using ast::BinOp;
using ast::Block;
using ast::Expr;
using ast::FpWidth;
using ast::LValue;
using ast::OmpClauses;
using ast::Program;
using ast::ReductionOp;
using ast::Stmt;
using ast::StmtPtr;
using ast::VarId;
using ast::VarKind;
using ast::VarRole;

// ---------------------------------------------------------------------------
// Phase model
// ---------------------------------------------------------------------------

TEST(PhaseModel, MayHappenInParallelRules) {
  // Same phase, no common mutex: can overlap.
  EXPECT_TRUE(may_happen_in_parallel(0, 0, 0, 0));
  // Different phases are separated by a guaranteed barrier.
  EXPECT_FALSE(may_happen_in_parallel(0, 0, 1, 0));
  // A shared mutex bit serializes accesses within one phase.
  EXPECT_FALSE(may_happen_in_parallel(2, kMutexCritical, 2, kMutexCritical));
  // One side holding the lock does not protect the other side.
  EXPECT_TRUE(may_happen_in_parallel(2, kMutexCritical, 2, 0));
  // Disjoint mutex sets do not exclude each other.
  EXPECT_TRUE(may_happen_in_parallel(1, kMutexCritical, 1, kMutexMaster));
}

struct PhaseFixture {
  Program prog;
  VarId x, i, j;

  PhaseFixture() {
    x = prog.add_var({"var_1", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    j = prog.add_var({"i_2", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(x);
  }

  StmtPtr assign_x() {
    return Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(1.0));
  }
};

TEST(PhaseModel, TopLevelOmpForBarriersSplitPhases) {
  PhaseFixture f;
  Block region;
  region.stmts.push_back(f.assign_x());  // phase 0
  Block l1;
  l1.stmts.push_back(f.assign_x());
  region.stmts.push_back(Stmt::for_loop(f.i, Expr::int_const(4), std::move(l1),
                                        /*omp_for=*/true));  // barrier
  Block l2;
  l2.stmts.push_back(f.assign_x());
  region.stmts.push_back(Stmt::for_loop(f.j, Expr::int_const(4), std::move(l2),
                                        /*omp_for=*/true));  // barrier
  region.stmts.push_back(f.assign_x());  // phase 2
  f.prog.body().stmts.push_back(Stmt::omp_parallel({}, std::move(region)));

  const auto regions = collect_regions(f.prog.body());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(count_phases(*regions[0]), 3u);

  // The access-set walk must place the accesses accordingly: preamble and
  // first loop body in phase 0, second loop body in phase 1, tail in 2.
  const auto set = collect_accesses(f.prog, *regions[0]);
  ASSERT_EQ(set.num_phases, 3u);
  const auto& xs = set.accesses.at(f.x);
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_EQ(xs[0].phase, 0u);
  EXPECT_EQ(xs[1].phase, 0u);
  EXPECT_EQ(xs[2].phase, 1u);
  EXPECT_EQ(xs[3].phase, 2u);
}

TEST(PhaseModel, NestedOmpForIsNotAGuaranteedBarrier) {
  PhaseFixture f;
  // omp-for under a serial loop: its barrier is not guaranteed once per
  // region, so the phase must not advance.
  Block inner;
  inner.stmts.push_back(f.assign_x());
  Block outer;
  outer.stmts.push_back(Stmt::for_loop(f.j, Expr::int_const(2), std::move(inner),
                                       /*omp_for=*/true));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(2), std::move(outer), /*omp_for=*/false));
  region.stmts.push_back(f.assign_x());
  f.prog.body().stmts.push_back(Stmt::omp_parallel({}, std::move(region)));

  const auto regions = collect_regions(f.prog.body());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(count_phases(*regions[0]), 1u);
  const auto set = collect_accesses(f.prog, *regions[0]);
  for (const auto& a : set.accesses.at(f.x)) EXPECT_EQ(a.phase, 0u);
}

TEST(PhaseModel, CollectRegionsFindsNestedRegionsInPreOrder) {
  PhaseFixture f;
  Block inner_region;
  inner_region.stmts.push_back(f.assign_x());
  Block loop;
  loop.stmts.push_back(Stmt::omp_parallel({}, std::move(inner_region)));
  f.prog.body().stmts.push_back(Stmt::omp_parallel({}, {}));
  f.prog.body().stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(2), std::move(loop), /*omp_for=*/false));

  const auto regions = collect_regions(f.prog.body());
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_TRUE(regions[0]->body.empty());
  EXPECT_EQ(regions[1]->body.size(), 1u);
}

// ---------------------------------------------------------------------------
// Subscript classification
// ---------------------------------------------------------------------------

class Subscripts : public ::testing::Test {
 protected:
  // VarIds are opaque here; classification only compares them against
  // ws_index and the varying set.
  static constexpr VarId kWs = 3;
  static constexpr VarId kSym = 7;      // loop-invariant symbolic value
  static constexpr VarId kVarying = 9;  // e.g. a private or written scalar
  const std::set<VarId> varying_{kVarying};
  const StmtPtr ws_loop_ = Stmt::for_loop(kWs, Expr::int_const(4), {}, true);

  SubscriptInfo classify(ast::ExprPtr e) const {
    return classify_subscript(*e, kWs, ws_loop_.get(), varying_);
  }
};

TEST_F(Subscripts, ThreadIdForms) {
  const auto plain = classify(Expr::thread_id());
  EXPECT_EQ(plain.cls, SubscriptClass::ThreadIdAffine);
  EXPECT_EQ(plain.coeff, 1);
  EXPECT_EQ(plain.offset, 0);

  // 2 * tid + 3
  const auto affine = classify(Expr::binary(
      BinOp::Add,
      Expr::binary(BinOp::Mul, Expr::int_const(2), Expr::thread_id()),
      Expr::int_const(3)));
  EXPECT_EQ(affine.cls, SubscriptClass::ThreadIdAffine);
  EXPECT_EQ(affine.coeff, 2);
  EXPECT_EQ(affine.offset, 3);

  // tid + n with n loop-invariant: still partitioned by thread.
  const auto sym = classify(
      Expr::binary(BinOp::Add, Expr::thread_id(), Expr::var(kSym)));
  EXPECT_EQ(sym.cls, SubscriptClass::ThreadIdAffine);
  EXPECT_EQ(sym.offset_sym, kSym);
}

TEST_F(Subscripts, WorksharedIndexForms) {
  const auto plain = classify(Expr::var(kWs));
  EXPECT_EQ(plain.cls, SubscriptClass::WorksharedAffine);
  EXPECT_EQ(plain.coeff, 1);
  EXPECT_EQ(plain.workshared_loop, ws_loop_.get());

  // i - 1
  const auto shifted = classify(
      Expr::binary(BinOp::Sub, Expr::var(kWs), Expr::int_const(1)));
  EXPECT_EQ(shifted.cls, SubscriptClass::WorksharedAffine);
  EXPECT_EQ(shifted.offset, -1);

  // Outside any omp-for the same variable is just a varying scalar.
  const auto outside =
      classify_subscript(*Expr::var(kWs), ast::kInvalidVar, nullptr, {kWs});
  EXPECT_EQ(outside.cls, SubscriptClass::Other);
}

TEST_F(Subscripts, LoopInvariantForms) {
  const auto constant = classify(Expr::int_const(7));
  EXPECT_EQ(constant.cls, SubscriptClass::LoopInvariant);
  EXPECT_TRUE(constant.has_const_value);
  EXPECT_EQ(constant.offset, 7);

  // Constant folding through div/mod.
  const auto folded = classify(
      Expr::binary(BinOp::Mod, Expr::int_const(6), Expr::int_const(4)));
  EXPECT_EQ(folded.cls, SubscriptClass::LoopInvariant);
  EXPECT_TRUE(folded.has_const_value);
  EXPECT_EQ(folded.offset, 2);

  // A symbolic invariant has no known value but is still uniform.
  const auto sym = classify(Expr::var(kSym));
  EXPECT_EQ(sym.cls, SubscriptClass::LoopInvariant);
  EXPECT_FALSE(sym.has_const_value);
  EXPECT_EQ(sym.offset_sym, kSym);
}

TEST_F(Subscripts, OtherForms) {
  // Thread-varying leaf.
  EXPECT_EQ(classify(Expr::var(kVarying)).cls, SubscriptClass::Other);
  // Two distinct bases.
  EXPECT_EQ(classify(Expr::binary(BinOp::Add, Expr::thread_id(),
                                  Expr::var(kWs)))
                .cls,
            SubscriptClass::Other);
  // Non-constant modulo loses linearity while keeping the tid leaf.
  EXPECT_EQ(classify(Expr::binary(BinOp::Mod, Expr::thread_id(),
                                  Expr::int_const(4)))
                .cls,
            SubscriptClass::Other);
  // Value loaded from shared memory.
  EXPECT_EQ(classify(Expr::array(1, Expr::int_const(0))).cls,
            SubscriptClass::Other);
  // Base cancelled by subtraction: tid - tid is uniform but the evaluator
  // keeps the Tid base at coefficient 0, which degrades to Other so it is
  // never declared disjoint from itself.
  EXPECT_EQ(classify(Expr::binary(BinOp::Sub, Expr::thread_id(),
                                  Expr::thread_id()))
                .cls,
            SubscriptClass::Other);
  // Multiplying the base by zero folds the whole form to the constant 0 —
  // a legitimate LoopInvariant (equal constants stay non-disjoint).
  const auto folded_zero = classify(
      Expr::binary(BinOp::Mul, Expr::int_const(0), Expr::thread_id()));
  EXPECT_EQ(folded_zero.cls, SubscriptClass::LoopInvariant);
  EXPECT_TRUE(folded_zero.has_const_value);
  EXPECT_EQ(folded_zero.offset, 0);
}

TEST_F(Subscripts, DisjointnessRules) {
  const auto tid = classify(Expr::thread_id());
  const auto tid_plus1 = classify(
      Expr::binary(BinOp::Add, Expr::thread_id(), Expr::int_const(1)));
  const auto ws = classify(Expr::var(kWs));
  const auto c3 = classify(Expr::int_const(3));
  const auto c5 = classify(Expr::int_const(5));
  const auto other = classify(Expr::var(kVarying));

  // Identical nonzero affine forms: distinct threads hit distinct slots.
  EXPECT_TRUE(provably_disjoint(tid, tid));
  EXPECT_TRUE(provably_disjoint(ws, ws));
  // Shifted copies can collide (a[t] vs a[t+1]).
  EXPECT_FALSE(provably_disjoint(tid, tid_plus1));
  // Cross-class pairs are never disjoint.
  EXPECT_FALSE(provably_disjoint(tid, ws));
  EXPECT_FALSE(provably_disjoint(tid, c3));
  // Distinct constants address distinct elements; equal ones do not.
  EXPECT_TRUE(provably_disjoint(c3, c5));
  EXPECT_FALSE(provably_disjoint(c3, c3));
  // Other is opaque, even against itself.
  EXPECT_FALSE(provably_disjoint(other, other));

  // Same affine form under *different* omp-for loops: the iteration splits
  // need not line up.
  auto ws_b = ws;
  ws_b.workshared_loop = reinterpret_cast<const Stmt*>(&ws_b);
  EXPECT_FALSE(provably_disjoint(ws, ws_b));
}

// ---------------------------------------------------------------------------
// Reaching definitions (definite assignment for privates)
// ---------------------------------------------------------------------------

struct UninitFixture {
  Program prog;
  VarId comp, p, i;

  UninitFixture() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    p = prog.add_var({"var_1", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(p);
  }

  std::vector<VarId> analyze(Block region_body) {
    OmpClauses clauses;
    clauses.privates.push_back(p);
    clauses.reduction = ReductionOp::Sum;
    prog.body().stmts.push_back(
        Stmt::omp_parallel(std::move(clauses), std::move(region_body)));
    const auto regions = collect_regions(prog.body());
    return find_uninitialized_privates(prog, *regions.back());
  }
};

TEST(ReachingDefs, PreambleAssignmentInitializes) {
  UninitFixture f;
  Block region;
  region.stmts.push_back(
      Stmt::assign(LValue{f.p, nullptr}, AssignOp::Assign, Expr::fp_const(1.0)));
  region.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                      Expr::var(f.p)));
  EXPECT_TRUE(f.analyze(std::move(region)).empty());
}

TEST(ReachingDefs, CompoundAssignmentReadsItsTarget) {
  UninitFixture f;
  Block region;
  // p += 1.0 reads p before the region ever assigned it.
  region.stmts.push_back(Stmt::assign(LValue{f.p, nullptr}, AssignOp::AddAssign,
                                      Expr::fp_const(1.0)));
  const auto uninit = f.analyze(std::move(region));
  ASSERT_EQ(uninit.size(), 1u);
  EXPECT_EQ(uninit[0], f.p);
}

TEST(ReachingDefs, AssignmentUnderIfIsNotDefinite) {
  UninitFixture f;
  Block then_block;
  then_block.stmts.push_back(
      Stmt::assign(LValue{f.p, nullptr}, AssignOp::Assign, Expr::fp_const(1.0)));
  Block region;
  region.stmts.push_back(Stmt::if_block({f.i, ast::BoolOp::Lt, Expr::int_const(2)},
                                        std::move(then_block)));
  region.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                      Expr::var(f.p)));
  const auto uninit = f.analyze(std::move(region));
  ASSERT_EQ(uninit.size(), 1u);
  EXPECT_EQ(uninit[0], f.p);
}

TEST(ReachingDefs, AssignmentInLoopIsNotDefiniteAfterIt) {
  UninitFixture f;
  Block loop;
  loop.stmts.push_back(
      Stmt::assign(LValue{f.p, nullptr}, AssignOp::Assign, Expr::fp_const(1.0)));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::var(f.p), std::move(loop), false));
  EXPECT_FALSE(f.analyze(std::move(region)).empty());
}

// ---------------------------------------------------------------------------
// Parity with the retired pattern-rule checker
// ---------------------------------------------------------------------------

// The campaigns regenerate drafts until analyze_races accepts one; a verdict
// flip on any draft shifts every later program in the stream and breaks the
// byte-exact CI gates (campaign_demo backend diff, reduce_demo seed 51966).
// Replay the exact derivation of make_test_case over the shipped configs and
// demand verdict agreement on every draft along the way.
void expect_draft_stream_parity(const GeneratorConfig& gcfg, std::uint64_t seed,
                                int num_programs) {
  const core::ProgramGenerator generator(gcfg);
  int drafts = 0;
  for (int p = 0; p < num_programs; ++p) {
    RandomEngine campaign_rng(seed);
    const std::uint64_t program_seed =
        campaign_rng.fork(static_cast<std::uint64_t>(p)).next_u64();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const ast::Program draft = generator.generate(
          "test_" + std::to_string(p), hash_combine(program_seed, attempt));
      const bool rules_free = check_races_rules(draft).race_free();
      const bool mhp_free = analyze_races(draft).race_free();
      ASSERT_EQ(rules_free, mhp_free)
          << "verdict flip on program " << p << " attempt " << attempt
          << " (seed " << seed << "): rules=" << rules_free
          << " mhp=" << mhp_free;
      ++drafts;
      if (mhp_free) break;
    }
  }
  ASSERT_GE(drafts, num_programs);
}

TEST(RulesParity, CampaignDemoDraftStream) {
  // campaign_demo's built-in config and the reduce_demo CLI both use the
  // generator defaults with max_loop_trip_count = 100 and seed 51966.
  GeneratorConfig gcfg;
  gcfg.max_loop_trip_count = 100;
  expect_draft_stream_parity(gcfg, 51966, 96);
}

TEST(RulesParity, DefaultConfigDraftStreams) {
  const GeneratorConfig gcfg;
  expect_draft_stream_parity(gcfg, 1, 32);
  expect_draft_stream_parity(gcfg, 0xfeedface, 32);
}

// ---------------------------------------------------------------------------
// Differential validation: static verdict vs dynamic access trace
// ---------------------------------------------------------------------------

// Applies `fn` to every statement (pre-order, mutable) in the block.
void for_each_stmt(Block& block, const std::function<void(Stmt&)>& fn) {
  for (auto& sp : block.stmts) {
    fn(*sp);
    for_each_stmt(sp->body, fn);
  }
}

enum class Mutation { SharePrivates, DropReduction, ConstIndex };

// Seeds a race into `prog` through its public AST; returns false when the
// program has no site the mutation applies to.
bool apply_mutation(ast::Program& prog, Mutation m) {
  bool applied = false;
  switch (m) {
    case Mutation::SharePrivates:
      // Un-privatize: the region preamble now writes shared scalars.
      for_each_stmt(prog.body(), [&](Stmt& s) {
        if (s.kind == Stmt::Kind::OmpParallel && !s.clauses.privates.empty()) {
          s.clauses.privates.clear();
          applied = true;
        }
      });
      break;
    case Mutation::DropReduction:
      // comp keeps accumulating, now into the shared copy. Only regions
      // with an *uncritical* comp write qualify: updates that all sit in
      // criticals stay mutually excluded without the clause.
      for_each_stmt(prog.body(), [&](Stmt& s) {
        if (s.kind != Stmt::Kind::OmpParallel || !s.clauses.reduction) return;
        bool comp_written = false;
        std::function<void(const Block&, bool)> scan = [&](const Block& block,
                                                           bool in_critical) {
          for (const auto& sp : block.stmts) {
            if (!in_critical && sp->kind == Stmt::Kind::Assign &&
                sp->target.var == prog.comp()) {
              comp_written = true;
            }
            scan(sp->body,
                 in_critical || sp->kind == Stmt::Kind::OmpCritical);
          }
        };
        scan(s.body, false);
        if (comp_written) {
          s.clauses.reduction.reset();
          applied = true;
        }
      });
      break;
    case Mutation::ConstIndex: {
      // Collapse one partitioned array write onto element 0. Only
      // uncritical writes qualify: a critical one stays mutually excluded.
      std::function<void(Block&, bool, bool)> walk = [&](Block& block,
                                                         bool in_region,
                                                         bool in_critical) {
        for (auto& sp : block.stmts) {
          Stmt& s = *sp;
          if (!applied && in_region && !in_critical &&
              s.kind == Stmt::Kind::Assign && s.target.is_array_element()) {
            s.target.index = Expr::int_const(0);
            applied = true;
          }
          walk(s.body, in_region || s.kind == Stmt::Kind::OmpParallel,
               in_critical || s.kind == Stmt::Kind::OmpCritical);
        }
      };
      walk(prog.body(), false, false);
      break;
    }
  }
  return applied;
}

RaceKind expected_kind(Mutation m) {
  switch (m) {
    case Mutation::SharePrivates: return RaceKind::SharedScalarWrite;
    case Mutation::DropReduction: return RaceKind::CompUnprotected;
    case Mutation::ConstIndex: return RaceKind::ArrayUnsafeWrite;
  }
  return RaceKind::CompUnprotected;
}

bool has_kind(const RaceReport& report, RaceKind kind) {
  for (const auto& f : report.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

// The headline acceptance gate: > 2,000 fixed-seed programs — raw generator
// drafts plus race-seeded mutants — with zero unsound verdicts. The same
// sweep runs in CI via --gtest_filter=*DifferentialSweep*.
TEST(Differential, DifferentialSweepHasNoUnsoundVerdicts) {
  GeneratorConfig gcfg;
  gcfg.array_size = 64;
  gcfg.max_loop_trip_count = 12;  // inputs cap param trips at 16 already
  const core::ProgramGenerator generator(gcfg);
  const DifferentialOptions options;

  DifferentialStats drafts;
  for (int n = 0; n < 1700; ++n) {
    const ast::Program prog = generator.generate(
        "sweep_" + std::to_string(n), hash_combine(0xd1ff, n));
    validate_program(prog, options, drafts);
  }

  // Mutants: every applicable mutation must (a) be caught statically with
  // the expected kind and (b) be confirmed by at least one dynamic
  // conflict somewhere in the sweep — proof the trace actually sees the
  // races the analyzer reports.
  DifferentialStats mutant_stats;
  std::uint64_t total = drafts.programs;
  for (const Mutation m :
       {Mutation::SharePrivates, Mutation::DropReduction, Mutation::ConstIndex}) {
    DifferentialStats per_kind;
    int applied = 0;
    for (int n = 0; n < 400 && applied < 150; ++n) {
      ast::Program prog = generator.generate(
          "mutant_" + std::to_string(n), hash_combine(0x5eed, n));
      if (!apply_mutation(prog, m)) continue;
      ++applied;
      const RaceReport report = analyze_races(prog);
      ASSERT_FALSE(report.race_free())
          << "mutant " << n << " escaped the analyzer";
      EXPECT_TRUE(has_kind(report, expected_kind(m)))
          << "mutant " << n << " missing kind "
          << to_string(expected_kind(m));
      validate_program(prog, options, per_kind);
    }
    ASSERT_GE(applied, 25) << "mutation produced too few applicable programs";
    EXPECT_EQ(per_kind.unsound, 0u);
    EXPECT_GE(per_kind.confirmed_racy, 1u)
        << "no dynamic confirmation for " << to_string(expected_kind(m));
    total += per_kind.programs;
    mutant_stats.programs += per_kind.programs;
    mutant_stats.static_racy += per_kind.static_racy;
    mutant_stats.confirmed_racy += per_kind.confirmed_racy;
    mutant_stats.unsound += per_kind.unsound;
    mutant_stats.skipped_runs += per_kind.skipped_runs;
  }

  ASSERT_GE(total, 2000u);
  EXPECT_EQ(drafts.unsound, 0u);
  EXPECT_EQ(mutant_stats.unsound, 0u);
  for (const auto& example : drafts.unsound_examples) {
    ADD_FAILURE() << "unsound: " << example;
  }
  for (const auto& example : mutant_stats.unsound_examples) {
    ADD_FAILURE() << "unsound mutant: " << example;
  }

  // Precision is informational (dynamic confirmation depends on the drawn
  // inputs), but a collapse to zero would mean the trace sees nothing.
  std::printf(
      "[differential] %llu programs (%llu drafts, %llu mutants), "
      "static racy %llu, confirmed %llu, precision %.2f / %.2f, "
      "skipped runs %llu\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(drafts.programs),
      static_cast<unsigned long long>(mutant_stats.programs),
      static_cast<unsigned long long>(drafts.static_racy +
                                      mutant_stats.static_racy),
      static_cast<unsigned long long>(drafts.confirmed_racy +
                                      mutant_stats.confirmed_racy),
      drafts.precision(), mutant_stats.precision(),
      static_cast<unsigned long long>(drafts.skipped_runs +
                                      mutant_stats.skipped_runs));
  EXPECT_GT(mutant_stats.precision(), 0.0);
}

// ---------------------------------------------------------------------------
// Feature-enabled differential sweep: atomics, single/master, schedule
// ---------------------------------------------------------------------------

enum class FeatureMutation {
  DemoteAtomic,         // "#pragma omp atomic" scalar update -> plain assign
  DropSingle,           // splice a single block's body into the region
  DropMaster,           // splice a master block's body into the region
  ConstIndexScheduled,  // collapse a scheduled omp-for array write onto [0]
};

GeneratorConfig feature_sweep_config() {
  GeneratorConfig gcfg;
  gcfg.array_size = 64;
  gcfg.max_loop_trip_count = 12;
  gcfg.enable_atomic = true;
  gcfg.enable_single = true;
  gcfg.enable_master = true;
  gcfg.enable_schedule = true;
  return gcfg;
}

// Replaces the first single/master statement of `kind` with its own body,
// exposing the block's exclusive writes to every thread.
bool unwrap_first(Block& block, Stmt::Kind kind) {
  for (std::size_t idx = 0; idx < block.stmts.size(); ++idx) {
    if (block.stmts[idx]->kind == kind) {
      Block body = std::move(block.stmts[idx]->body);
      block.stmts.erase(block.stmts.begin() +
                        static_cast<std::ptrdiff_t>(idx));
      for (std::size_t k = 0; k < body.stmts.size(); ++k) {
        block.stmts.insert(
            block.stmts.begin() + static_cast<std::ptrdiff_t>(idx + k),
            std::move(body.stmts[k]));
      }
      return true;
    }
    if (unwrap_first(block.stmts[idx]->body, kind)) return true;
  }
  return false;
}

bool apply_feature_mutation(ast::Program& prog, FeatureMutation m) {
  bool applied = false;
  switch (m) {
    case FeatureMutation::DemoteAtomic: {
      // Only uncritical scalar targets qualify: a critical-protected atomic
      // stays mutually excluded after demotion, and a tid-partitioned array
      // update may stay disjoint.
      std::function<void(Block&, bool)> walk = [&](Block& block,
                                                   bool in_critical) {
        for (auto& sp : block.stmts) {
          Stmt& s = *sp;
          if (!applied && !in_critical && s.kind == Stmt::Kind::OmpAtomic &&
              !s.target.is_array_element()) {
            s.kind = Stmt::Kind::Assign;
            applied = true;
          }
          walk(s.body, in_critical || s.kind == Stmt::Kind::OmpCritical);
        }
      };
      walk(prog.body(), false);
      break;
    }
    case FeatureMutation::DropSingle:
      applied = unwrap_first(prog.body(), Stmt::Kind::OmpSingle);
      break;
    case FeatureMutation::DropMaster:
      applied = unwrap_first(prog.body(), Stmt::Kind::OmpMaster);
      break;
    case FeatureMutation::ConstIndexScheduled: {
      std::function<void(Block&, bool, bool)> walk =
          [&](Block& block, bool in_scheduled, bool in_critical) {
            for (auto& sp : block.stmts) {
              Stmt& s = *sp;
              if (!applied && in_scheduled && !in_critical &&
                  s.kind == Stmt::Kind::Assign && s.target.is_array_element()) {
                s.target.index = Expr::int_const(0);
                applied = true;
              }
              const bool scheduled =
                  in_scheduled ||
                  (s.kind == Stmt::Kind::For && s.omp_for &&
                   s.schedule != ast::ScheduleKind::None);
              walk(s.body, scheduled,
                   in_critical || s.kind == Stmt::Kind::OmpCritical);
            }
          };
      walk(prog.body(), false, false);
      break;
    }
  }
  return applied;
}

const char* feature_mutation_name(FeatureMutation m) {
  switch (m) {
    case FeatureMutation::DemoteAtomic: return "demote-atomic";
    case FeatureMutation::DropSingle: return "drop-single";
    case FeatureMutation::DropMaster: return "drop-master";
    case FeatureMutation::ConstIndexScheduled: return "const-index-scheduled";
  }
  return "?";
}

// The feature-gate acceptance sweep (CI: --gtest_filter=*FeatureSweep*):
// >= 1,000 programs generated with every gate enabled must validate with zero
// unsound verdicts, every construct family must actually appear in the
// stream, and each construct-targeted mutation must be caught statically and
// confirmed dynamically at least once.
TEST(Differential, FeatureSweepHasNoUnsoundVerdicts) {
  const GeneratorConfig gcfg = feature_sweep_config();
  const core::ProgramGenerator generator(gcfg);
  const DifferentialOptions options;

  DifferentialStats drafts;
  ast::ProgramFeatures seen{};
  for (int n = 0; n < 1100; ++n) {
    const ast::Program prog = generator.generate(
        "fsweep_" + std::to_string(n), hash_combine(0xfea7, n));
    const auto features = ast::analyze(prog);
    seen.num_atomics += features.num_atomics;
    seen.num_singles += features.num_singles;
    seen.num_masters += features.num_masters;
    seen.num_scheduled_loops += features.num_scheduled_loops;
    validate_program(prog, options, drafts);
  }
  ASSERT_GE(drafts.programs, 1000u);
  EXPECT_EQ(drafts.unsound, 0u);
  // Every family must be represented, or the sweep validates nothing.
  EXPECT_GT(seen.num_atomics, 0u);
  EXPECT_GT(seen.num_singles, 0u);
  EXPECT_GT(seen.num_masters, 0u);
  EXPECT_GT(seen.num_scheduled_loops, 0u);

  std::uint64_t atomic_mixed_reports = 0;
  for (const FeatureMutation m :
       {FeatureMutation::DemoteAtomic, FeatureMutation::DropSingle,
        FeatureMutation::DropMaster, FeatureMutation::ConstIndexScheduled}) {
    DifferentialStats per_kind;
    int applied = 0;
    for (int n = 0; n < 400 && applied < 60; ++n) {
      ast::Program prog = generator.generate(
          "fmutant_" + std::to_string(n), hash_combine(0xfee1, n));
      if (!apply_feature_mutation(prog, m)) continue;
      ++applied;
      const RaceReport report = analyze_races(prog);
      ASSERT_FALSE(report.race_free())
          << feature_mutation_name(m) << " mutant " << n
          << " escaped the analyzer";
      if (has_kind(report, RaceKind::AtomicMixedAccess)) {
        ++atomic_mixed_reports;
      }
      switch (m) {
        case FeatureMutation::DropSingle:
        case FeatureMutation::DropMaster:
          EXPECT_TRUE(has_kind(report, RaceKind::SharedScalarWrite))
              << feature_mutation_name(m) << " mutant " << n;
          break;
        case FeatureMutation::ConstIndexScheduled:
          EXPECT_TRUE(has_kind(report, RaceKind::ArrayUnsafeWrite))
              << feature_mutation_name(m) << " mutant " << n;
          break;
        case FeatureMutation::DemoteAtomic:
          break;  // kind depends on whether sibling atomics remain
      }
      validate_program(prog, options, per_kind);
    }
    ASSERT_GE(applied, 25)
        << feature_mutation_name(m) << " produced too few applicable programs";
    EXPECT_EQ(per_kind.unsound, 0u) << feature_mutation_name(m);
    EXPECT_GE(per_kind.confirmed_racy, 1u)
        << "no dynamic confirmation for " << feature_mutation_name(m);
    for (const auto& example : per_kind.unsound_examples) {
      ADD_FAILURE() << "unsound " << feature_mutation_name(m) << " mutant: "
                    << example;
    }
    std::printf("[feature-sweep] %s: %d applied, confirmed %llu\n",
                feature_mutation_name(m), applied,
                static_cast<unsigned long long>(per_kind.confirmed_racy));
  }
  // A demoted atomic next to surviving sibling atomics must classify as the
  // new mixed-access kind somewhere in the sweep.
  EXPECT_GE(atomic_mixed_reports, 1u);
  for (const auto& example : drafts.unsound_examples) {
    ADD_FAILURE() << "unsound feature draft: " << example;
  }
}

// A race-free-by-construction campaign program must validate clean and
// produce no dynamic conflicts — the focused version of the sweep above.
TEST(Differential, AcceptedCampaignProgramsStayClean) {
  GeneratorConfig gcfg;
  gcfg.max_loop_trip_count = 16;
  const core::ProgramGenerator generator(gcfg);
  const DifferentialOptions options;
  DifferentialStats stats;
  int accepted = 0;
  for (int n = 0; n < 400 && accepted < 60; ++n) {
    const ast::Program prog = generator.generate(
        "clean_" + std::to_string(n), hash_combine(0xc1ea, n));
    if (!analyze_races(prog).race_free()) continue;
    ++accepted;
    const bool dynamic_racy = validate_program(prog, options, stats);
    EXPECT_FALSE(dynamic_racy);
  }
  ASSERT_GE(accepted, 60);
  EXPECT_EQ(stats.unsound, 0u);
  EXPECT_EQ(stats.static_racy, 0u);
}

}  // namespace
}  // namespace ompfuzz::analysis
