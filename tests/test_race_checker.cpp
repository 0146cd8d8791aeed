// Tests for the static data-race analyzer: it must flag each hand-built racy
// pattern and accept each safe pattern of Section III-G.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race_analyzer.hpp"
#include "harness/campaign.hpp"

namespace ompfuzz::core {
namespace {

using analysis::analyze_races;
using analysis::RaceKind;

using ast::AssignOp;
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

struct Fixture {
  Program prog;
  VarId comp, shared_x, arr, i;

  Fixture() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    shared_x =
        prog.add_var({"var_1", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    arr = prog.add_var({"var_2", VarKind::FpArray, VarRole::Param, FpWidth::F64, 64});
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(shared_x);
    prog.add_param(arr);
  }

  /// Wraps `loop_body` in "parallel { x-init; for(...) { loop_body } }".
  void add_region(Block loop_body, OmpClauses clauses = {}, bool omp_for = true) {
    Block region;
    region.stmts.push_back(Stmt::assign(LValue{shared_x, nullptr}, AssignOp::Assign,
                                        Expr::fp_const(0.0)));
    // Only privatized x may be initialized like this; callers that keep x
    // shared pass their own clauses where x is private... for the racy-write
    // tests this very statement is the race under test.
    region.stmts.push_back(
        Stmt::for_loop(i, Expr::int_const(8), std::move(loop_body), omp_for));
    prog.body().stmts.push_back(
        Stmt::omp_parallel(std::move(clauses), std::move(region)));
  }

  bool has(RaceKind kind) {
    const auto report = analyze_races(prog);
    for (const auto& f : report.findings) {
      if (f.kind == kind) return true;
    }
    return false;
  }
};

TEST(RaceChecker, SharedScalarWriteOutsideCriticalIsRace) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  f.add_region(std::move(loop));  // x stays shared: preamble write races too
  EXPECT_TRUE(f.has(RaceKind::SharedScalarWrite));
}

TEST(RaceChecker, PrivatizedScalarWriteIsSafe) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, CompUnprotectedWithoutReduction) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::CompUnprotected));
}

TEST(RaceChecker, CompWithReductionIsSafe) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  clauses.reduction = ReductionOp::Sum;
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, CompInsideCriticalIsSafe) {
  Fixture f;
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, CriticalWriteWithUncriticalReadIsRace) {
  Fixture f;
  // y written in critical but read outside: mixed access.
  const VarId y =
      f.prog.add_var({"var_9", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
  f.prog.add_param(y);
  Block crit;
  crit.stmts.push_back(
      Stmt::assign(LValue{y, nullptr}, AssignOp::AddAssign, Expr::fp_const(1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  // Uncritical read of y feeding a private.
  Block region_loop;
  for (auto& s : loop.stmts) region_loop.stmts.push_back(std::move(s));
  region_loop.stmts.push_back(
      Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign, Expr::var(y)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(region_loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::SharedScalarMixed));
}

TEST(RaceChecker, ThreadIdIndexedArrayWriteIsSafe) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, OmpForIndexedArrayWriteIsSafe) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::var(f.i)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses), /*omp_for=*/true);
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, LoopIndexedWriteInSerialRegionLoopIsRace) {
  Fixture f;
  // Same write, but the region loop is NOT work-shared: every thread writes
  // every element.
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::var(f.i)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses), /*omp_for=*/false);
  EXPECT_TRUE(f.has(RaceKind::ArrayUnsafeWrite));
}

TEST(RaceChecker, ConstantIndexedArrayWriteIsRace) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::int_const(3)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::ArrayUnsafeWrite));
}

TEST(RaceChecker, MixedArraySubscriptDisciplineIsRace) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  // Read with a different discipline: the omp-for index.
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign,
                                    Expr::array(f.arr, Expr::var(f.i))));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::ArrayMixedAccess));
}

TEST(RaceChecker, ReadOnlyArrayAnySubscriptIsSafe) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(
      LValue{f.shared_x, nullptr}, AssignOp::Assign,
      Expr::array(f.arr, Expr::binary(ast::BinOp::Mod, Expr::var(f.i),
                                      Expr::int_const(64)))));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, UninitializedPrivateReadFlagged) {
  Fixture f;
  // Region whose loop reads private x before any assignment.
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(f.shared_x)));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop), true));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  clauses.reduction = ReductionOp::Sum;
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_TRUE(f.has(RaceKind::UninitializedPrivate));
}

TEST(RaceChecker, FirstprivateReadIsInitialized) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(f.shared_x)));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop), true));
  OmpClauses clauses;
  clauses.firstprivates.push_back(f.shared_x);
  clauses.reduction = ReductionOp::Sum;
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, SerialCodeIsNeverFlagged) {
  Fixture f;
  f.prog.body().stmts.push_back(Stmt::assign(
      LValue{f.shared_x, nullptr}, AssignOp::AddAssign, Expr::var(f.comp)));
  f.prog.body().stmts.push_back(Stmt::assign(
      LValue{f.arr, Expr::int_const(5)}, AssignOp::Assign, Expr::var(f.shared_x)));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, RegionLocalDeclIsThreadPrivate) {
  Fixture f;
  const VarId tmp =
      f.prog.add_var({"var_8", VarKind::FpScalar, VarRole::Temp, FpWidth::F64, 0});
  Block loop;
  loop.stmts.push_back(Stmt::decl(tmp, Expr::fp_const(2.0)));
  loop.stmts.push_back(Stmt::assign(LValue{tmp, nullptr}, AssignOp::MulAssign,
                                    Expr::fp_const(3.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

// ---------------------------------------------------------------------------
// Golden-finding corpus: one minimal program per RaceKind, pinned to the
// exact (kind, variable) findings in their deterministic order. Any analyzer
// change that alters a verdict, a variable attribution, or the ordering
// contract (uninitialized first, then scalars by VarId, then arrays) fails
// here before it can shift a campaign's program stream.
// ---------------------------------------------------------------------------

using KindVar = std::pair<RaceKind, std::string>;

std::vector<KindVar> finding_pairs(const Program& prog) {
  std::vector<KindVar> out;
  for (const auto& f : analyze_races(prog).findings) {
    out.emplace_back(f.kind, f.variable);
  }
  return out;
}

TEST(GoldenCorpus, CompUnprotected) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::CompUnprotected, "comp"}}));
}

TEST(GoldenCorpus, SharedScalarWrite) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr},
                                    AssignOp::AddAssign, Expr::fp_const(1.0)));
  f.add_region(std::move(loop));  // x stays shared: preamble write races too
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::SharedScalarWrite, "var_1"}}));
}

TEST(GoldenCorpus, SharedScalarMixed) {
  Fixture f;
  const VarId y =
      f.prog.add_var({"var_9", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
  f.prog.add_param(y);
  Block crit;
  crit.stmts.push_back(
      Stmt::assign(LValue{y, nullptr}, AssignOp::AddAssign, Expr::fp_const(1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  loop.stmts.push_back(
      Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign, Expr::var(y)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::SharedScalarMixed, "var_9"}}));
}

TEST(GoldenCorpus, ArrayUnsafeWrite) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::int_const(3)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::ArrayUnsafeWrite, "var_2"}}));
}

TEST(GoldenCorpus, ArrayMixedAccess) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign,
                                    Expr::array(f.arr, Expr::var(f.i))));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::ArrayMixedAccess, "var_2"}}));
}

TEST(GoldenCorpus, UninitializedPrivate) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(f.shared_x)));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop), true));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  clauses.reduction = ReductionOp::Sum;
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::UninitializedPrivate, "var_1"}}));
}

TEST(GoldenCorpus, FindingOrderIsUninitThenScalarsThenArrays) {
  Fixture f;
  // One region racing on comp (VarId 0), shared_x (VarId 1), and the array
  // (VarId 2): scalars come first in VarId order, then the array.
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(f.shared_x)));
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::int_const(3)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  f.add_region(std::move(loop));  // shared_x stays shared: preamble write races
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::CompUnprotected, "comp"},
                                  {RaceKind::SharedScalarWrite, "var_1"},
                                  {RaceKind::ArrayUnsafeWrite, "var_2"}}));
}

// The campaign's race filter folds every draft it analyses into the report's
// static_analysis block. Generated streams rarely produce a racy draft, so
// the filtered-draft tally is pinned here on the three-kind racy program
// above, next to a clean draft and one only interval analysis proves clean.
TEST(GoldenCorpus, FilteredDraftFoldsIntoCampaignAccounting) {
  Fixture racy;
  Block racy_loop;
  racy_loop.stmts.push_back(Stmt::assign(LValue{racy.comp, nullptr},
                                         AssignOp::AddAssign, Expr::var(racy.shared_x)));
  racy_loop.stmts.push_back(Stmt::assign(LValue{racy.arr, Expr::int_const(3)},
                                         AssignOp::Assign, Expr::fp_const(1.0)));
  racy.add_region(std::move(racy_loop));

  Fixture clean;
  Block clean_loop;
  clean_loop.stmts.push_back(Stmt::assign(LValue{clean.arr, Expr::var(clean.i)},
                                          AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates.push_back(clean.shared_x);
  clean.add_region(std::move(clean_loop), std::move(clauses));

  // arr[i % 64] with i in [0, 8): affine-only gives up on the `%`, while
  // intervals strip it and see the omp-for index.
  Fixture ranged;
  Block ranged_loop;
  ranged_loop.stmts.push_back(Stmt::assign(
      LValue{ranged.arr,
             Expr::binary(ast::BinOp::Mod, Expr::var(ranged.i), Expr::int_const(64))},
      AssignOp::Assign, Expr::fp_const(1.0)));
  OmpClauses ranged_clauses;
  ranged_clauses.privates.push_back(ranged.shared_x);
  ranged.add_region(std::move(ranged_loop), std::move(ranged_clauses));
  ASSERT_FALSE(analyze_races(ranged.prog, {.use_intervals = false}).race_free());

  harness::StaticAnalysisStats program;
  for (const Program* draft : {&racy.prog, &clean.prog, &ranged.prog}) {
    analysis::AnalyzerStats precision;
    const auto report = analyze_races(*draft, {}, &precision);
    program.add_draft(*draft, report, precision);
  }
  std::array<int, analysis::kNumRaceKinds> findings{};
  findings[static_cast<int>(RaceKind::CompUnprotected)] = 1;
  findings[static_cast<int>(RaceKind::SharedScalarWrite)] = 1;
  findings[static_cast<int>(RaceKind::ArrayUnsafeWrite)] = 1;
  EXPECT_EQ(program.programs_checked, 3);
  EXPECT_EQ(program.programs_filtered, 1);
  EXPECT_EQ(program.findings_by_kind, findings);
  EXPECT_EQ(program.interval_rescued_drafts, 1);
  EXPECT_EQ(program.interval_mod_rewrites, 1u);

  // The merge sums one accounting per program.
  harness::StaticAnalysisStats campaign;
  campaign += program;
  campaign += program;
  EXPECT_EQ(campaign.programs_checked, 6);
  EXPECT_EQ(campaign.programs_filtered, 2);
  for (int& n : findings) n *= 2;
  EXPECT_EQ(campaign.findings_by_kind, findings);
  EXPECT_EQ(campaign.interval_rescued_drafts, 2);
  EXPECT_EQ(campaign.interval_mod_rewrites, 2u);
  EXPECT_EQ(campaign.interval_disjoint_pairs, 2 * program.interval_disjoint_pairs);
}

TEST(GoldenCorpus, UninitializedFindingsLeadTheRegionReport) {
  Fixture f;
  const VarId p =
      f.prog.add_var({"var_9", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
  f.prog.add_param(p);
  Block loop;
  loop.stmts.push_back(
      Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign, Expr::var(p)));
  Block region;
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop), true));
  OmpClauses clauses;
  clauses.privates.push_back(p);  // read before assignment
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::UninitializedPrivate, "var_9"},
                                  {RaceKind::CompUnprotected, "comp"}}));
}

// ---------------------------------------------------------------------------
// Feature constructs: atomics, single/master blocks, schedule clauses. The
// analyzer must model their real semantics — atomic-vs-atomic race-free,
// atomic-vs-plain racy, one single block exclusive but two different singles
// concurrent, master always thread 0, schedule irrelevant to the iteration
// partition argument.
// ---------------------------------------------------------------------------

VarId add_shared_fp(Program& prog, const char* name) {
  const VarId v =
      prog.add_var({name, VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
  prog.add_param(v);
  return v;
}

TEST(RaceChecker, AtomicUpdatesOnSameScalarAreSafe) {
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  Block loop;
  loop.stmts.push_back(Stmt::omp_atomic(LValue{y, nullptr}, AssignOp::AddAssign,
                                        Expr::fp_const(1.0)));
  loop.stmts.push_back(Stmt::omp_atomic(LValue{y, nullptr}, AssignOp::MulAssign,
                                        Expr::fp_const(2.0)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, AtomicVsPlainReadIsRace) {
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  Block loop;
  loop.stmts.push_back(Stmt::omp_atomic(LValue{y, nullptr}, AssignOp::AddAssign,
                                        Expr::fp_const(1.0)));
  // Plain read of y into a private: not ordered against the atomic RMW.
  loop.stmts.push_back(
      Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign, Expr::var(y)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::AtomicMixedAccess));
}

TEST(RaceChecker, AtomicArrayElementVsPlainReadIsRace) {
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::omp_atomic(LValue{f.arr, Expr::int_const(3)},
                                        AssignOp::AddAssign, Expr::fp_const(1.0)));
  loop.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign,
                                    Expr::array(f.arr, Expr::var(f.i))));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_TRUE(f.has(RaceKind::AtomicMixedAccess));
}

TEST(RaceChecker, ScheduledOmpForKeepsIterationPartitionSafe) {
  // schedule(dynamic, 3) still hands each iteration to exactly one thread,
  // so an omp-for-index-affine write stays disjoint.
  Fixture f;
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::var(f.i)},
                                    AssignOp::Assign, Expr::fp_const(1.0)));
  Block region;
  region.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr},
                                      AssignOp::Assign, Expr::fp_const(0.0)));
  region.stmts.push_back(Stmt::for_loop(f.i, Expr::int_const(8), std::move(loop),
                                        /*omp_for=*/true,
                                        ast::ScheduleKind::Dynamic, 3));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

/// Region of shape: x-init preamble, the given sync blocks, then a safe
/// omp-for loop (tid-partitioned array writes).
void add_sync_region(Fixture& f, std::vector<StmtPtr> sync_blocks,
                     Block loop_body = {}) {
  if (loop_body.stmts.empty()) {
    loop_body.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                           AssignOp::Assign,
                                           Expr::fp_const(1.0)));
  }
  Block region;
  region.stmts.push_back(Stmt::assign(LValue{f.shared_x, nullptr},
                                      AssignOp::Assign, Expr::fp_const(0.0)));
  for (auto& s : sync_blocks) region.stmts.push_back(std::move(s));
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(8), std::move(loop_body), true));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
}

Block single_update(VarId v, AssignOp op, double value) {
  Block b;
  b.stmts.push_back(Stmt::assign(LValue{v, nullptr}, op, Expr::fp_const(value)));
  return b;
}

TEST(GoldenCorpus, SingleBlockExclusiveWriteIsNotARace) {
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  std::vector<StmtPtr> sync;
  sync.push_back(Stmt::omp_single(single_update(y, AssignOp::AddAssign, 1.0)));
  add_sync_region(f, std::move(sync));
  EXPECT_EQ(finding_pairs(f.prog), (std::vector<KindVar>{}));
}

TEST(RaceChecker, TwoDifferentSingleBlocksOnSameScalarIsRace) {
  // Two single blocks may execute concurrently on different threads; the
  // construct only serializes accesses within one block.
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  std::vector<StmtPtr> sync;
  sync.push_back(Stmt::omp_single(single_update(y, AssignOp::AddAssign, 1.0)));
  sync.push_back(Stmt::omp_single(single_update(y, AssignOp::MulAssign, 2.0)));
  add_sync_region(f, std::move(sync));
  EXPECT_TRUE(f.has(RaceKind::SharedScalarWrite));
}

TEST(RaceChecker, TwoMasterBlocksOnSameScalarAreSafe) {
  // Master always executes on thread 0, so two master blocks share a thread.
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  std::vector<StmtPtr> sync;
  sync.push_back(Stmt::omp_master(single_update(y, AssignOp::AddAssign, 1.0)));
  sync.push_back(Stmt::omp_master(single_update(y, AssignOp::MulAssign, 2.0)));
  add_sync_region(f, std::move(sync));
  EXPECT_TRUE(analyze_races(f.prog).race_free());
}

TEST(RaceChecker, SingleWriteVsLoopReadIsRace) {
  // single is emitted with nowait: the loop's plain reads are not ordered
  // against the single block's write.
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  std::vector<StmtPtr> sync;
  sync.push_back(Stmt::omp_single(single_update(y, AssignOp::AddAssign, 1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::var(y)));
  add_sync_region(f, std::move(sync), std::move(loop));
  EXPECT_TRUE(f.has(RaceKind::SharedScalarWrite));
}

TEST(GoldenCorpus, AtomicMixedAccess) {
  Fixture f;
  const VarId y = add_shared_fp(f.prog, "var_9");
  Block loop;
  loop.stmts.push_back(Stmt::omp_atomic(LValue{y, nullptr}, AssignOp::AddAssign,
                                        Expr::fp_const(1.0)));
  loop.stmts.push_back(
      Stmt::assign(LValue{f.shared_x, nullptr}, AssignOp::Assign, Expr::var(y)));
  OmpClauses clauses;
  clauses.privates.push_back(f.shared_x);
  f.add_region(std::move(loop), std::move(clauses));
  EXPECT_EQ(finding_pairs(f.prog),
            (std::vector<KindVar>{{RaceKind::AtomicMixedAccess, "var_9"}}));
}

TEST(RaceChecker, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(RaceKind::CompUnprotected), "comp-unprotected");
  EXPECT_STREQ(to_string(RaceKind::ArrayMixedAccess), "array-mixed-access");
  EXPECT_STREQ(to_string(RaceKind::UninitializedPrivate), "uninitialized-private");
  EXPECT_STREQ(to_string(RaceKind::AtomicMixedAccess), "atomic-mixed-access");
}

}  // namespace
}  // namespace ompfuzz::core
