// Tests for C++ code emission: literal fidelity, precedence-preserving
// parenthesization, OpenMP pragma forms, and whole-unit structure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "core/generator.hpp"
#include "emit/codegen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace ompfuzz::emit {
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
using ast::VarId;
using ast::VarKind;
using ast::VarRole;

struct Fixture {
  Program prog;
  VarId comp, a, b, c, arr, i;

  Fixture() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    a = prog.add_var({"a", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    b = prog.add_var({"b", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    c = prog.add_var({"c", VarKind::FpScalar, VarRole::Param, FpWidth::F32, 0});
    arr = prog.add_var({"arr", VarKind::FpArray, VarRole::Param, FpWidth::F64, 8});
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(a);
    prog.add_param(b);
    prog.add_param(c);
    prog.add_param(arr);
  }

  std::string expr_text(const ast::ExprPtr& e) { return emit_expr(prog, *e); }
};

// ------------------------------------------------------------ literals -----

TEST(FpLiteral, AlwaysParsesAsDouble) {
  EXPECT_EQ(emit_fp_literal(2.0), "2.0");
  EXPECT_EQ(emit_fp_literal(-1.0), "-1.0");
  EXPECT_EQ(emit_fp_literal(0.5), "0.5");
  EXPECT_EQ(emit_fp_literal(-0.0), "-0.0");
}

TEST(FpLiteral, RoundTripsFullPrecision) {
  for (double v : {1.23e+4, -1.3929e-2, 3.141592653589793, 1e300, 5e-324}) {
    // strtod, not std::stod: stod throws out_of_range on subnormal results.
    EXPECT_EQ(std::strtod(emit_fp_literal(v).c_str(), nullptr), v);
  }
}

TEST(FpLiteral, NonFiniteEncodedAsExpressions) {
  EXPECT_EQ(emit_fp_literal(HUGE_VAL), "(1.0/0.0)");
  EXPECT_EQ(emit_fp_literal(-HUGE_VAL), "(-1.0/0.0)");
  EXPECT_EQ(emit_fp_literal(std::nan("")), "(0.0/0.0)");
}

// ------------------------------------------------------------ precedence ---

TEST(ExprEmit, LeftLeaningChainNeedsNoParens) {
  Fixture f;
  // ((a + b) + c) reads back identically without parentheses.
  auto e = Expr::binary(BinOp::Add,
                        Expr::binary(BinOp::Add, Expr::var(f.a), Expr::var(f.b)),
                        Expr::var(f.c));
  EXPECT_EQ(f.expr_text(e), "a + b + c");
}

TEST(ExprEmit, LowerPrecedenceChildOfMulIsParenthesized) {
  Fixture f;
  // (a + b) * c must keep its grouping.
  auto e = Expr::binary(BinOp::Mul,
                        Expr::binary(BinOp::Add, Expr::var(f.a), Expr::var(f.b)),
                        Expr::var(f.c));
  EXPECT_EQ(f.expr_text(e), "(a + b) * c");
}

TEST(ExprEmit, RightChildSamePrecedenceIsParenthesized) {
  Fixture f;
  // a - (b - c): left-assoc '-' would reassociate without parens.
  auto e = Expr::binary(BinOp::Sub, Expr::var(f.a),
                        Expr::binary(BinOp::Sub, Expr::var(f.b), Expr::var(f.c)));
  EXPECT_EQ(f.expr_text(e), "a - (b - c)");
}

TEST(ExprEmit, DivisionRightChildParenthesized) {
  Fixture f;
  auto e = Expr::binary(BinOp::Div, Expr::var(f.a),
                        Expr::binary(BinOp::Mul, Expr::var(f.b), Expr::var(f.c)));
  EXPECT_EQ(f.expr_text(e), "a / (b * c)");
}

TEST(ExprEmit, ExplicitParensPreserved) {
  Fixture f;
  auto e = Expr::binary(BinOp::Add, Expr::var(f.a), Expr::var(f.b),
                        /*parenthesized=*/true);
  EXPECT_EQ(f.expr_text(e), "(a + b)");
}

TEST(ExprEmit, ArraySubscriptWithMod) {
  Fixture f;
  auto e = Expr::array(
      f.arr, Expr::binary(BinOp::Mod, Expr::var(f.i), Expr::int_const(8)));
  EXPECT_EQ(f.expr_text(e), "arr[i_1 % 8]");
}

TEST(ExprEmit, ThreadIdCall) {
  Fixture f;
  auto e = Expr::array(f.arr, Expr::thread_id());
  EXPECT_EQ(f.expr_text(e), "arr[omp_get_thread_num()]");
}

TEST(ExprEmit, MathCall) {
  Fixture f;
  auto e = Expr::call(ast::MathFunc::Sqrt,
                      Expr::binary(BinOp::Add, Expr::var(f.a), Expr::var(f.b)));
  EXPECT_EQ(f.expr_text(e), "sqrt(a + b)");
}

// ------------------------------------------------------------ statements ---

TEST(UnitEmit, ContainsComputeAndMain) {
  Fixture f;
  f.prog.body().stmts.push_back(Stmt::assign(LValue{f.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(f.a)));
  const std::string code = emit_translation_unit(f.prog);
  EXPECT_NE(code.find("void compute(double* comp_result, double a, double b, "
                      "float c, double* arr)"),
            std::string::npos);
  EXPECT_NE(code.find("double comp = 0.0;"), std::string::npos);
  EXPECT_NE(code.find("comp += a;"), std::string::npos);
  EXPECT_NE(code.find("*comp_result = comp;"), std::string::npos);
  EXPECT_NE(code.find("int main(int argc, char** argv)"), std::string::npos);
  // The harness times compute() without libstdc++ (see codegen.hpp).
  EXPECT_NE(code.find("clock_gettime(CLOCK_MONOTONIC"), std::string::npos);
  EXPECT_EQ(code.find("std::chrono"), std::string::npos);
  EXPECT_EQ(code.find("<chrono>"), std::string::npos);
  EXPECT_NE(code.find("time_us"), std::string::npos);
}

TEST(UnitEmit, ArrayAllocationAndFill) {
  Fixture f;
  f.prog.body().stmts.push_back(Stmt::assign(LValue{f.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(f.a)));
  const std::string code = emit_translation_unit(f.prog);
  EXPECT_NE(code.find("double* arr = (double*)std::malloc(sizeof(double) * 8);"),
            std::string::npos);
  EXPECT_NE(code.find("arr[_i] = arr_fill;"), std::string::npos);
  EXPECT_NE(code.find("std::free(arr);"), std::string::npos);
}

TEST(UnitEmit, NoMainWhenDisabled) {
  Fixture f;
  f.prog.body().stmts.push_back(Stmt::assign(LValue{f.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(f.a)));
  EmitOptions opt;
  opt.include_main = false;
  const std::string code = emit_translation_unit(f.prog, opt);
  EXPECT_EQ(code.find("int main"), std::string::npos);
}

TEST(UnitEmit, ParallelPragmaWithAllClauses) {
  Fixture f;
  Block region;
  region.stmts.push_back(
      Stmt::assign(LValue{f.a, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop_body;
  loop_body.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr},
                                         AssignOp::AddAssign, Expr::var(f.a)));
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop_body), true));
  OmpClauses clauses;
  clauses.privates = {f.a};
  clauses.firstprivates = {f.b};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 36;
  f.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));

  const std::string code = emit_translation_unit(f.prog);
  EXPECT_NE(code.find("#pragma omp parallel default(shared) private(a) "
                      "firstprivate(b) reduction(+: comp) num_threads(36)"),
            std::string::npos);
  EXPECT_NE(code.find("#pragma omp for"), std::string::npos);
  EXPECT_NE(code.find("for (int i_1 = 0; i_1 < 4; ++i_1)"), std::string::npos);
}

TEST(UnitEmit, EmptyClauseListsAreOmitted) {
  Fixture f;
  Block region;
  region.stmts.push_back(
      Stmt::assign(LValue{f.arr, Expr::thread_id()}, AssignOp::Assign,
                   Expr::fp_const(1.0)));
  Block loop_body;
  loop_body.stmts.push_back(Stmt::assign(LValue{f.arr, Expr::thread_id()},
                                         AssignOp::Assign, Expr::fp_const(2.0)));
  region.stmts.push_back(
      Stmt::for_loop(f.i, Expr::int_const(4), std::move(loop_body), false));
  f.prog.body().stmts.push_back(Stmt::omp_parallel(OmpClauses{}, std::move(region)));
  const std::string code = emit_translation_unit(f.prog);
  EXPECT_EQ(code.find("private()"), std::string::npos);
  EXPECT_EQ(code.find("firstprivate()"), std::string::npos);
}

TEST(UnitEmit, CriticalPragma) {
  Fixture f;
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{f.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(f.a)));
  f.prog.body().stmts.push_back(Stmt::omp_critical(std::move(crit)));
  const std::string code = emit_translation_unit(f.prog);
  EXPECT_NE(code.find("#pragma omp critical"), std::string::npos);
}

TEST(UnitEmit, FloatDeclUsesFloatKeyword) {
  Fixture f;
  const VarId t = f.prog.add_var({"tmp", VarKind::FpScalar, VarRole::Temp,
                                  FpWidth::F32, 0});
  f.prog.body().stmts.push_back(Stmt::decl(t, Expr::var(f.c)));
  const std::string code = emit_translation_unit(f.prog);
  EXPECT_NE(code.find("float tmp = c;"), std::string::npos);
}

// Stability: a seeded generated program emits the same text every time (the
// text itself is pinned by HarnessVersionPinsTheText below).
TEST(UnitEmit, GeneratedProgramEmissionIsStable) {
  GeneratorConfig cfg;
  cfg.num_threads = 4;
  cfg.max_loop_trip_count = 20;
  const core::ProgramGenerator gen(cfg);
  const auto p1 = gen.generate("golden", 20240611);
  const auto p2 = gen.generate("golden", 20240611);
  EXPECT_EQ(emit_translation_unit(p1), emit_translation_unit(p2));
}

// The emitted text is pinned as a (kHarnessVersion, hash) pair over the
// prelude and the first 40 programs of the default and the all-gates
// campaign streams. When the hash moves, bump kHarnessVersion with it, so
// subprocess store keys written under the old text stop matching.
TEST(UnitEmit, HarnessVersionPinsTheText) {
  std::uint64_t h = fnv1a64(prelude());
  for (const char* features : {"", "atomic,single,master,schedule,rangeidx"}) {
    CampaignConfig config;
    config.generator.enable_features(features);
    harness::SimExecutor exec;
    const harness::Campaign campaign(config, exec);
    for (int p = 0; p < 40; ++p) {
      h = hash_combine(
          h, fnv1a64(emit_translation_unit(campaign.make_test_case(p).program)));
    }
  }
  EXPECT_EQ(std::make_pair(kHarnessVersion, h),
            std::make_pair(2, std::uint64_t{0xa2ef322b5469a516ULL}));
}

}  // namespace
}  // namespace ompfuzz::emit
