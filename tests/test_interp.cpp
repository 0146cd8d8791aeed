// Tests for the interpreter: arithmetic typing, control flow, OpenMP
// semantics (privatization, firstprivate, reductions, omp-for scheduling),
// FP semantic knobs, event counting, and the step budget.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "runtime/impl_profile.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::interp {
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

/// Program builder: comp + configurable params, returning input values.
struct TestProgram {
  Program prog;
  VarId comp;
  std::vector<fp::InputValue> inputs;

  TestProgram() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
  }

  VarId add_double(const std::string& name, double v) {
    const VarId id =
        prog.add_var({name, VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Scalar;
    in.width = fp::FpWidth::F64;
    in.fp_value = v;
    inputs.push_back(in);
    return id;
  }

  VarId add_float(const std::string& name, float v) {
    const VarId id =
        prog.add_var({name, VarKind::FpScalar, VarRole::Param, FpWidth::F32, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Scalar;
    in.width = fp::FpWidth::F32;
    in.fp_value = static_cast<double>(v);
    inputs.push_back(in);
    return id;
  }

  VarId add_int(const std::string& name, std::int64_t v) {
    const VarId id =
        prog.add_var({name, VarKind::IntScalar, VarRole::Param, FpWidth::F64, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Int;
    in.int_value = v;
    inputs.push_back(in);
    return id;
  }

  VarId add_array(const std::string& name, FpWidth w, int size, double fill) {
    const VarId id = prog.add_var({name, VarKind::FpArray, VarRole::Param, w, size});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Array;
    in.width = w == FpWidth::F32 ? fp::FpWidth::F32 : fp::FpWidth::F64;
    in.fp_value = fill;
    inputs.push_back(in);
    return id;
  }

  VarId loop_index(const std::string& name) {
    return prog.add_var({name, VarKind::IntScalar, VarRole::LoopIndex,
                         FpWidth::F64, 0});
  }

  InterpResult run(InterpOptions opt = {}) {
    fp::InputSet set;
    set.values = inputs;
    prog.validate();
    return execute(prog, set, opt);
  }
};

// ------------------------------------------------------------ basics -------

TEST(Interp, CompStartsAtZero) {
  TestProgram t;
  const auto r = t.run();
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.comp, 0.0);
}

TEST(Interp, SimpleArithmetic) {
  TestProgram t;
  const VarId x = t.add_double("x", 3.0);
  const VarId y = t.add_double("y", 4.0);
  // comp += x * y + 0.5
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add,
                   Expr::binary(BinOp::Mul, Expr::var(x), Expr::var(y)),
                   Expr::fp_const(0.5))));
  EXPECT_DOUBLE_EQ(t.run().comp, 12.5);
}

TEST(Interp, AllAssignOps) {
  TestProgram t;
  const VarId x = t.add_double("x", 2.0);
  auto& body = t.prog.body().stmts;
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::Assign,
                              Expr::fp_const(10.0)));
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                              Expr::var(x)));  // 12
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::SubAssign,
                              Expr::fp_const(4.0)));  // 8
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::MulAssign,
                              Expr::var(x)));  // 16
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::DivAssign,
                              Expr::fp_const(4.0)));  // 4
  EXPECT_DOUBLE_EQ(t.run().comp, 4.0);
}

TEST(Interp, DivisionByZeroGivesInfinity) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId z = t.add_double("z", 0.0);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Div, Expr::var(x), Expr::var(z))));
  EXPECT_TRUE(std::isinf(t.run().comp));
}

TEST(Interp, MathCallsMatchLibm) {
  TestProgram t;
  const VarId x = t.add_double("x", 0.5);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::call(ast::MathFunc::Sin, Expr::var(x))));
  EXPECT_DOUBLE_EQ(t.run().comp, std::sin(0.5));
}

TEST(Interp, FloatOperationsRoundInFloat) {
  TestProgram t;
  const float a = 1.1f, b = 2.3f;
  const VarId va = t.add_float("a", a);
  const VarId vb = t.add_float("b", b);
  // tmp (float) = a * b; comp += tmp
  const VarId tmp = t.prog.add_var({"tmp", VarKind::FpScalar, VarRole::Temp,
                                    FpWidth::F32, 0});
  t.prog.body().stmts.push_back(
      Stmt::decl(tmp, Expr::binary(BinOp::Mul, Expr::var(va), Expr::var(vb))));
  t.prog.body().stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(tmp)));
  // Reference: float multiply, then widen — exactly what C++ does.
  const double expected = static_cast<double>(a * b);
  EXPECT_DOUBLE_EQ(t.run().comp, expected);
}

TEST(Interp, MixedWidthPromotesToDouble) {
  TestProgram t;
  const VarId f = t.add_float("f", 0.1f);
  const VarId d = t.add_double("d", 0.2);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add, Expr::var(f), Expr::var(d))));
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(0.1f) + 0.2);
}

TEST(Interp, CompoundFloatAssignMatchesCpp) {
  TestProgram t;
  const float a = 3.3f;
  const float b = 7.7f;
  const VarId va = t.add_float("a", a);
  const VarId vb = t.add_float("b", b);
  const VarId tmp = t.prog.add_var({"tmp", VarKind::FpScalar, VarRole::Temp,
                                    FpWidth::F32, 0});
  t.prog.body().stmts.push_back(Stmt::decl(tmp, Expr::var(va)));
  t.prog.body().stmts.push_back(
      Stmt::assign(LValue{tmp, nullptr}, AssignOp::MulAssign, Expr::var(vb)));
  t.prog.body().stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(tmp)));
  float ref = a;
  ref *= b;  // float multiply, as the emitted C++ would do
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(ref));
}

// ------------------------------------------------------------ control flow -

TEST(Interp, IfTakenAndNotTaken) {
  TestProgram t;
  const VarId x = t.add_double("x", 5.0);
  ast::BoolExpr taken;
  taken.lhs = x;
  taken.op = ast::BoolOp::Gt;
  taken.rhs = Expr::fp_const(1.0);
  Block then1;
  then1.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                     Expr::fp_const(10.0)));
  t.prog.body().stmts.push_back(Stmt::if_block(std::move(taken), std::move(then1)));

  ast::BoolExpr not_taken;
  not_taken.lhs = x;
  not_taken.op = ast::BoolOp::Lt;
  not_taken.rhs = Expr::fp_const(1.0);
  Block then2;
  then2.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                     Expr::fp_const(100.0)));
  t.prog.body().stmts.push_back(
      Stmt::if_block(std::move(not_taken), std::move(then2)));
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, ForLoopWithConstantBound) {
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(7), std::move(body), false));
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 7.0);
  EXPECT_EQ(r.events.loop_iterations, 7u);
}

TEST(Interp, ForLoopWithParamBound) {
  TestProgram t;
  const VarId n = t.add_int("n", 5);
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(2.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::var(n), std::move(body), false));
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, LoopIndexVisibleInBody) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 4, 0.0);
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{arr, Expr::var(i)}, AssignOp::Assign,
                                    Expr::fp_const(3.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(4), std::move(body), false));
  // comp += arr[3]
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(3))));
  EXPECT_DOUBLE_EQ(t.run().comp, 3.0);
}

TEST(Interp, ArrayFillAndFloatStorage) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F32, 8, 0.1);  // fill = 0.1
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(2))));
  // Float array holds float(0.1), widened on read.
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(0.1f));
}

TEST(Interp, OutOfBoundsSubscriptThrows) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 4, 1.0);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(4))));
  // validate() passes (subscript bounds are a dynamic property); the
  // interpreter must catch it as a framework-level error.
  fp::InputSet set;
  set.values = t.inputs;
  EXPECT_THROW((void)execute(t.prog, set, {}), InterpError);
}

// ------------------------------------------------------------ OpenMP -------

/// Builds "parallel { preamble...; for (...) { body } }".
Stmt* add_region(TestProgram& t, OmpClauses clauses, Block preamble,
                 VarId loop_var, std::int64_t bound, Block loop_body,
                 bool omp_for) {
  Block region;
  for (auto& s : preamble.stmts) region.stmts.push_back(std::move(s));
  region.stmts.push_back(Stmt::for_loop(loop_var, Expr::int_const(bound),
                                        std::move(loop_body), omp_for));
  t.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  return t.prog.body().stmts.back().get();
}

TEST(Interp, ReductionSumAcrossThreads) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 4;
  // omp for over 12 iterations: each iteration adds 1 exactly once.
  add_region(t, std::move(clauses), std::move(preamble), i, 12, std::move(loop),
             /*omp_for=*/true);
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 12.0);
  EXPECT_EQ(r.events.parallel_regions, 1u);
  EXPECT_EQ(r.events.thread_starts, 4u);
  EXPECT_EQ(r.events.reduction_combines, 4u);
}

TEST(Interp, ReductionProdUsesIdentityOne) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::MulAssign,
                                    Expr::fp_const(2.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Prod;
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 8, std::move(loop),
             /*omp_for=*/true);
  // comp starts 0.0: 0 * (2^8) = 0 under reduction(*: comp).
  EXPECT_DOUBLE_EQ(t.run().comp, 0.0);
}

TEST(Interp, SerialLoopInRegionRunsPerThread) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 3;
  // NOT work-shared: every thread runs all 5 iterations.
  add_region(t, std::move(clauses), std::move(preamble), i, 5, std::move(loop),
             /*omp_for=*/false);
  EXPECT_DOUBLE_EQ(t.run().comp, 15.0);
}

TEST(Interp, FirstprivateCarriesValueIn) {
  TestProgram t;
  const VarId x = t.add_double("x", 7.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                        AssignOp::AddAssign, Expr::var(x)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  OmpClauses clauses;
  clauses.firstprivates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 2, std::move(loop), true);
  // Each of 2 threads adds firstprivate x (7.0) once in the preamble.
  EXPECT_DOUBLE_EQ(t.run().comp, 14.0);
}

TEST(Interp, PrivateWritesDoNotLeakOut) {
  TestProgram t;
  const VarId x = t.add_double("x", 3.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(99.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{x, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 2;
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  add_region(t, std::move(clauses), std::move(preamble), i, 2, std::move(loop), true);
  // After the region, shared x must still be 3.0.
  t.prog.body().stmts.push_back(
      Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign, Expr::var(x)));
  EXPECT_DOUBLE_EQ(t.run().comp, 3.0);
}

TEST(Interp, ThreadIdIndexedArrayWrites) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 8, 0.0);
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::fp_const(5.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 4;
  add_region(t, std::move(clauses), std::move(preamble), i, 4, std::move(loop), true);
  // Threads 0..3 each wrote arr[tid] = 5.
  for (int k = 0; k < 4; ++k) {
    t.prog.body().stmts.push_back(Stmt::assign(
        LValue{t.comp, nullptr}, AssignOp::AddAssign,
        Expr::array(arr, Expr::int_const(k))));
  }
  EXPECT_DOUBLE_EQ(t.run().comp, 20.0);
}

TEST(Interp, OmpForPartitionsIterations) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 10, 0.0);
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{arr, Expr::var(i)}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 3;
  add_region(t, std::move(clauses), std::move(preamble), i, 10, std::move(loop), true);
  // Work-shared: every element written exactly once.
  for (int k = 0; k < 10; ++k) {
    t.prog.body().stmts.push_back(Stmt::assign(
        LValue{t.comp, nullptr}, AssignOp::AddAssign,
        Expr::array(arr, Expr::int_const(k))));
  }
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, NumThreadsOverride) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 8;
  add_region(t, std::move(clauses), std::move(preamble), i, 4, std::move(loop),
             /*omp_for=*/false);
  InterpOptions opt;
  opt.num_threads_override = 2;
  EXPECT_DOUBLE_EQ(t.run(opt).comp, 8.0);  // 2 threads x 4 iterations
}

TEST(Interp, CriticalEventsCounted) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 6, std::move(loop), true);
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 6.0);
  EXPECT_EQ(r.events.critical_entries, 6u);
  EXPECT_EQ(r.events.critical_stmts, 6u);
}

// ------------------------------------------------------------ FP semantics -

TEST(Interp, FlushSubnormalsChangesComparisonAgainstZero) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-310);  // subnormal input
  ast::BoolExpr guard;
  guard.lhs = x;
  guard.op = ast::BoolOp::Ne;
  guard.rhs = Expr::fp_const(0.0);
  Block then;
  then.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(Stmt::if_block(std::move(guard), std::move(then)));

  EXPECT_DOUBLE_EQ(t.run().comp, 1.0);  // strict IEEE: subnormal != 0

  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_DOUBLE_EQ(t.run(ftz).comp, 0.0);  // DAZ: flushed to zero at load
}

TEST(Interp, FlushAffectsOperationResults) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-300);
  // comp += x * 1e-100 (a subnormal result ~1e-400 -> 0 under FTZ... the
  // value underflows to subnormal 0? 1e-400 is below min subnormal, both give
  // 0; use 1e-20 so the product 1e-320 is subnormal).
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Mul, Expr::var(x), Expr::fp_const(1e-20))));
  const double strict = t.run().comp;
  EXPECT_GT(strict, 0.0);
  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_DOUBLE_EQ(t.run(ftz).comp, 0.0);
}

TEST(Interp, SubnormalOpsCountedOnlyWithoutFlush) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-310);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Mul, Expr::var(x), Expr::fp_const(0.5))));
  EXPECT_GT(t.run().events.subnormal_fp_ops, 0u);
  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_EQ(t.run(ftz).events.subnormal_fp_ops, 0u);
}

TEST(Interp, FmaContractionChangesRounding) {
  TestProgram t;
  const double a = 1.0 + 1e-8, b = 1.0 - 1e-8, c = -1.0;
  const VarId va = t.add_double("a", a);
  const VarId vb = t.add_double("b", b);
  const VarId vc = t.add_double("c", c);
  // comp += a * b + c : fma gives the exact -1e-16, separate rounding differs.
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add,
                   Expr::binary(BinOp::Mul, Expr::var(va), Expr::var(vb)),
                   Expr::var(vc))));
  const double separate = t.run().comp;
  InterpOptions fma;
  fma.fp.contract_fma = true;
  const double contracted = t.run(fma).comp;
  EXPECT_DOUBLE_EQ(separate, a * b + c);
  EXPECT_DOUBLE_EQ(contracted, std::fma(a, b, c));
  EXPECT_NE(separate, contracted);
}

TEST(Interp, ReassociatedReductionDiffersFromSequential) {
  TestProgram t;
  const VarId x = t.add_double("x", 0.1);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                        AssignOp::AddAssign, Expr::var(x)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  OmpClauses clauses;
  clauses.firstprivates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 7;  // odd team: tree and fold orders differ
  add_region(t, std::move(clauses), std::move(preamble), i, 1, std::move(loop),
             false);
  const double sequential = t.run().comp;
  InterpOptions tree;
  tree.fp.reassociate_reductions = true;
  const double reassociated = t.run(tree).comp;
  // 7 x 0.1 summed in different orders: one may differ in the last bit; at
  // minimum both must be within a few ulps of 0.7.
  EXPECT_NEAR(sequential, 0.7, 1e-15);
  EXPECT_NEAR(reassociated, 0.7, 1e-15);
}

TEST(FpSemantics, AnyFieldChangeBreaksEquality) {
  // SimExecutor shares one interpretation between implementations whose
  // semantics compare equal, so equality must see every field.
  const FpSemantics base;
  EXPECT_EQ(base, FpSemantics{});
  FpSemantics flush = base;
  flush.flush_subnormals = true;
  FpSemantics fma = base;
  fma.contract_fma = true;
  FpSemantics reassociate = base;
  reassociate.reassociate_reductions = true;
  for (const FpSemantics& changed : {flush, fma, reassociate}) {
    EXPECT_NE(changed, base);
  }
  EXPECT_NE(flush, fma);
  EXPECT_EQ(rt::clang_profile().fp, rt::intel_profile().fp);
  EXPECT_NE(rt::gcc_profile().fp, rt::clang_profile().fp);
}

// ------------------------------------------------------------ budget -------

TEST(Interp, StepBudgetStopsExecution) {
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(1000000), std::move(body), false));
  InterpOptions opt;
  opt.max_steps = 1000;
  const auto r = t.run(opt);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.over_budget);
  EXPECT_LE(r.steps, 1002u);
}

TEST(Interp, BudgetInsideRegionLeavesValidState) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 4;
  add_region(t, std::move(clauses), std::move(preamble), i, 1000000,
             std::move(loop), false);
  InterpOptions opt;
  opt.max_steps = 500;
  const auto r = t.run(opt);
  EXPECT_TRUE(r.over_budget);
  EXPECT_FALSE(std::isnan(r.comp));  // reads global comp, not a dangling frame
}

// ------------------------------------------------------------ golden -------

/// The first `n` programs of the sim campaign stream (paper generator
/// shape: num_threads(32), trip counts <= 100), two inputs each.
std::vector<harness::TestCase> campaign_corpus(int n) {
  CampaignConfig config;
  config.num_programs = n;
  config.inputs_per_program = 2;
  config.generator.num_threads = 32;
  config.generator.max_loop_trip_count = 100;
  harness::SimExecutor exec;
  const harness::Campaign campaign(config, exec);
  std::vector<harness::TestCase> corpus;
  for (int k = 0; k < n; ++k) corpus.push_back(campaign.make_test_case(k));
  return corpus;
}

/// Every observable of a result: comp bits, each EventCounts field, steps
/// and the budget flag.
std::uint64_t result_digest(std::uint64_t h, const InterpResult& r) {
  const EventCounts& e = r.events;
  for (const std::uint64_t v :
       {std::bit_cast<std::uint64_t>(r.comp), e.fp_add_sub, e.fp_mul, e.fp_div,
        e.math_calls, e.int_ops, e.subnormal_fp_ops, e.scalar_loads,
        e.scalar_stores, e.array_loads, e.array_stores, e.branches,
        e.loop_iterations, e.parallel_regions, e.thread_starts,
        e.omp_for_loops, e.barriers, e.critical_entries, e.critical_stmts,
        e.reduction_combines, r.steps, std::uint64_t{r.over_budget},
        std::uint64_t{r.ok}}) {
    h = hash_combine(h, v);
  }
  return h;
}

InterpOptions campaign_options(const rt::OmpImplProfile& profile) {
  InterpOptions opt;
  opt.fp = profile.fp;
  opt.num_threads_override = 32;
  opt.max_steps = 250'000;
  return opt;
}

TEST(Interp, CampaignStreamEventsArePinned) {
  // Any change to the interpreter's arithmetic, event accounting or budget
  // shows here: 24 campaign programs x 2 inputs x 3 fp semantics.
  std::uint64_t h = 0;
  int over_budget = 0;
  for (const auto& test : campaign_corpus(24)) {
    for (const auto& input : test.inputs) {
      for (const auto& profile :
           {rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()}) {
        const auto r = execute(test.program, input, campaign_options(profile));
        over_budget += r.over_budget ? 1 : 0;
        h = result_digest(h, r);
      }
    }
  }
  EXPECT_GT(over_budget, 0);  // the budget path is part of the pin
  EXPECT_EQ(h, 0x18f4f8d42ab7d17fULL);
}

TEST(Interp, ObservedRunEqualsUnobserved) {
  // The observed (trace/values) and unobserved engines must agree exactly.
  std::size_t accesses = 0;
  for (const auto& test : campaign_corpus(12)) {
    for (const auto& profile : {rt::gcc_profile(), rt::intel_profile()}) {
      const InterpOptions plain = campaign_options(profile);
      AccessTrace trace;
      ValueTrace values;
      InterpOptions observed = plain;
      observed.trace = &trace;
      observed.values = &values;
      const auto a = execute(test.program, test.inputs[0], plain);
      const auto b = execute(test.program, test.inputs[0], observed);
      EXPECT_EQ(result_digest(0, a), result_digest(0, b)) << test.program.name();
      EXPECT_EQ(values.scalars.size(), test.program.var_count());
      accesses += trace.accesses.size();
    }
  }
  EXPECT_GT(accesses, 0u);
}

// ------------------------------------------------------------ scheduling ---

TEST(StaticChunk, CoversRangeExactlyOnce) {
  for (int n : {0, 1, 7, 10, 32, 100}) {
    for (int threads : {1, 2, 3, 8, 32}) {
      std::vector<int> hits(static_cast<std::size_t>(std::max(n, 1)), 0);
      for (int tid = 0; tid < threads; ++tid) {
        const auto r = static_chunk(n, threads, tid);
        for (auto k = r.begin; k < r.end; ++k) hits[static_cast<std::size_t>(k)]++;
      }
      for (int k = 0; k < n; ++k) {
        EXPECT_EQ(hits[static_cast<std::size_t>(k)], 1)
            << "n=" << n << " T=" << threads << " k=" << k;
      }
    }
  }
}

TEST(StaticChunk, BalancedWithinOne) {
  const auto size = [](IterRange r) { return r.end - r.begin; };
  for (int tid = 0; tid < 8; ++tid) {
    const auto len = size(static_chunk(30, 8, tid));
    EXPECT_TRUE(len == 3 || len == 4);
  }
}

TEST(StaticChunk, DegenerateInputs) {
  EXPECT_EQ(static_chunk(10, 4, -1).end, 0);
  EXPECT_EQ(static_chunk(10, 4, 4).end, 0);
  EXPECT_EQ(static_chunk(-5, 4, 0).end, 0);
  EXPECT_EQ(static_chunk(10, 0, 0).end, 0);
}

}  // namespace
}  // namespace ompfuzz::interp
