// Tests for the test-case reducer subsystem (src/reduce/): verdict-class
// semantics, pass-level candidate validity (lexical scoping, variable
// pruning), ddmin shrinkage and verdict preservation, reduction determinism
// (bit-identical minimal program in-process and across two processes), and
// oracle caching (a store-warm re-reduction executes zero children).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "emit/codegen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "reduce/campaign_reduce.hpp"
#include "reduce/oracle.hpp"
#include "reduce/passes.hpp"
#include "reduce/reducer.hpp"
#include "runtime/impl_profile.hpp"
#include "support/result_store.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace ompfuzz::reduce {
namespace {

using ast::BinOp;
using ast::Expr;
using ast::FpWidth;
using ast::Program;
using ast::Stmt;
using ast::VarId;
using ast::VarKind;
using ast::VarRole;

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

/// Stub "compiler" whose binary prints a fixed comp value, so two stubs with
/// different values diverge on every (program, input) — the divergence is
/// program-independent and the minimal program is the empty kernel. Both
/// stages log their pid for child counting.
std::string make_const_compiler(const std::string& dir, const std::string& name,
                                const std::string& comp_value) {
  const std::string log = dir + "/children.log";
  const std::string payload = dir + "/" + name + "_payload.sh";
  write_script(payload, "#!/bin/sh\necho run_$$ >> " + log + "\necho \"" +
                            comp_value + "\"\necho \"time_us: 2000\"\n");
  const std::string cc = dir + "/" + name + ".sh";
  write_script(cc, "#!/bin/sh\necho compile_$$ >> " + log + "\ncp " + payload +
                       " \"$2\"\nchmod +x \"$2\"\n");
  return cc;
}

int count_children(const std::string& dir) {
  std::ifstream in(dir + "/children.log");
  int n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

/// A small but structurally rich program:
///   comp += var_x;
///   t = var_x * 2.0;
///   comp += t;
///   for (i < var_n) { omp critical is omitted }  -> comp -= 1.0
///   if (var_x < 3.0) { comp *= 2.0; }
struct Fixture {
  Program prog;
  VarId comp, n, x, t, i;

  Fixture() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    n = prog.add_var({"var_n", VarKind::IntScalar, VarRole::Param, FpWidth::F64, 0});
    x = prog.add_var({"var_x", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    t = prog.add_var({"tmp_1", VarKind::FpScalar, VarRole::Temp, FpWidth::F64, 0});
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(n);
    prog.add_param(x);

    auto& stmts = prog.body().stmts;
    stmts.push_back(Stmt::assign({comp, nullptr}, ast::AssignOp::AddAssign,
                                 Expr::var(x)));
    stmts.push_back(Stmt::decl(
        t, Expr::binary(BinOp::Mul, Expr::var(x), Expr::fp_const(2.0))));
    stmts.push_back(Stmt::assign({comp, nullptr}, ast::AssignOp::AddAssign,
                                 Expr::var(t)));
    ast::Block loop_body;
    loop_body.stmts.push_back(Stmt::assign(
        {comp, nullptr}, ast::AssignOp::SubAssign, Expr::fp_const(1.0)));
    stmts.push_back(Stmt::for_loop(i, Expr::var(n), std::move(loop_body),
                                   /*omp_for=*/false));
    ast::Block then_block;
    then_block.stmts.push_back(Stmt::assign(
        {comp, nullptr}, ast::AssignOp::MulAssign, Expr::fp_const(2.0)));
    ast::BoolExpr cond;
    cond.lhs = x;
    cond.op = ast::BoolOp::Lt;
    cond.rhs = Expr::fp_const(3.0);
    stmts.push_back(Stmt::if_block(std::move(cond), std::move(then_block)));
  }

  [[nodiscard]] fp::InputSet input() const {
    fp::InputSet in;
    fp::InputValue trip;
    trip.kind = fp::ParamKind::Int;
    trip.int_value = 4;
    in.values.push_back(trip);
    fp::InputValue scalar;
    scalar.kind = fp::ParamKind::Scalar;
    scalar.fp_value = 1.5;
    in.values.push_back(scalar);
    return in;
  }
};

// ------------------------------------------------------------ VerdictClass -

core::RunResult ok_run(const std::string& impl, double output) {
  core::RunResult r;
  r.impl = impl;
  r.status = core::RunStatus::Ok;
  r.output = output;
  r.time_us = 1000;
  return r;
}

TEST(VerdictClass, ClassifiesDivergenceAndFailures) {
  std::vector<core::RunResult> runs = {ok_run("a", 1.0), ok_run("b", 1.0),
                                       ok_run("c", 2.0)};
  const auto cls = core::classify_runs(runs, core::exact_tolerance());
  EXPECT_EQ(cls.per_run,
            (std::vector<core::RunClass>{core::RunClass::OkConsensus,
                                         core::RunClass::OkConsensus,
                                         core::RunClass::OkDivergent}));
  EXPECT_TRUE(cls.divergent());
  EXPECT_EQ(core::to_string(cls), "ok ok ok/div");

  runs[2] = ok_run("c", 1.0);
  EXPECT_FALSE(core::classify_runs(runs, core::exact_tolerance()).divergent());

  runs[2].status = core::RunStatus::Crash;
  const auto crash_cls = core::classify_runs(runs, core::exact_tolerance());
  EXPECT_EQ(crash_cls.per_run[2], core::RunClass::Crash);
  EXPECT_TRUE(crash_cls.divergent());
}

TEST(VerdictClass, AllFailedIsNotDifferentialEvidence) {
  std::vector<core::RunResult> runs(2);
  runs[0].status = core::RunStatus::Crash;
  runs[1].status = core::RunStatus::Hang;
  EXPECT_FALSE(core::classify_runs(runs, core::exact_tolerance()).divergent());
}

TEST(VerdictClass, NanConsensusIsNotDivergent) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<core::RunResult> runs = {ok_run("a", nan), ok_run("b", nan)};
  EXPECT_FALSE(core::classify_runs(runs, core::exact_tolerance()).divergent());
}

// ----------------------------------------------------------------- passes -

TEST(Passes, CountAndDepth) {
  const Fixture f;
  EXPECT_EQ(ast::count_stmts(f.prog.body()), 7u);
  EXPECT_EQ(max_stmt_depth(f.prog), 2u);
  EXPECT_EQ(paths_at_depth(f.prog, 1).size(), 5u);
  EXPECT_EQ(paths_at_depth(f.prog, 2).size(), 2u);
}

TEST(Passes, RemovingDeclStrandsItsUses) {
  const Fixture f;
  EXPECT_TRUE(structurally_valid(f.prog));
  // Removing the Decl of tmp_1 (index 1) leaves "comp += tmp_1" referencing
  // an undeclared local: validate() still passes (the symbol table keeps the
  // var), but the emitted C++ would not compile — structurally_valid must
  // reject it.
  Program broken = remove_paths(f.prog, {{1}});
  EXPECT_EQ(ast::count_stmts(broken.body()), 6u);
  EXPECT_NO_THROW(broken.validate());
  EXPECT_FALSE(structurally_valid(broken));
  // Removing the Decl and the use together is fine.
  EXPECT_TRUE(structurally_valid(remove_paths(f.prog, {{1}, {2}})));
}

TEST(Passes, CollapseHoistsBodies) {
  const Fixture f;
  const auto candidates = collapse_candidates(f.prog, f.input());
  ASSERT_EQ(candidates.size(), 2u);  // the for and the if
  // Collapsing the for hoists "comp -= 1.0" to the top level; the loop
  // header (and its loop-var declaration) disappears.
  EXPECT_EQ(ast::count_stmts(candidates[0].program.body()), 6u);
  EXPECT_TRUE(structurally_valid(candidates[0].program));
}

TEST(Passes, ExprCandidatesShrinkStrictly) {
  const Fixture f;
  for (const auto& candidate : expr_candidates(f.prog, f.input())) {
    // Every expression edit must shrink the well-founded measure the
    // reducer's termination argument relies on.
    std::size_t before = 0, after = 0;
    ast::walk_exprs(f.prog.body(), [&](const ast::Expr&) { ++before; });
    ast::walk_exprs(candidate.program.body(),
                    [&](const ast::Expr&) { ++after; });
    EXPECT_LE(after, before) << candidate.edit;
  }
}

TEST(Passes, PruneDropsUnusedParamAndItsInput) {
  Fixture f;
  // Make var_n unused: replace the for loop's bound with a constant.
  f.prog.body().stmts[3]->loop_bound = Expr::int_const(2);
  const auto pruned = prune_candidate(f.prog, f.input());
  ASSERT_TRUE(pruned.has_value());
  EXPECT_EQ(pruned->program.params().size(), 1u);  // var_x stays
  EXPECT_EQ(pruned->input.values.size(), 1u);
  EXPECT_EQ(pruned->input.values[0].kind, fp::ParamKind::Scalar);
  EXPECT_TRUE(structurally_valid(pruned->program));
  pruned->program.validate();
  // Fingerprint changed (ids renumbered): the reduced program is a new
  // cache key, never a stale hit on the original.
  EXPECT_NE(pruned->program.fingerprint(), f.prog.fingerprint());
}

TEST(Passes, PruneDropsClauseOnlyVariableWithItsClauseEntry) {
  // A clause names a variable without using it: a variable named only in
  // private(...) is pruned together with its clause entry, while clause
  // entries of used variables survive, renumbered.
  Fixture f;
  const VarId only_private =
      f.prog.add_var({"tmp_2", VarKind::FpScalar, VarRole::Temp, FpWidth::F64, 0});
  const VarId inner =
      f.prog.add_var({"tmp_3", VarKind::FpScalar, VarRole::Temp, FpWidth::F64, 0});
  ast::OmpClauses clauses;
  clauses.privates = {only_private, f.t};
  clauses.firstprivates = {f.x};
  ast::Block region;
  region.stmts.push_back(Stmt::decl(inner, Expr::var(f.x)));
  f.prog.body().stmts.push_back(Stmt::omp_parallel(clauses, std::move(region)));

  const auto pruned = prune_candidate(f.prog, f.input());
  ASSERT_TRUE(pruned.has_value());
  const Program& p = pruned->program;
  p.validate();
  EXPECT_TRUE(structurally_valid(p));
  EXPECT_EQ(p.var_count(), f.prog.var_count() - 1);
  for (const auto& decl : p.vars()) EXPECT_NE(decl.name, "tmp_2");
  EXPECT_EQ(p.params().size(), 2u);
  const Stmt& parallel = *p.body().stmts.back();
  ASSERT_EQ(parallel.kind, Stmt::Kind::OmpParallel);
  ASSERT_EQ(parallel.clauses.privates.size(), 1u);
  EXPECT_EQ(p.var(parallel.clauses.privates[0]).name, "tmp_1");
  ASSERT_EQ(parallel.clauses.firstprivates.size(), 1u);
  EXPECT_EQ(p.var(parallel.clauses.firstprivates[0]).name, "var_x");
  EXPECT_EQ(p.var(parallel.body.stmts[0]->target.var).name, "tmp_3");
}

TEST(Passes, PruneKeepsFullyUsedPrograms) {
  const Fixture f;
  EXPECT_FALSE(prune_candidate(f.prog, f.input()).has_value());
}

// ---------------------------------------------------------------- reducer -

/// Two constant stubs that always disagree: every candidate preserves the
/// class, so ddmin must drive the program to the empty kernel.
TEST(Reducer, ReducesToEmptyKernelWhenDivergenceIsUnconditional) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"alpha", make_const_compiler(dir, "alpha", "7") + " {src} {bin}", ""},
      {"beta", make_const_compiler(dir, "beta", "42") + " {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  harness::SubprocessExecutor executor(impls, opt);

  const Fixture f;
  InterestingnessOracle oracle(executor);
  Reducer reducer(oracle);
  const ReduceResult result = reducer.reduce(f.prog, f.input());

  EXPECT_TRUE(result.reproduced);
  EXPECT_TRUE(result.verdict.divergent());
  EXPECT_EQ(result.stats.initial_statements, 7u);
  EXPECT_EQ(result.stats.final_statements, 0u);
  EXPECT_TRUE(result.program.body().empty());
  // Unused params pruned, and the input shrank with the signature.
  EXPECT_TRUE(result.program.params().empty());
  EXPECT_TRUE(result.input.values.empty());
  EXPECT_GT(result.stats.candidates_tried, 0u);
}

TEST(Reducer, WorkDirIsBoundedAfterFullReduction) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"alpha", make_const_compiler(dir, "alpha", "7") + " {src} {bin}", ""},
      {"beta", make_const_compiler(dir, "beta", "42") + " {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  harness::SubprocessExecutor executor(impls, opt);

  StoreConfig store_cfg;
  store_cfg.enabled = true;
  store_cfg.dir = dir + "/store";
  ResultStore store(store_cfg);

  const Fixture f;
  InterestingnessOracle oracle(executor);
  oracle.set_result_store(&store);
  Reducer reducer(oracle);
  const ReduceResult result = reducer.reduce(f.prog, f.input());
  ASSERT_TRUE(result.reproduced);
  ASSERT_GT(oracle.stats().candidates, 5u);
  EXPECT_GT(store.stats().puts, 0u);

  // Every candidate's verdict is in the result store (and the oracle memo),
  // so no per-candidate source or binary may survive the reduction — a long
  // reduction previously left one of each per candidate per implementation.
  std::vector<std::string> leftovers;
  for (const auto& entry : std::filesystem::directory_iterator(opt.work_dir)) {
    leftovers.push_back(entry.path().filename().string());
  }
  EXPECT_TRUE(leftovers.empty())
      << leftovers.size() << " artifacts leaked, e.g. " << leftovers.front();
}

TEST(Reducer, NonDivergentTripleIsReportedNotReduced) {
  const std::string dir = temp_dir();
  const std::string cc = make_const_compiler(dir, "same", "7");
  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  harness::SubprocessExecutor executor(impls, opt);

  const Fixture f;
  InterestingnessOracle oracle(executor);
  Reducer reducer(oracle);
  const ReduceResult result = reducer.reduce(f.prog, f.input());
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.stats.final_statements, result.stats.initial_statements);
  EXPECT_EQ(result.program.fingerprint(), f.prog.fingerprint());
}

// -------------------------------------------------- sim-backend reduction -

/// Seed whose simulated campaign produces divergent triples (subnormal
/// inputs meet gcc's FTZ semantics); shared by the determinism tests.
CampaignConfig divergent_sim_config() {
  CampaignConfig cfg;
  cfg.num_programs = 3;
  cfg.seed = 51966;
  cfg.generator.max_loop_trip_count = 100;
  return cfg;
}

TEST(SimReduction, ShrinksSeventyPercentAndPreservesClass) {
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(divergent_sim_config(), executor);
  const auto result = campaign.run();
  ASSERT_FALSE(result.divergent.empty());

  const auto report = reduce_campaign(result, campaign.backends(), nullptr);
  ASSERT_EQ(report.reductions.size(), result.divergent.size());
  for (const auto& row : report.reductions) {
    ASSERT_TRUE(row.reproduced) << row.program_name;
    // Acceptance bar: >= 70% of statements removed.
    EXPECT_GE(row.stats.shrink_ratio(), 0.7) << row.program_name;
    EXPECT_LT(row.reduced_statements, row.original_statements);
  }

  // The reduced program must itself reproduce the verdict class: re-derive
  // it through a fresh oracle (no caching involved).
  InterestingnessOracle oracle(executor);
  Reducer reducer(oracle);
  const auto& triple = result.divergent.front();
  const ReduceResult reduced = reducer.reduce(triple.program, triple.input);
  ASSERT_TRUE(reduced.reproduced);
  InterestingnessOracle::Request verify{&reduced.program, &reduced.input};
  const auto check = InterestingnessOracle(executor).classify({&verify, 1});
  EXPECT_TRUE(check.front().trusted);
  EXPECT_EQ(check.front().cls, reduced.verdict);
  EXPECT_EQ(check.front().cls, triple.verdict_class);
}

TEST(SimReduction, DeterministicWithinProcess) {
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(divergent_sim_config(), executor);
  const auto result = campaign.run();
  ASSERT_FALSE(result.divergent.empty());
  const auto& triple = result.divergent.front();

  // Two independent reductions, one serial, one with parallel candidate
  // dispatch: bit-identical minimal programs.
  OracleOptions serial_opt;
  serial_opt.threads = 1;
  InterestingnessOracle serial_oracle(executor, serial_opt);
  Reducer serial(serial_oracle);
  const ReduceResult a = serial.reduce(triple.program, triple.input);

  OracleOptions parallel_opt;
  parallel_opt.threads = 4;
  InterestingnessOracle parallel_oracle(executor, parallel_opt);
  Reducer parallel(parallel_oracle);
  const ReduceResult b = parallel.reduce(triple.program, triple.input);

  EXPECT_EQ(a.program.fingerprint(), b.program.fingerprint());
  EXPECT_EQ(emit::emit_translation_unit(a.program),
            emit::emit_translation_unit(b.program));
  EXPECT_EQ(a.input.to_string(), b.input.to_string());
}

TEST(SimReduction, SplitBackendsReduceByteIdentically) {
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  const std::vector<rt::OmpImplProfile> all = {
      rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()};

  harness::SimExecutor whole(all, opt);
  harness::Campaign one(divergent_sim_config(), {{&whole, "all"}});
  const auto one_result = one.run();
  ASSERT_FALSE(one_result.divergent.empty());
  const std::string expected = reductions_to_json(
      reduce_campaign(one_result, one.backends(), nullptr).reductions);

  // gcc | clang,intel: every candidate runs under both backends, columns
  // concatenated in backend order, so the reductions cannot tell.
  harness::SimExecutor gcc({all[0]}, opt);
  harness::SimExecutor rest({all[1], all[2]}, opt);
  harness::Campaign split(divergent_sim_config(),
                          {{&gcc, "gcc"}, {&rest, "clang,intel"}});
  const auto split_result = split.run();
  EXPECT_EQ(reductions_to_json(
                reduce_campaign(split_result, split.backends(), nullptr).reductions),
            expected);
}

/// Child mode of DeterministicAcrossProcesses: reduces the first divergent
/// triple of the shared campaign and writes the minimal program's source to
/// the env-provided path.
TEST(SimReduction, ChildReduce) {
  const char* out_env = std::getenv("OMPFUZZ_REDUCE_CHILD_OUT");
  if (out_env == nullptr) {
    GTEST_SKIP() << "helper: only meaningful as the re-exec'd child";
  }
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(divergent_sim_config(), executor);
  const auto result = campaign.run();
  ASSERT_FALSE(result.divergent.empty());
  InterestingnessOracle oracle(executor);
  Reducer reducer(oracle);
  const ReduceResult reduced =
      reducer.reduce(result.divergent.front().program,
                     result.divergent.front().input);
  {
    std::ofstream out(out_env);
    out << emit::emit_translation_unit(reduced.program) << "input "
        << reduced.input.to_string() << "\n";
  }  // closed (and flushed) before _Exit skips destructors
  std::_Exit(0);
}

TEST(SimReduction, DeterministicAcrossProcesses) {
  const std::string dir = temp_dir();
  const std::string child_out = dir + "/child_reduced.cpp";
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    setenv("OMPFUZZ_REDUCE_CHILD_OUT", child_out.c_str(), 1);
    execl("/proc/self/exe", "/proc/self/exe",
          "--gtest_filter=SimReduction.ChildReduce",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(divergent_sim_config(), executor);
  const auto result = campaign.run();
  ASSERT_FALSE(result.divergent.empty());
  InterestingnessOracle oracle(executor);
  Reducer reducer(oracle);
  const ReduceResult reduced =
      reducer.reduce(result.divergent.front().program,
                     result.divergent.front().input);
  const std::string mine =
      emit::emit_translation_unit(reduced.program) + "input " +
      reduced.input.to_string() + "\n";

  std::ifstream in(child_out);
  ASSERT_TRUE(in) << child_out;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), mine);
}

// ------------------------------------------------------------ oracle cache -

TEST(OracleCache, WarmReductionExecutesZeroChildren) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"alpha", make_const_compiler(dir, "alpha", "7") + " {src} {bin}", ""},
      {"beta", make_const_compiler(dir, "beta", "42") + " {src} {bin}", ""},
  };
  StoreConfig store_cfg;
  store_cfg.enabled = true;
  store_cfg.dir = dir + "/store";
  ResultStore store(store_cfg);

  const Fixture f;
  std::string cold_source;
  {
    harness::SubprocessOptions opt;
    opt.work_dir = dir + "/work_cold";
    opt.concurrent_runs = true;
    harness::SubprocessExecutor executor(impls, opt);
    InterestingnessOracle oracle(executor);
    oracle.set_result_store(&store);
    Reducer reducer(oracle);
    const ReduceResult cold = reducer.reduce(f.prog, f.input());
    ASSERT_TRUE(cold.reproduced);
    cold_source = emit::emit_translation_unit(cold.program);
    EXPECT_GT(oracle.stats().executed_runs, 0u);
  }
  const int cold_children = count_children(dir);
  ASSERT_GT(cold_children, 0);

  // Fresh executor (empty binary cache), same store: the whole reduction
  // replays from cached classifications — zero new children, and the store
  // hit counter accounts for every run the cold pass executed.
  {
    harness::SubprocessOptions opt;
    opt.work_dir = dir + "/work_warm";
    opt.concurrent_runs = true;
    harness::SubprocessExecutor executor(impls, opt);
    InterestingnessOracle oracle(executor);
    oracle.set_result_store(&store);
    Reducer reducer(oracle);
    const ReduceResult warm = reducer.reduce(f.prog, f.input());
    ASSERT_TRUE(warm.reproduced);
    EXPECT_EQ(emit::emit_translation_unit(warm.program), cold_source);
    EXPECT_EQ(oracle.stats().executed_runs, 0u);
    EXPECT_GT(oracle.stats().cached_runs, 0u);
  }
  EXPECT_EQ(count_children(dir), cold_children);
  EXPECT_GT(store.stats().hits, 0u);
}

TEST(OracleCache, InProcessMemoAvoidsReexecutionWithoutStore) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"alpha", make_const_compiler(dir, "alpha", "7") + " {src} {bin}", ""},
      {"beta", make_const_compiler(dir, "beta", "42") + " {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  harness::SubprocessExecutor executor(impls, opt);

  // No store attached: repeats within one oracle (ddmin revisits candidates
  // constantly) must still be served from the in-process memo.
  const Fixture f;
  const fp::InputSet input = f.input();
  InterestingnessOracle oracle(executor);
  InterestingnessOracle::Request request{&f.prog, &input};
  const auto first = oracle.classify({&request, 1});
  EXPECT_EQ(oracle.stats().executed_runs, 2u);  // one per implementation
  const int children_after_first = count_children(dir);

  const auto second = oracle.classify({&request, 1});
  EXPECT_EQ(second.front().cls, first.front().cls);
  EXPECT_EQ(oracle.stats().executed_runs, 2u);  // nothing re-executed
  EXPECT_EQ(oracle.stats().cached_runs, 2u);
  EXPECT_EQ(count_children(dir), children_after_first);
}

// ---------------------------------------------------- static rejection -----

/// Fixture whose body reads `arr[i % 4]` under a 4-trip loop: safe as
/// written, but ddmin's partial index edits (binary->rhs turns the index
/// into the constant 4; folding the divisor to 0 makes `i % 0`) produce
/// exactly the unsafe candidates the oracle's value-range gate exists for.
struct ArrayFixture {
  Program prog;
  VarId comp, n, arr, i;

  ArrayFixture() {
    comp = prog.add_var(
        {"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    n = prog.add_var(
        {"var_n", VarKind::IntScalar, VarRole::Param, FpWidth::F64, 0});
    arr = prog.add_var(
        {"arr_1", VarKind::FpArray, VarRole::Param, FpWidth::F64, 4});
    i = prog.add_var(
        {"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
    prog.add_param(n);
    prog.add_param(arr);

    ast::Block loop_body;
    loop_body.stmts.push_back(Stmt::assign(
        {comp, nullptr}, ast::AssignOp::AddAssign,
        Expr::array(arr, Expr::binary(BinOp::Mod, Expr::var(i),
                                      Expr::int_const(4)))));
    prog.body().stmts.push_back(Stmt::for_loop(
        i, Expr::var(n), std::move(loop_body), /*omp_for=*/false));
  }

  [[nodiscard]] fp::InputSet input() const {
    fp::InputSet in;
    fp::InputValue trip;
    trip.kind = fp::ParamKind::Int;
    trip.int_value = 4;
    in.values.push_back(trip);
    fp::InputValue fill;
    fill.kind = fp::ParamKind::Array;
    fill.fp_value = 1.0;
    in.values.push_back(fill);
    return in;
  }

  /// The fixture with its subscript replaced by the out-of-bounds constant 4
  /// — the exact program ddmin's binary->rhs edit would propose.
  [[nodiscard]] Program oob_variant() const {
    Program p = prog.clone();
    p.body().stmts.front()->body.stmts.front()->value =
        Expr::array(arr, Expr::int_const(4));
    return p;
  }
};

TEST(OracleStaticReject, UnsafeCandidateSpawnsZeroChildren) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"alpha", make_const_compiler(dir, "alpha", "7") + " {src} {bin}", ""},
      {"beta", make_const_compiler(dir, "beta", "42") + " {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  harness::SubprocessExecutor executor(impls, opt);

  const ArrayFixture f;
  const Program oob = f.oob_variant();
  const fp::InputSet input = f.input();
  const std::uint64_t rejects_before =
      telemetry::Registry::global().counter("reduce.static_rejects").value();

  InterestingnessOracle oracle(executor);
  InterestingnessOracle::Request request{&oob, &input};
  const auto verdicts = oracle.classify({&request, 1});

  // Rejected before any cache tier or dispatch: untrusted, zero children.
  EXPECT_FALSE(verdicts.front().trusted);
  EXPECT_EQ(oracle.stats().static_rejects, 1u);
  EXPECT_EQ(oracle.stats().untrusted_candidates, 1u);
  EXPECT_EQ(oracle.stats().executed_runs, 0u);
  EXPECT_EQ(oracle.stats().cached_runs, 0u);
  EXPECT_EQ(count_children(dir), 0);
  EXPECT_EQ(
      telemetry::Registry::global().counter("reduce.static_rejects").value(),
      rejects_before + 1);

  // The safe original still dispatches normally through the same oracle.
  InterestingnessOracle::Request safe{&f.prog, &input};
  const auto ok = oracle.classify({&safe, 1});
  EXPECT_TRUE(ok.front().trusted);
  EXPECT_EQ(oracle.stats().executed_runs, 2u);  // one per implementation
  EXPECT_GT(count_children(dir), 0);
}

// ------------------------------------------------- misbehaving executor ----

/// An executor that cannot deliver a batch: it returns one result fewer
/// than requested, or throws an exception that is not an ompfuzz::Error.
class BrokenBatchExecutor final : public harness::Executor {
 public:
  explicit BrokenBatchExecutor(bool throws) : throws_(throws) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase&, std::size_t,
                                    const std::string& impl) override {
    core::RunResult r;
    r.impl = impl;
    r.status = core::RunStatus::Ok;
    return r;
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& inputs,
      const std::vector<std::string>& impls) override {
    if (throws_) throw std::runtime_error("backend went away");
    auto results = Executor::run_batch(test, inputs, impls);
    results.pop_back();
    return results;
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return {"broken1", "broken2"};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  bool throws_;
};

TEST(OracleExecutorFaults, UndeliveredBatchIsUntrustedNotFatal) {
  const ArrayFixture f;  // safe: passes the value-range gate and dispatches
  const fp::InputSet input = f.input();
  for (const bool throws : {false, true}) {
    BrokenBatchExecutor executor(throws);
    InterestingnessOracle oracle(executor);
    InterestingnessOracle::Request request{&f.prog, &input};
    std::vector<InterestingnessOracle::Classification> verdicts;
    ASSERT_NO_THROW(verdicts = oracle.classify({&request, 1}))
        << "throws=" << throws;
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_FALSE(verdicts.front().trusted) << "throws=" << throws;
    EXPECT_EQ(oracle.stats().harness_failures, 2u) << "throws=" << throws;
    EXPECT_EQ(oracle.stats().untrusted_candidates, 1u);
    EXPECT_EQ(oracle.stats().static_rejects, 0u);
  }
}

/// Delegates to `inner`, except that its first `failing_calls` run_batch
/// calls return harness-failure runs, as a transient spawn failure would.
class FlakyExecutor final : public harness::Executor {
 public:
  FlakyExecutor(harness::Executor& inner, int failing_calls)
      : inner_(inner), failing_calls_(failing_calls) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl) override {
    return inner_.run(test, input_index, impl);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& inputs,
      const std::vector<std::string>& impls) override {
    std::vector<core::RunResult> results = inner_.run_batch(test, inputs, impls);
    if (calls_.fetch_add(1) < failing_calls_) {
      for (auto& r : results) {
        r.status = core::RunStatus::Crash;
        r.harness_failure = true;
      }
    }
    return results;
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

  [[nodiscard]] int calls() const noexcept { return calls_.load(); }

 private:
  harness::Executor& inner_;
  int failing_calls_;
  std::atomic<int> calls_{0};
};

TEST(OracleExecutorFaults, TransientHarnessFailureIsRetriedAndTrusted) {
  const Fixture f;
  const fp::InputSet input = f.input();
  const InterestingnessOracle::Request request{&f.prog, &input};

  harness::SimExecutor clean_executor;
  InterestingnessOracle clean(clean_executor);
  const auto expected = clean.classify({&request, 1});
  ASSERT_TRUE(expected.front().trusted);

  harness::SimExecutor inner;
  FlakyExecutor flaky(inner, /*failing_calls=*/1);
  InterestingnessOracle oracle(flaky);
  const auto verdicts = oracle.classify({&request, 1});
  EXPECT_TRUE(verdicts.front().trusted);
  EXPECT_EQ(verdicts.front().cls, expected.front().cls);
  EXPECT_EQ(oracle.stats().harness_failures, 0u);
  EXPECT_EQ(oracle.stats().untrusted_candidates, 0u);
  EXPECT_EQ(flaky.calls(), 2);  // the failed batch was dispatched again
}

TEST(OracleStats, IdenticalRequestsInOneBatchDispatchOnce) {
  const Fixture f;
  const Program copy = f.prog.clone();
  const fp::InputSet input = f.input();
  const std::vector<InterestingnessOracle::Request> requests = {
      {&f.prog, &input}, {&copy, &input}};
  for (int repeat = 0; repeat < 20; ++repeat) {
    harness::SimExecutor executor;
    const std::uint64_t nj = executor.implementations().size();
    OracleOptions options;
    options.threads = 4;
    InterestingnessOracle oracle(executor, options);
    const auto verdicts = oracle.classify(requests);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].cls, verdicts[1].cls);
    EXPECT_EQ(oracle.stats().executed_runs, nj) << "repeat " << repeat;
    EXPECT_EQ(oracle.stats().cached_runs, nj) << "repeat " << repeat;
  }
}

// ------------------------------------------------------ campaign retention -

TEST(CampaignRetention, DivergentTriplesCarrySourceAndAst) {
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(divergent_sim_config(), executor);
  const auto result = campaign.run();
  ASSERT_FALSE(result.divergent.empty());
  for (const auto& triple : result.divergent) {
    EXPECT_TRUE(triple.verdict_class.divergent());
    EXPECT_FALSE(triple.source.empty());
    EXPECT_FALSE(triple.input_text.empty());
    EXPECT_EQ(triple.source, emit::emit_translation_unit(triple.program));
    EXPECT_EQ(triple.input_text, triple.input.to_string());
    // The retained triple maps back to its outcome.
    bool found = false;
    for (const auto& outcome : result.outcomes) {
      if (outcome.program_index == triple.program_index &&
          outcome.input_index == triple.input_index) {
        EXPECT_EQ(outcome.program_name, triple.program_name);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(CampaignRetention, ResumedCampaignRetainsTheSameTriples) {
  const std::string dir = temp_dir();
  harness::SimExecutorOptions opt;
  opt.num_threads = divergent_sim_config().generator.num_threads;
  harness::SimExecutor executor(opt);

  StoreConfig store_cfg;
  store_cfg.enabled = true;
  store_cfg.dir = dir + "/store";
  std::uint64_t cold_puts = 0;
  harness::CampaignResult cold;
  {
    ResultStore store(store_cfg);
    harness::Campaign first(divergent_sim_config(), executor);
    first.set_result_store(&store);
    cold = first.run();
    cold_puts = store.stats().puts;
  }
  ASSERT_FALSE(cold.divergent.empty());
  ASSERT_GT(cold_puts, 0u);

  // A rerun on the warm store executes nothing: every run is a hit, and each
  // divergent triple comes from the program its unit generated (the store
  // has no AST). It must retain identical triples.
  ResultStore store(store_cfg);
  harness::Campaign resumed(divergent_sim_config(), executor);
  resumed.set_result_store(&store);
  const auto warm = resumed.run();
  EXPECT_EQ(store.stats().hits, cold_puts);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_EQ(store.stats().puts, 0u);
  ASSERT_EQ(warm.divergent.size(), cold.divergent.size());
  for (std::size_t i = 0; i < warm.divergent.size(); ++i) {
    EXPECT_EQ(warm.divergent[i].source, cold.divergent[i].source);
    EXPECT_EQ(warm.divergent[i].input_text, cold.divergent[i].input_text);
    EXPECT_EQ(warm.divergent[i].verdict_class, cold.divergent[i].verdict_class);
  }
}

}  // namespace
}  // namespace ompfuzz::reduce
