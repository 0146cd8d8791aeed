// Integration tests across the whole pipeline, including the real-compiler
// path: emitted programs must compile with the system g++ -fopenmp, run, and
// produce output bit-identical to the in-process interpreter (single-thread
// teams, where OpenMP leaves no ordering freedom).
#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/differ.hpp"
#include "core/generator.hpp"
#include "emit/codegen.hpp"
#include "fp/input_gen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "interp/interp.hpp"
#include "support/string_utils.hpp"
#include "test_util.hpp"

namespace ompfuzz {
namespace {

bool have_gxx() {
  return std::system("g++ --version > /dev/null 2>&1") == 0;
}

// --------------------------------------------------- run_process helper ----

TEST(RunProcess, CapturesStdout) {
  const auto r = harness::run_process({"/bin/echo", "hello"}, 5000);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "hello\n");
  EXPECT_FALSE(r.timed_out);
}

TEST(RunProcess, ReportsExitCode) {
  const auto r = harness::run_process({"/bin/sh", "-c", "exit 3"}, 5000);
  EXPECT_EQ(r.exit_code, 3);
}

TEST(RunProcess, TimesOutAndKills) {
  const auto r = harness::run_process({"/bin/sleep", "30"}, 300);
  EXPECT_TRUE(r.timed_out);
}

TEST(RunProcess, MissingBinaryIsFailure) {
  const auto r = harness::run_process({"/nonexistent/binary"}, 2000);
  EXPECT_NE(r.exit_code, 0);
}

// --------------------------------------------------- real compiler path ----

/// Compiles `code` with g++ -fopenmp and runs it with `argv`; returns stdout.
std::string compile_and_run(const std::string& dir, const std::string& code,
                            const std::vector<std::string>& args) {
  const std::string src = dir + "/t.cpp";
  const std::string bin = dir + "/t.bin";
  {
    std::ofstream out(src);
    out << code;
  }
  const auto compile = harness::run_process(
      {"g++", "-std=c++17", "-fopenmp", "-O2", src, "-o", bin}, 60000);
  EXPECT_EQ(compile.exit_code, 0) << "emitted program failed to compile";
  std::vector<std::string> argv = {bin};
  for (const auto& a : args) argv.push_back(a);
  const auto run = harness::run_process(argv, 30000);
  EXPECT_EQ(run.exit_code, 0);
  return run.output;
}

TEST(RealCompile, EmittedProgramsCompileAndRun) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  GeneratorConfig cfg;
  cfg.num_threads = 2;
  cfg.max_loop_trip_count = 20;
  const core::ProgramGenerator gen(cfg);
  const std::string dir = temp_dir();

  const auto prog = gen.generate("it_compile", 4242);
  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = 20;
  const fp::InputGenerator input_gen(in_opt);
  RandomEngine rng(7);
  const auto input = input_gen.generate(prog.signature(), rng);

  const std::string out =
      compile_and_run(dir, emit::emit_translation_unit(prog), input.to_argv());
  const auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[1], "time_us: "));
}

bool have_readelf() {
  return std::system("readelf --version > /dev/null 2>&1") == 0;
}

// The harness around compute() references nothing in libstdc++.so (see
// emit/codegen.hpp), so a campaign program's binary must not load it, and
// its clock_gettime timing must still print.
TEST(RealCompile, EmittedBinaryDoesNotNeedLibstdcxx) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  if (!have_readelf()) GTEST_SKIP() << "no readelf available";
  CampaignConfig cfg;
  cfg.num_programs = 1;
  cfg.inputs_per_program = 1;
  cfg.generator.max_loop_trip_count = 10;
  harness::SimExecutor sim;
  const harness::Campaign campaign(cfg, sim);
  const auto test = campaign.make_test_case(0);

  const std::string dir = temp_dir();
  const std::string src = dir + "/t.cpp";
  const std::string bin = dir + "/t.bin";
  std::ofstream(src) << emit::emit_translation_unit(test.program);
  const auto compile =
      harness::run_process({"g++", "-fopenmp", "-O0", src, "-o", bin}, 60000);
  ASSERT_EQ(compile.exit_code, 0) << "emitted program failed to compile";

  const auto dynamic = harness::run_process({"readelf", "-d", bin}, 10000);
  ASSERT_EQ(dynamic.exit_code, 0);
  int needed = 0;
  for (const auto& entry : split(dynamic.output, '\n')) {
    if (entry.find("(NEEDED)") == std::string::npos) continue;
    ++needed;
    EXPECT_EQ(entry.find("libstdc++"), std::string::npos) << entry;
  }
  EXPECT_GT(needed, 0) << dynamic.output;  // at least libc

  std::vector<std::string> argv = {bin};
  for (const auto& a : test.inputs[0].to_argv()) argv.push_back(a);
  const auto run = harness::run_process(argv, 30000);
  ASSERT_EQ(run.exit_code, 0);
  const auto lines = split(run.output, '\n');
  ASSERT_GE(lines.size(), 2u) << run.output;
  ASSERT_TRUE(starts_with(lines[1], "time_us: ")) << run.output;
  const std::string digits = lines[1].substr(9);
  ASSERT_FALSE(digits.empty());
  char* end = nullptr;
  const long long us = std::strtoll(digits.c_str(), &end, 10);
  EXPECT_EQ(*end, '\0') << lines[1];
  EXPECT_GE(us, 0);
}

// Property: on single-thread teams, the interpreter and the real compiled
// binary agree bit for bit on the printed comp value.
class InterpVsBinary : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpVsBinary, OutputsMatchBitwise) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  GeneratorConfig cfg;
  cfg.num_threads = 1;  // no scheduling freedom: results must match exactly
  cfg.max_loop_trip_count = 15;
  const core::ProgramGenerator gen(cfg);
  const std::string dir = temp_dir();

  const auto prog = gen.generate("it_eq", GetParam());
  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = 15;
  const fp::InputGenerator input_gen(in_opt);
  RandomEngine rng(GetParam() + 1);
  const auto input = input_gen.generate(prog.signature(), rng);

  const auto interp_result = interp::execute(prog, input, {});
  ASSERT_TRUE(interp_result.ok);

  const std::string out =
      compile_and_run(dir, emit::emit_translation_unit(prog), input.to_argv());
  const auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 1u);
  const double binary_comp = std::strtod(lines[0].c_str(), nullptr);

  if (std::isnan(interp_result.comp)) {
    EXPECT_TRUE(std::isnan(binary_comp)) << "binary printed " << lines[0];
  } else {
    EXPECT_EQ(binary_comp, interp_result.comp)
        << "binary=" << lines[0]
        << " interp=" << format_double(interp_result.comp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpVsBinary,
                         ::testing::Values(11, 22, 33, 44, 55));

// A serial loop whose body assigns its own bound: the interpreter reads the
// bound once (4 iterations), so the emitted loop must too, not re-test it
// against the new value (574 iterations).
TEST(RealCompile, SerialLoopReadsItsBoundOnce) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  using ast::VarKind;
  using ast::VarRole;
  ast::Program prog;
  prog.set_name("bound_once");
  const ast::VarId comp = prog.add_var(
      {"comp", VarKind::FpScalar, VarRole::Comp, ast::FpWidth::F64, 0});
  prog.set_comp(comp);
  const ast::VarId n = prog.add_var(
      {"var_1", VarKind::IntScalar, VarRole::Param, ast::FpWidth::F64, 0});
  prog.add_param(n);
  const ast::VarId i = prog.add_var(
      {"i_1", VarKind::IntScalar, VarRole::LoopIndex, ast::FpWidth::F64, 0});
  ast::Block body;
  body.stmts.push_back(ast::Stmt::assign(ast::LValue{n, nullptr},
                                         ast::AssignOp::Assign,
                                         ast::Expr::int_const(574)));
  body.stmts.push_back(ast::Stmt::assign(ast::LValue{comp, nullptr},
                                         ast::AssignOp::AddAssign,
                                         ast::Expr::fp_const(1.0)));
  prog.body().stmts.push_back(
      ast::Stmt::for_loop(i, ast::Expr::var(n), std::move(body), false));
  prog.validate();

  fp::InputSet input;
  fp::InputValue bound;
  bound.kind = fp::ParamKind::Int;
  bound.int_value = 4;
  input.values.push_back(bound);

  const auto interp_result = interp::execute(prog, input, {});
  ASSERT_TRUE(interp_result.ok);
  ASSERT_EQ(interp_result.comp, 4.0);

  const std::string dir = temp_dir();
  const std::string src = dir + "/t.cpp";
  const std::string bin = dir + "/t.bin";
  std::ofstream(src) << emit::emit_translation_unit(prog);
  const auto compile =
      harness::run_process({"g++", "-fopenmp", "-O0", src, "-o", bin}, 60000);
  ASSERT_EQ(compile.exit_code, 0) << "emitted program failed to compile";
  std::vector<std::string> argv = {bin};
  for (const auto& a : input.to_argv()) argv.push_back(a);
  const auto run = harness::run_process(argv, 30000);
  ASSERT_EQ(run.exit_code, 0);
  const auto lines = split(run.output, '\n');
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(std::strtod(lines[0].c_str(), nullptr), interp_result.comp)
      << "binary printed " << lines[0];
}

// --------------------------------------------------- subprocess executor ---

TEST(SubprocessExecutorTest, RunsDifferentialCampaignWithOptLevels) {
  if (!have_gxx()) GTEST_SKIP() << "no g++ available";
  const std::string dir = temp_dir();
  // Optimization levels stand in for distinct OpenMP implementations.
  std::vector<ImplementationSpec> impls = {
      {"gxx-O0", "g++ -std=c++17 -fopenmp -O0 {src} -o {bin}", ""},
      {"gxx-O2", "g++ -std=c++17 -fopenmp -O2 {src} -o {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir;
  opt.run_timeout_ms = 30000;
  harness::SubprocessExecutor exec(std::move(impls), opt);

  CampaignConfig cfg;
  cfg.num_programs = 2;
  cfg.inputs_per_program = 1;
  cfg.generator.num_threads = 2;
  cfg.generator.max_loop_trip_count = 10;
  cfg.min_time_us = 0;
  harness::Campaign campaign(cfg, exec);
  const auto result = campaign.run();
  EXPECT_EQ(result.total_runs, 4);
  int ok_runs = 0;
  for (const auto& o : result.outcomes) {
    for (const auto& r : o.runs) {
      ok_runs += (r.status == core::RunStatus::Ok);
    }
  }
  EXPECT_EQ(ok_runs, 4) << "all real-compiler runs should terminate OK";
  // Both optimization levels of the same compiler must agree numerically
  // (num_threads(2), but our generated tests are race-free and -O2 keeps
  // IEEE semantics for everything except reduction order).
  for (const auto& o : result.outcomes) {
    if (o.runs[0].status == core::RunStatus::Ok &&
        o.runs[1].status == core::RunStatus::Ok &&
        !std::isnan(o.runs[0].output) && !std::isnan(o.runs[1].output)) {
      const auto cmp = core::compare_outputs(o.runs[0].output, o.runs[1].output);
      EXPECT_TRUE(cmp.equivalent)
          << o.program_name << ": " << o.runs[0].output << " vs "
          << o.runs[1].output;
    }
  }
}

TEST(SubprocessExecutorTest, CompileFailureBecomesCrash) {
  const std::string dir = temp_dir();
  std::vector<ImplementationSpec> impls = {
      {"broken", "/bin/false {src} {bin}", ""},
  };
  harness::SubprocessOptions opt;
  opt.work_dir = dir;
  harness::SubprocessExecutor exec(std::move(impls), opt);

  CampaignConfig cfg;
  cfg.num_programs = 1;
  cfg.inputs_per_program = 1;
  cfg.generator.num_threads = 2;
  cfg.generator.max_loop_trip_count = 5;
  harness::Campaign campaign(cfg, exec);
  const auto result = campaign.run();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].runs[0].status, core::RunStatus::Crash);
}

// --------------------------------------------------- determinism sweep -----

TEST(EndToEnd, SimCampaignFullyDeterministicAcrossProcesses) {
  // Not literally across processes here, but across independent executor and
  // campaign instances, which exercises all the state the process boundary
  // would reset.
  CampaignConfig cfg;
  cfg.num_programs = 5;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 8;
  cfg.generator.max_loop_trip_count = 30;
  harness::SimExecutorOptions opt;
  opt.num_threads = 8;

  std::vector<std::string> fingerprints;
  for (int round = 0; round < 2; ++round) {
    harness::SimExecutor exec(opt);
    harness::Campaign campaign(cfg, exec);
    const auto result = campaign.run();
    std::string fp;
    for (const auto& o : result.outcomes) {
      for (std::size_t r = 0; r < o.runs.size(); ++r) {
        fp += core::to_string(o.runs[r].status);
        fp += format_double(o.runs[r].time_us);
        fp += core::to_string(o.verdict.per_run[r]);
      }
    }
    fingerprints.push_back(std::move(fp));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace ompfuzz
