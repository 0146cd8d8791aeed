// Framework throughput microbenchmarks (google-benchmark): the engineering
// quantities behind the paper's "thousands of tests" claim — how fast the
// framework generates, validates, emits, and executes tests.
#include <benchmark/benchmark.h>

#include "core/generator.hpp"
#include "core/grammar.hpp"
#include "core/outlier.hpp"
#include "analysis/race_analyzer.hpp"
#include "emit/codegen.hpp"
#include "fp/input_gen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"

namespace {

using namespace ompfuzz;

GeneratorConfig bench_config() {
  GeneratorConfig cfg;
  cfg.num_threads = 32;
  cfg.max_loop_trip_count = 50;
  return cfg;
}

void BM_GenerateProgram(benchmark::State& state) {
  const core::ProgramGenerator gen(bench_config());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate("bench", seed++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerateProgram);

void BM_RaceCheck(benchmark::State& state) {
  const core::ProgramGenerator gen(bench_config());
  const auto prog = gen.generate("bench", 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_races(prog));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaceCheck);

void BM_ConformanceCheck(benchmark::State& state) {
  const auto cfg = bench_config();
  const core::ProgramGenerator gen(cfg);
  const auto prog = gen.generate("bench", 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_conformance(prog, cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConformanceCheck);

void BM_EmitTranslationUnit(benchmark::State& state) {
  const core::ProgramGenerator gen(bench_config());
  const auto prog = gen.generate("bench", 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emit::emit_translation_unit(prog));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitTranslationUnit);

void BM_GenerateInputs(benchmark::State& state) {
  const core::ProgramGenerator gen(bench_config());
  const auto prog = gen.generate("bench", 42);
  const auto sig = prog.signature();
  const fp::InputGenerator input_gen;
  RandomEngine rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(input_gen.generate(sig, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerateInputs);

void BM_InterpretProgram(benchmark::State& state) {
  // Thread count swept: the serial-in-region replication factor.
  const core::ProgramGenerator gen(bench_config());
  const auto prog = gen.generate("bench", 11);
  const fp::InputGenerator input_gen;
  RandomEngine rng(7);
  const auto input = input_gen.generate(prog.signature(), rng);
  interp::InterpOptions opt;
  opt.num_threads_override = static_cast<int>(state.range(0));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = interp::execute(prog, input, opt);
    steps += result.steps;
    benchmark::DoNotOptimize(result.comp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_InterpretProgram)->Arg(1)->Arg(8)->Arg(32);

void BM_OutlierAnalysis(benchmark::State& state) {
  const core::OutlierDetector det({0.2, 1.5, 1000.0});
  const std::vector<core::RunResult> runs = {
      {"gcc", core::RunStatus::Ok, 5100.0, 1.0},
      {"clang", core::RunStatus::Ok, 5000.0, 1.0},
      {"intel", core::RunStatus::Ok, 9000.0, 1.0},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.analyze(runs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutlierAnalysis);

void BM_CampaignEngine(benchmark::State& state) {
  // Whole campaign phase (generate -> validate -> run x3 impls -> classify)
  // under the sharded engine; the argument sweeps the worker-thread count,
  // so the serial-vs-N-threads rows report the engine's scaling directly.
  // Wall-clock (real time) is the relevant axis for a multithreaded phase.
  CampaignConfig cfg;
  cfg.generator = bench_config();
  cfg.num_programs = 24;
  cfg.inputs_per_program = 2;
  cfg.threads = static_cast<int>(state.range(0));
  harness::SimExecutorOptions opt;
  opt.num_threads = 32;
  harness::SimExecutor exec(opt);
  int total_runs = 0;
  for (auto _ : state) {
    harness::Campaign campaign(cfg, exec);
    const auto result = campaign.run();
    total_runs += result.total_runs;
    benchmark::DoNotOptimize(result.total_runs);
  }
  state.SetItemsProcessed(total_runs);
  state.counters["threads"] = static_cast<double>(cfg.threads);
}
BENCHMARK(BM_CampaignEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_FullTestAcrossThreeImpls(benchmark::State& state) {
  // One complete differential test: 3 interpretations + pricing + verdict.
  CampaignConfig cfg;
  cfg.generator = bench_config();
  harness::SimExecutorOptions opt;
  opt.num_threads = 32;
  harness::SimExecutor exec(opt);
  harness::Campaign campaign(cfg, exec);
  const auto test = campaign.make_test_case(3);
  const core::OutlierDetector det({0.2, 1.5, 1000.0});
  for (auto _ : state) {
    std::vector<core::RunResult> runs;
    for (const auto& impl : exec.implementations()) {
      runs.push_back(exec.run(test, 0, impl));
    }
    benchmark::DoNotOptimize(det.analyze(runs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullTestAcrossThreeImpls);

}  // namespace

BENCHMARK_MAIN();
