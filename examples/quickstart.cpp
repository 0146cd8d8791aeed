// Quickstart: generate one random OpenMP test, look at its source, run it
// under the three simulated OpenMP implementations, and classify the result.
//
//   $ ./quickstart [seed]
//
// This is the smallest end-to-end tour of the public API:
//   core::ProgramGenerator  -> random OpenMP program (paper Section III)
//   fp::InputGenerator      -> random floating-point inputs (Section III-D)
//   emit::emit_translation_unit -> compilable C++ (what a real compiler sees)
//   harness::SimExecutor    -> differential execution across implementations
//   core::OutlierDetector   -> the Section IV outlier verdict
#include <cstdio>
#include <cstdlib>

#include "core/generator.hpp"
#include "core/outlier.hpp"
#include "analysis/race_analyzer.hpp"
#include "emit/codegen.hpp"
#include "fp/input_gen.hpp"
#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "support/string_utils.hpp"

int main(int argc, char** argv) {
  using namespace ompfuzz;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // 1. Generate a random OpenMP test program.
  GeneratorConfig gen_cfg;
  gen_cfg.num_threads = 32;
  gen_cfg.max_loop_trip_count = 100;
  const core::ProgramGenerator generator(gen_cfg);
  const ast::Program program = generator.generate("quickstart", seed);
  std::printf("--- generated test (seed %llu) "
              "----------------------------------\n%s\n",
              static_cast<unsigned long long>(seed),
              emit::emit_translation_unit(program).c_str());

  // 2. It is race-free by construction; verify with the static checker.
  const auto races = analysis::analyze_races(program);
  std::printf("race checker: %s\n\n",
              races.race_free() ? "race-free" : "RACY (unexpected!)");

  // 3. Generate one random floating-point input for its signature.
  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = gen_cfg.max_loop_trip_count;
  const fp::InputGenerator input_gen(in_opt);
  RandomEngine rng(seed + 1);
  const fp::InputSet input = input_gen.generate(program.signature(), rng);
  std::printf("input: %s\n\n", input.to_string().c_str());

  // 4. Execute under the three vendor-modeled implementations.
  harness::SimExecutorOptions exec_opt;
  exec_opt.num_threads = gen_cfg.num_threads;
  harness::SimExecutor executor(exec_opt);
  harness::TestCase test;
  test.program = program.clone();
  test.features = ast::analyze(test.program);
  test.inputs.push_back(input);

  std::vector<core::RunResult> runs;
  for (const auto& impl : executor.implementations()) {
    runs.push_back(executor.run(test, 0, impl));
    const auto& r = runs.back();
    std::printf("%-6s -> %-5s  output=%-24s time=%.0f us\n", r.impl.c_str(),
                core::to_string(r.status), format_double(r.output).c_str(),
                r.time_us);
  }

  // 5. Differential verdict (alpha/beta of the paper's evaluation).
  const core::OutlierDetector detector({0.2, 1.5, 0.0});
  const auto verdict = detector.analyze(runs);
  std::printf("\nverdict: midpoint %.0f us; ", verdict.midpoint_us);
  bool any = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (verdict.per_run[i] != core::OutlierKind::None) {
      std::printf("%s is a %s outlier! ", runs[i].impl.c_str(),
                  core::to_string(verdict.per_run[i]));
      any = true;
    }
  }
  std::printf("%s\n", any ? "" : "no outliers on this test — generate more "
                                 "(see campaign_demo).");
  return 0;
}
