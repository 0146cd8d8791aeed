// Reducer demo: campaign -> divergent triples -> minimal programs.
//
//   $ ./reduce_demo [num_programs] [seed] [store_dir]
//
// Runs a small simulated campaign (three vendor profiles, so floating-point
// semantics differences produce genuinely divergent outputs), then reduces
// every divergent (program, input, implementation set) triple with the
// verdict-preserving reducer. Prints the paper-style campaign table, the
// reduction table, the oracle's execution/cache counters, and the first
// reduced program in full; each reduced source is also written to
// `reduced_<test>_in<input>.cpp`.
//
// With a store_dir argument the interestingness oracle caches every
// candidate classification in a persistent result store: re-running the
// demo replays the whole reduction from the cache (zero interpreter work
// for repeated candidates, zero children with a subprocess backend).
//
// Exits 0 only if at least one triple reproduced its divergence and every
// reproduced triple shrank — the CI smoke step relies on this.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "reduce/campaign_reduce.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"

namespace {

int run_demo(int argc, char** argv) {
  using namespace ompfuzz;

  CampaignConfig cfg;
  cfg.num_programs = argc > 1 ? std::atoi(argv[1]) : 8;
  cfg.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 51966;
  cfg.inputs_per_program = 3;
  cfg.generator.max_loop_trip_count = 100;
  cfg.threads = 0;

  harness::SimExecutorOptions opt;
  opt.num_threads = cfg.generator.num_threads;
  harness::SimExecutor executor(opt);

  std::unique_ptr<ResultStore> store;
  if (argc > 3) {
    StoreConfig store_cfg;
    store_cfg.enabled = true;
    store_cfg.dir = argv[3];
    store = std::make_unique<ResultStore>(store_cfg);
    std::printf("oracle result store: %s\n", store_cfg.dir.c_str());
  }

  harness::Campaign campaign(cfg, executor);
  if (store) campaign.set_result_store(store.get());
  const auto result = campaign.run();

  std::printf("campaign: %d programs x %d inputs, seed %llu -> %zu divergent "
              "triples\n\n",
              cfg.num_programs, cfg.inputs_per_program,
              static_cast<unsigned long long>(cfg.seed),
              result.divergent.size());
  std::printf("%s\n", harness::render_table1(result).c_str());
  if (result.divergent.empty()) {
    std::printf("no divergent triples to reduce (try another seed)\n");
    return 1;
  }

  const auto report = reduce::reduce_campaign(
      result, campaign.backends(), store.get(), {}, [](int done, int total) {
        std::fprintf(stderr, "  reduced %d/%d triples\n", done, total);
      });

  std::printf("\n%s\n",
              reduce::render_reduction_table(report.reductions).c_str());
  std::printf("oracle: %llu candidates in %llu batches, %llu runs executed, "
              "%llu served by the store\n\n",
              static_cast<unsigned long long>(report.oracle_stats.candidates),
              static_cast<unsigned long long>(report.oracle_stats.batches),
              static_cast<unsigned long long>(report.oracle_stats.executed_runs),
              static_cast<unsigned long long>(report.oracle_stats.cached_runs));

  bool any_reproduced = false;
  bool all_shrank = true;
  for (const auto& row : report.reductions) {
    if (!row.reproduced) continue;
    any_reproduced = true;
    if (row.reduced_statements >= row.original_statements) all_shrank = false;
    const std::string path = "reduced_" + row.program_name + "_in" +
                             std::to_string(row.input_index) + ".cpp";
    std::ofstream out(path);
    out << row.reduced_source;
    std::printf("wrote %s (%zu -> %zu statements)\n", path.c_str(),
                row.original_statements, row.reduced_statements);
  }

  for (const auto& row : report.reductions) {
    if (!row.reproduced) continue;
    std::printf("\nfirst reduced program (%s, input %d, class \"%s\"):\n\n%s",
                row.program_name.c_str(), row.input_index,
                row.verdict_text.c_str(), row.reduced_source.c_str());
    break;
  }

  if (!any_reproduced) {
    std::printf("no triple reproduced its divergence under this executor\n");
    return 1;
  }
  if (!all_shrank) {
    std::printf("a reproduced triple failed to shrink\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_demo(argc, argv);
  } catch (const ompfuzz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
