// Campaign demo: the full Figure 1 workflow at configurable scale, driven by
// an INI configuration file exactly like the paper's step (a).
//
//   $ ./campaign_demo [config.ini] [--resume] [--reduce] [--backends N]
//                     [--inject-faults RATE] [--features LIST]
//                     [--trace FILE] [--metrics FILE] [--heartbeat]
//
// Every flag but --resume and --reduce sets one config key before the file
// is parsed (README "Configuration" maps them), so it gets that key's checks.
// --features takes a subset of {atomic, single, master, schedule, rangeidx};
// off gates draw nothing from the generator's RNG, so the default program
// stream is bit-identical to builds that predate them. A bad flag, key,
// section or value prints `config error: ...` to stderr and exits 2.
//
// Without a config argument it uses a built-in 40-program configuration over
// the simulated backend. Implementations whose value is a compile command
// (instead of "profile: NAME") select the real-compiler subprocess backend,
// tuned by the [executor] section (max_inflight, concurrent_runs, ...).
// The [scheduler] section splits the implementation list into contiguous
// backends, each all simulated or all subprocess; the JSON report is
// bit-identical for every split.
//
// With `[store] enabled = true` every executed triple is persisted in a
// content-addressed run cache under `store.dir`, so a re-run (or a killed run
// started again) executes only triples whose key is not stored, and a changed
// configuration changes the keys. `--resume` is an alias for that default.
// With `--reduce` every retained divergent triple is minimized against all of
// the campaign's backends; the reduced sources land in
// campaign_reductions.json, which is byte-identical for every backend split.
//
// Faults (`--inject-faults` or `[faults]`) and telemetry (`--trace`,
// `--metrics`, `--heartbeat` or `[telemetry]`) never change the JSON report:
// retries absorb injected harness faults, and traces, metric
// snapshots and the heartbeat go to their own files and stderr.
//
// The report prints the Table I counts for the campaign plus the most
// extreme outliers, and writes a machine-readable JSON report next to the
// binary.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/campaign_metrics.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "reduce/campaign_reduce.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/result_store.hpp"
#include "support/telemetry.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(
; ompfuzz campaign configuration (paper Section V-A shape, laptop scale)
[generator]
max_expression_size = 5
max_nesting_levels = 3
max_lines_in_block = 10
array_size = 1000
max_same_level_blocks = 3
math_func_allowed = true
math_func_probability = 0.01
num_threads = 32
max_loop_trip_count = 100

[campaign]
num_programs = 40
inputs_per_program = 3
seed = 51966
alpha = 0.2
beta = 1.5
min_time_us = 1000

[implementations]
gcc = profile: libgomp
clang = profile: libomp
intel = profile: libiomp5
)";

/// The config key each value flag sets.
constexpr std::pair<std::string_view, const char*> kValueFlags[] = {
    {"--backends", "scheduler.backends"},
    {"--features", "generator.features"},
    {"--trace", "telemetry.trace_file"},
    {"--metrics", "telemetry.metrics_file"},
    {"--inject-faults", "faults.rate"},
};

int run_demo(int argc, char** argv) {
  using namespace ompfuzz;

  bool resume = false;
  bool reduce_divergent = false;
  std::vector<std::pair<std::string, std::string>> flag_keys;
  std::string config_path;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    const auto* flag = std::find_if(
        std::begin(kValueFlags), std::end(kValueFlags),
        [&](const auto& f) { return f.first == arg; });
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--reduce") {
      reduce_divergent = true;
    } else if (arg == "--heartbeat") {
      flag_keys.emplace_back("telemetry.heartbeat", "true");
    } else if (flag != std::end(kValueFlags)) {
      // Must not fall through to the config-path branch on a missing value:
      // the flag would silently become the config file path.
      if (a + 1 >= argc) {
        throw ConfigError(std::string(arg) + " needs a value for " + flag->second);
      }
      if (arg == "--inject-faults") flag_keys.emplace_back("faults.enabled", "true");
      flag_keys.emplace_back(flag->second, argv[++a]);
    } else if (arg.starts_with("-")) {
      throw ConfigError("unknown flag '" + std::string(arg) + "'");
    } else {
      config_path = arg;
    }
  }
  ConfigFile file = !config_path.empty() ? ConfigFile::load(config_path)
                                         : ConfigFile::parse(kDefaultConfig);
  for (const auto& [key, value] : flag_keys) file.set(key, value);
  const CampaignConfig cfg = CampaignConfig::from_config(file);
  const TelemetryConfig telemetry_cfg = TelemetryConfig::from_config(file);

  const FaultConfig faults = FaultConfig::from_config(file);
  if (faults.enabled) {
    FaultInjector::instance().configure(faults);
    std::printf("fault injection: rate=%.3f seed=%llu sites=%s\n", faults.rate,
                static_cast<unsigned long long>(faults.seed),
                faults.sites.empty() ? "all" : faults.sites.c_str());
  }
  std::printf("campaign: %d programs x %d inputs, alpha=%.2f beta=%.2f, "
              "%zu implementations\n\n",
              cfg.num_programs, cfg.inputs_per_program, cfg.alpha, cfg.beta,
              cfg.implementations.size());

  const SchedulerConfig sched = SchedulerConfig::from_config(file);
  const auto num_backends = static_cast<std::size_t>(sched.backends);
  if (num_backends > cfg.implementations.size()) {
    throw ConfigError("scheduler.backends exceeds the implementation count");
  }

  // Split the implementation list into `scheduler.backends` contiguous,
  // as-equal-as-possible groups. Each group must be homogeneous — all
  // "profile:" entries (one simulated backend) or all compile commands (one
  // subprocess pool). Mixing kinds ACROSS groups is the point of the split
  // (a simulated oracle next to real toolchains in one campaign); mixing
  // within one group is refused loudly, because falling back to simulation
  // would quietly simulate an implementation the user gave a real compile
  // command for.
  const ExecutorConfig ecfg = ExecutorConfig::from_config(file);
  std::vector<std::unique_ptr<harness::Executor>> executors;
  std::vector<harness::CampaignBackend> backends;
  const std::size_t base = cfg.implementations.size() / num_backends;
  const std::size_t extra = cfg.implementations.size() % num_backends;
  std::size_t next = 0;
  for (std::size_t g = 0; g < num_backends; ++g) {
    const std::size_t count = base + (g < extra ? 1 : 0);
    const std::vector<ImplementationSpec> group(
        cfg.implementations.begin() + static_cast<std::ptrdiff_t>(next),
        cfg.implementations.begin() + static_cast<std::ptrdiff_t>(next + count));
    next += count;
    const auto has_command = [](const ImplementationSpec& impl) {
      return !impl.compile_command.empty();
    };
    const bool subprocess_group =
        std::all_of(group.begin(), group.end(), has_command);
    if (!subprocess_group &&
        std::any_of(group.begin(), group.end(), has_command)) {
      throw ConfigError(
          "backend " + std::to_string(g) +
          " mixes compile commands and 'profile:' entries; reorder the "
          "implementations or adjust scheduler.backends so every backend "
          "group is one kind");
    }
    std::string name;
    if (subprocess_group) {
      name = "subprocess" + std::to_string(g);
      executors.push_back(std::make_unique<harness::SubprocessExecutor>(
          group, harness::to_subprocess_options(ecfg)));
      std::printf("backend %s: work_dir=%s max_inflight=%d "
                  "concurrent_runs=%s\n",
                  name.c_str(), ecfg.work_dir.c_str(), ecfg.max_inflight,
                  ecfg.concurrent_runs ? "true" : "false");
    } else {
      name = "sim" + std::to_string(g);
      harness::SimExecutorOptions opt;
      opt.num_threads = cfg.generator.num_threads;
      // Map the configured implementations onto simulated profiles.
      std::vector<rt::OmpImplProfile> profiles;
      for (const auto& impl : group) {
        auto profile = rt::profile_by_name(
            impl.profile.empty() ? impl.name : impl.profile);
        profile.name = impl.name;
        profiles.push_back(std::move(profile));
      }
      executors.push_back(std::make_unique<harness::SimExecutor>(
          std::move(profiles), opt));
    }
    backends.push_back({executors.back().get(), name});
  }
  if (num_backends > 1) std::printf("scheduler: %zu backends\n", num_backends);
  std::printf("\n");

  harness::Campaign campaign(cfg, backends);

  const StoreConfig store_cfg = StoreConfig::from_config(file);
  std::unique_ptr<ResultStore> store;
  if (store_cfg.enabled) {
    store = std::make_unique<ResultStore>(store_cfg);
    campaign.set_result_store(store.get());
    std::printf("result store: dir=%s\n\n", store_cfg.dir.c_str());
  } else if (resume) {
    throw ConfigError("--resume needs '[store] enabled = true' in the config");
  }

  if (!telemetry_cfg.trace_file.empty()) {
    telemetry::Tracer::instance().start(telemetry_cfg.trace_file);
  }
  MetricsSampler sampler(telemetry_cfg);
  sampler.start();

  const auto result = campaign.run([](int done, int total) {
    if (done % 10 == 0 || done == total) {
      std::fprintf(stderr, "  %d/%d programs\n", done, total);
    }
  });

  sampler.stop();
  if (!telemetry_cfg.trace_file.empty()) {
    if (telemetry::Tracer::instance().stop()) {
      std::printf("trace written to %s\n\n", telemetry_cfg.trace_file.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   telemetry_cfg.trace_file.c_str());
    }
  }

  if (store) {
    const auto stats = store->stats();
    std::printf("store: %llu hits, %llu misses, %llu puts in %s\n\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.puts),
                store->dir().c_str());
  }

  // One snapshot feeds every summary below: the renderers read the registry
  // counters scoped to this run (run_metrics() subtracts the pre-run
  // baseline), so the stdout summaries and campaign_metrics.json agree.
  const telemetry::MetricsSnapshot run_metrics = campaign.run_metrics();
  std::printf("%s\n", harness::render_table1(result).c_str());
  std::printf("%s\n", harness::render_summary(result).c_str());
  std::printf("%s\n",
              harness::render_scheduler_summary(campaign.backends(),
                                                run_metrics)
                  .c_str());
  std::printf("%s\n",
              harness::render_analysis_summary(result, run_metrics).c_str());
  std::printf("%s\n",
              harness::render_robustness_summary(result, run_metrics).c_str());
  std::printf("%s\n", harness::render_outlier_list(result, 10).c_str());

  if (reduce_divergent) {
    std::printf("reducing %zu divergent triples...\n", result.divergent.size());
    const auto reduction_report = reduce::reduce_campaign(
        result, campaign.backends(), store.get(), {},
        [](int done, int total) {
          std::fprintf(stderr, "  reduced %d/%d triples\n", done, total);
        });
    std::printf("%s\n",
                reduce::render_reduction_table(reduction_report.reductions)
                    .c_str());
    const auto& ostats = reduction_report.oracle_stats;
    std::printf("reduction oracle: %llu candidates, %llu runs executed, "
                "%llu served without a dispatch\n\n",
                static_cast<unsigned long long>(ostats.candidates),
                static_cast<unsigned long long>(ostats.executed_runs),
                static_cast<unsigned long long>(ostats.cached_runs));
    std::ofstream reductions_json("campaign_reductions.json");
    reductions_json << reduce::reductions_to_json(reduction_report.reductions);
    std::printf("reduced sources written to campaign_reductions.json\n");
  }

  const std::string json_path = "campaign_report.json";
  std::ofstream json(json_path);
  json << harness::to_json(result);
  std::printf("full JSON report written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_demo(argc, argv);
  } catch (const ompfuzz::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());  // "config error: ..."
    return 2;
  } catch (const ompfuzz::Error& e) {
    // Valid config the environment cannot honour, e.g. an uncreatable
    // [store] dir or work_dir.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
