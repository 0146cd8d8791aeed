// Workloads of the end-to-end campaign benchmark, and what the timed run
// (main.cpp) and the traced run (traced.cpp) share: set-up, per-repetition
// resources, one timed Campaign::run, result digests and process clocks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/executor.hpp"
#include "harness/sim_executor.hpp"
#include "support/config.hpp"
#include "support/result_store.hpp"

namespace bench_e2e {

enum class Backend { Sim, Gxx };

/// One named workload: the campaign it runs and the backend that runs it.
struct Workload {
  Backend backend = Backend::Sim;
  /// Set-up fills a ResultStore cold; the measured phase re-runs the same
  /// campaign against it, every triple a hit. Otherwise there is no store.
  bool store_rerun = false;
  ompfuzz::CampaignConfig config;  ///< config.seed is the workload seed
  ompfuzz::harness::SimExecutorOptions sim;  ///< Sim only
  /// Gxx only: compile commands ({src}/{bin} templates) standing in for the
  /// three OpenMP implementations, and the subprocess executor's knobs.
  std::vector<ompfuzz::ImplementationSpec> compilers;
  ompfuzz::ExecutorConfig executor;
  /// Programs of the fixed-seed warm-up campaign that set-up runs (unused
  /// by store-rerun, whose set-up is the cold fill).
  int warmup_programs = 0;
};

/// The workload `name` drawn from `seed`; `smoke` shrinks it to a handful of
/// programs. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     bool smoke);

/// Enabled result-store configuration rooted at `dir`.
[[nodiscard]] ompfuzz::StoreConfig store_at(const std::string& dir);

/// A fresh directory under `parent` (created with its parents), removed with
/// its contents on destruction.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// What one set-up leaves for the measured phase.
struct Prepared {
  std::unique_ptr<TempDir> store_dir;       ///< store-rerun: the filled store
  std::vector<std::uint64_t> fill_digests;  ///< store-rerun: what the fill executed
  std::uint64_t fill_failed = 0;            ///< failed triples of the fill
};

/// One set-up: executor (and process pool) construction plus either the
/// fixed-seed warm-up campaign or, for store-rerun, the cold fill of a fresh
/// store. Temporary files go under `work_root`.
[[nodiscard]] Prepared set_up(const Workload& workload, const std::string& work_root);

/// Resources of one repetition: a fresh work_dir, a fresh executor and, for
/// store-rerun, a fresh ResultStore instance on the filled directory (a
/// reused instance would serve hits from its in-process memo, not disk).
struct Repetition {
  Repetition(const Workload& workload, const Prepared& prepared,
             const std::string& work_root);

  TempDir work;  ///< declared first: outlives the executor writing into it
  std::unique_ptr<ompfuzz::harness::Executor> executor;
  std::unique_ptr<ompfuzz::ResultStore> store;
};

/// One timed Campaign::run.
struct CampaignRun {
  ompfuzz::harness::CampaignResult result;
  ompfuzz::harness::SchedulerStats scheduler;
  double start = 0.0;  ///< wall_s() when run() was called
  double wall = 0.0;   ///< seconds inside run()
  double cpu = 0.0;    ///< CPU seconds of the process and its children inside run()
};

/// Runs `config` on `executor`, consulting and filling `store` when non-null.
[[nodiscard]] CampaignRun run_campaign(
    const ompfuzz::CampaignConfig& config, ompfuzz::harness::Executor& executor,
    ompfuzz::ResultStore* store,
    const ompfuzz::harness::ProgressFn& progress = nullptr);

/// One digest per (program, input, implementation) triple, in campaign
/// order. On the simulated backend, which is deterministic, it covers the
/// status, the output and time bits, the verdict class and the outlier
/// verdict. A compiled program is not: its OpenMP reductions combine the
/// threads' partial sums in arrival order, so its output (and the verdict
/// class and Slow/Fast verdicts derived from outputs and times) can change
/// from run to run — one -O0 binary printed either -4764017.41... or NaN for
/// the same input. There the digest covers the status alone.
[[nodiscard]] std::vector<std::uint64_t> triple_digests(
    const ompfuzz::harness::CampaignResult& result, Backend backend);

/// Failed triples of one campaign: runs the harness fabricated (retries and
/// failover exhausted, i.e. quarantined) and, when `reference` is non-empty,
/// triples whose digest differs from it.
[[nodiscard]] std::uint64_t failed_triples(
    const ompfuzz::harness::CampaignResult& result,
    const std::vector<std::uint64_t>& digests,
    const std::vector<std::uint64_t>& reference);

/// Order-sensitive digest of a digest list, and its 16-digit hex form.
[[nodiscard]] std::uint64_t combine(const std::vector<std::uint64_t>& digests);
[[nodiscard]] std::string hex(std::uint64_t value);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the result object and a detail line.
struct BenchResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string digest;  ///< hex campaign digest every repetition must match
  std::vector<std::pair<std::string, double>> detail;  ///< sample counts, spreads
};

/// The traced run (traced.cpp): per-layer metrics of one workload.
[[nodiscard]] BenchResult run_traced(const Workload& workload,
                                     const std::string& work_root,
                                     const std::string& trace_file);

[[nodiscard]] double wall_s();       ///< steady clock, seconds
[[nodiscard]] double cpu_s();        ///< user+sys of this process and its reaped children
[[nodiscard]] double peak_rss_mb();  ///< peak resident set of this process

}  // namespace bench_e2e
