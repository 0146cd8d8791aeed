// Campaign orchestration: the full workflow of the paper's Figure 1.
//
//   (a) generate `num_programs` random programs (each validated race-free —
//       racy drafts are regenerated and counted, implementing the paper's
//       "filter out data race cases" as an automatic step) and
//       `inputs_per_program` random inputs each;
//   (b,c) execute every (program, input) under every implementation through
//       an Executor;
//   (d) classify each test's runs with the outlier detector and the output
//       differ; aggregate per-implementation counts (Table I).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/access_set.hpp"
#include "analysis/findings.hpp"
#include "core/differ.hpp"
#include "core/generator.hpp"
#include "core/outlier.hpp"
#include "harness/executor.hpp"
#include "support/config.hpp"
#include "support/result_store.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

/// Result of one test (program + one input) across all implementations.
struct TestOutcome {
  int program_index = 0;
  int input_index = 0;
  std::string program_name;
  std::string input_text;
  std::vector<core::RunResult> runs;        ///< one per implementation
  core::OutlierVerdict verdict;
  core::OutputDivergence divergence;        ///< aligned with `runs`
};

struct ImplOutlierCounts {
  int slow = 0;
  int fast = 0;
  int crash = 0;
  int hang = 0;
  /// Fast outliers whose output diverged from the consensus (the paper's
  /// NaN/control-flow attribution, Section V-B).
  int fast_with_divergence = 0;

  [[nodiscard]] int total() const noexcept { return slow + fast + crash + hang; }
};

/// One divergent (program, input, implementation set) triple, retained with
/// everything a test-case reducer or a bug report needs: the AST (the
/// reducer's working representation), the parsed input values, and the
/// emitted source + argv text (the reportable artifact). A program's unit
/// builds its triples from the TestCase it executed, so neither the campaign
/// nor the reducer generates the program again.
struct DivergentTriple {
  int program_index = 0;
  int input_index = 0;
  std::string program_name;
  ast::Program program;            ///< deep copy of the generated AST
  fp::InputSet input;              ///< the diverging input values
  std::string source;              ///< emitted translation unit
  std::string input_text;          ///< argv serialization of `input`
  core::VerdictClass verdict_class;  ///< the class a reduction must preserve
};

/// Static-analysis accounting of the generation phase, folded by each unit's
/// make_test_case as it analyses its program's drafts and summed by the
/// merge, one per program. The draft stream is a pure function of the
/// config, so the
/// numbers are bit-identical across thread counts, backend splits, and
/// store-backed reruns — they can live in the report JSON.
struct StaticAnalysisStats {
  int programs_checked = 0;   ///< drafts run through analyze_races
  int programs_filtered = 0;  ///< racy drafts discarded and regenerated
  /// Findings across filtered drafts, indexed by analysis::RaceKind.
  std::array<int, analysis::kNumRaceKinds> findings_by_kind{};
  /// Interval-precision delta over the same drafts: how many checked drafts
  /// the affine-only baseline would have filtered as racy that value-range
  /// analysis proves clean. Every rescued draft is a regeneration (and its
  /// analysis + generation cost) the campaign did not pay. Zero unless the
  /// grammar emits range-separated subscripts (the `rangeidx` generator
  /// feature).
  int interval_rescued_drafts = 0;
  /// Access pairs across all checked drafts proved race-free purely by
  /// interval disjointness (affine subtraction was inconclusive).
  std::uint64_t interval_disjoint_pairs = 0;
  /// `x % c` subscript wrappers the interval engine proved to be identity
  /// rewrites, reclassifying the subscript for the affine test.
  std::uint64_t interval_mod_rewrites = 0;

  /// Folds one draft, with its race-filter report and interval counters. A
  /// clean draft on which an interval pair or a mod rewrite fired is
  /// analysed again affine-only to count a rescue; with both counters at 0
  /// the affine-only verdict is the same, so that pass is skipped.
  void add_draft(const ast::Program& draft, const analysis::RaceReport& report,
                 const analysis::AnalyzerStats& precision);
  StaticAnalysisStats& operator+=(const StaticAnalysisStats& other);
  bool operator==(const StaticAnalysisStats&) const = default;
};

/// One (program, input, implementation) triple whose run could not be
/// obtained even after retries: the merged result carries a fabricated Crash
/// run (harness_failure) in that column, and the report's `robustness` block
/// lists the triple. Content and order are deterministic (programs in order,
/// inputs in order, implementations in column order), so the block is
/// split-invariant like the rest of the JSON.
struct QuarantineRecord {
  int program_index = 0;
  int input_index = 0;
  std::string impl;
  std::string program_name;
};

/// Robustness accounting that is safe to keep in the report JSON. Under a
/// fault-free campaign — and equally under transient injected faults that
/// retries fully absorb — both lists are empty, which is what keeps a
/// fault-injected report byte-identical to the clean baseline. Only
/// permanently lost work appears here. How hard the campaign tried (retries
/// fired, sub-shards fabricated) varies with fault timing and thread interleaving,
/// so those counters live only in the telemetry registry (`campaign.*`, read
/// through Campaign::run_metrics()).
struct RobustnessStats {
  std::vector<QuarantineRecord> quarantined;
  /// Backends declared dead: their remaining columns are fabricated (and
  /// quarantined) from the death point on.
  std::vector<std::string> lost_backends;
};

struct CampaignResult {
  std::vector<std::string> impl_names;
  std::vector<TestOutcome> outcomes;
  /// Divergent triples in (program, input) order. ast::Program is move-only,
  /// so retaining them makes CampaignResult move-only too.
  std::vector<DivergentTriple> divergent;
  std::map<std::string, ImplOutlierCounts> per_impl;

  int total_runs = 0;
  int total_tests = 0;       ///< programs x inputs
  int analyzable_tests = 0;  ///< passed the minimum-time filter
  int skipped_runs = 0;      ///< interpreter budget exceeded
  int regenerated_programs = 0;  ///< racy drafts discarded during generation
  StaticAnalysisStats analysis;  ///< generation-phase race-filter accounting
  RobustnessStats robustness;    ///< quarantined triples + lost backends

  [[nodiscard]] int outlier_runs() const;
  [[nodiscard]] double outlier_rate() const;  ///< outlier runs / total runs
};

/// Progress callback: (programs done, total programs). Fires from the
/// campaign's worker threads in completion order (counts stay monotonic, and
/// calls never overlap).
using ProgressFn = std::function<void(int, int)>;

/// One execution backend of a multi-backend campaign: a (non-owned) executor
/// plus a stable name used by the reports.
struct CampaignBackend {
  Executor* executor = nullptr;
  std::string name;
};

/// One backend as its run path sees it, fixed before any test runs on it.
struct BackendPlan {
  Executor* executor = nullptr;
  /// Implementation names in executor order: the backend's columns.
  std::vector<std::string> impls;
  /// store_impl_identity of each column; an empty one is never cached.
  std::vector<std::string> identities;
  /// Serializes run_batch calls when the executor is not thread-safe (null
  /// otherwise); other backends keep running in parallel around it.
  std::unique_ptr<std::mutex> exec_mutex;
};

/// Plans every backend, in order. Throws unless there is at least one, each
/// has an executor and a unique non-empty name, and no implementation name
/// appears twice across backends (runs are keyed by implementation name).
[[nodiscard]] std::vector<BackendPlan> plan_backends(
    const std::vector<CampaignBackend>& backends);

/// The runs of one test under one backend.
struct BackendRuns {
  std::vector<core::RunResult> runs;  ///< inputs x backend impls, input-major
  std::uint64_t executed = 0;  ///< triples the store could not serve
  std::uint64_t served = 0;    ///< triples served by the store
};

/// Runs every (input, implementation) pair of `test` on one backend: the one
/// path from a test to its runs, shared by the campaign and the reduction
/// oracle. Triples whose key is in `store` are served from it; the rest are
/// grouped by missing-input set and dispatched through run_batch (under the
/// backend's lock), and every run that is not a harness failure is written
/// back. A batch the executor cannot deliver (it threw, returned a short
/// batch, or the Dispatch fault site fired) is fabricated as harness
/// failures, and failed triples are re-dispatched up to
/// `retry.max_attempts` times with bounded exponential backoff. Genuine runs
/// are kept across retries, so a transient fault leaves no trace. Retrying
/// stops early once `*stop` is set.
[[nodiscard]] BackendRuns run_on_backend(const BackendPlan& backend,
                                         const TestCase& test, ResultStore* store,
                                         const RetryConfig& retry,
                                         const std::atomic<bool>* stop = nullptr);

/// What one run() dispatched (throughput bookkeeping only — results never
/// depend on it). A unit is one program; each runs its (program, backend)
/// sub-shards one after another, so `batches` always equals `units` and
/// `stolen_units` is always 0; both stay because the end-to-end benchmark
/// reports them.
struct SchedulerStats {
  std::uint64_t batches = 0;
  std::uint64_t units = 0;  ///< (program, backend) sub-shards executed
  std::uint64_t stolen_units = 0;
};

/// A campaign's cached references into the process-wide telemetry registry.
/// Registered once at construction so the hot paths (campaign workers,
/// make_test_case) never pay a registry lookup; the names are the public
/// metrics catalog entry points (see README "Observability").
struct CampaignMetrics {
  telemetry::Counter* fabricated_units;  ///< campaign.fabricated_units
  telemetry::Counter* analysis_nanos;    ///< campaign.analysis_nanos
  telemetry::Counter* analyzed_drafts;   ///< campaign.analyzed_drafts
  telemetry::Gauge* units_total;         ///< campaign.units_total
  telemetry::Gauge* units_done;          ///< campaign.units_done
  telemetry::Gauge* live_backends;       ///< campaign.live_backends
  telemetry::Histogram* unit_micros;     ///< campaign.unit_micros
  CampaignMetrics();
};

class Campaign {
 public:
  /// Single-backend campaign: every implementation of `executor` runs under
  /// one backend named "default".
  Campaign(CampaignConfig config, Executor& executor);

  /// Multi-backend campaign: each backend executes its executor's
  /// implementation subset for every program, and the per-backend runs merge
  /// — in backend order, implementations in executor order within each — into
  /// one CampaignResult. Implementation names must be unique across backends
  /// and backend names unique and non-empty.
  Campaign(CampaignConfig config, std::vector<CampaignBackend> backends);

  /// Runs the whole campaign. Deterministic given the config seed and the
  /// executors (SimExecutor is fully deterministic): one unit per program
  /// runs on a pool of `config.threads` workers — generate, every backend in
  /// order, classify — and the units are aggregated in program order, so the
  /// result is bit-identical for every thread count and backend split — and,
  /// with a result store attached, identical whether each run was executed
  /// or served from the store (verdicts are recomputed from the raw runs).
  [[nodiscard]] CampaignResult run(const ProgressFn& progress = nullptr);

  /// Generates the i-th test case of this campaign, folding every draft it
  /// analyses into `accounting` when one is given. A campaign calls it once
  /// per program; it is public so benches and the case-study analysis can
  /// re-create a specific test.
  [[nodiscard]] TestCase make_test_case(
      int program_index, StaticAnalysisStats* accounting = nullptr) const;

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// Attaches a persistent run cache (not owned; may be shared between
  /// campaigns). Before dispatching a sub-shard, every (program, input,
  /// impl) triple whose key is cached is satisfied from the store; executed
  /// triples are written back durably as sub-shards complete. This is also how
  /// a killed campaign resumes: re-running it on the same store executes
  /// only the triples whose records were never written. Implementations
  /// whose executor reports an empty impl_identity() are never cached.
  void set_result_store(ResultStore* store) noexcept { store_ = store; }

  /// Every registered metric as a delta since the last run() started
  /// (counters/histograms subtract their run-start baseline, gauges stay
  /// instantaneous) — what the demo's summary renderers and the store stats
  /// line print. Before the first run(): deltas from construction.
  [[nodiscard]] telemetry::MetricsSnapshot run_metrics() const {
    return telemetry::Registry::global().snapshot().delta_from(metrics_base_);
  }

  /// What the last run() dispatched. Bookkeeping only — results never
  /// depend on it.
  [[nodiscard]] const SchedulerStats& scheduler_stats() const noexcept {
    return scheduler_stats_;
  }

  [[nodiscard]] const std::vector<CampaignBackend>& backends() const noexcept {
    return backends_;
  }

 private:
  CampaignConfig config_;
  std::vector<CampaignBackend> backends_;
  std::vector<BackendPlan> plan_;  ///< one per backend, in order
  core::ProgramGenerator generator_;
  ResultStore* store_ = nullptr;
  SchedulerStats scheduler_stats_;
  CampaignMetrics metrics_;
  /// Registry values when the last run() started (construction before that):
  /// the process-wide counters are monotonic, so run_metrics() reports
  /// deltas from this baseline.
  telemetry::MetricsSnapshot metrics_base_;
};

/// Finds the analyzable outcome where `impl` is flagged with `kind`,
/// preferring the most extreme time ratio. Returns nullptr if none.
[[nodiscard]] const TestOutcome* find_outcome(const CampaignResult& result,
                                              const std::string& impl,
                                              core::OutlierKind kind);

}  // namespace ompfuzz::harness
