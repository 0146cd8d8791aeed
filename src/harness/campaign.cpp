#include "harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/race_analyzer.hpp"
#include "emit/codegen.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ompfuzz::harness {

int CampaignResult::outlier_runs() const {
  int n = 0;
  for (const auto& [name, counts] : per_impl) n += counts.total();
  return n;
}

double CampaignResult::outlier_rate() const {
  return total_runs == 0 ? 0.0
                         : static_cast<double>(outlier_runs()) /
                               static_cast<double>(total_runs);
}

void StaticAnalysisStats::add_draft(const ast::Program& draft,
                                    const analysis::RaceReport& report,
                                    const analysis::AnalyzerStats& precision) {
  ++programs_checked;
  interval_disjoint_pairs += precision.interval_disjoint_pairs;
  interval_mod_rewrites += precision.mod_rewrites;
  if (report.race_free()) {
    // A clean draft on which no interval pair and no mod rewrite fired has
    // the same subscript classes and conflicts affine-only: nothing rescued.
    const bool intervals_fired =
        precision.interval_disjoint_pairs != 0 || precision.mod_rewrites != 0;
    if (intervals_fired &&
        !analysis::analyze_races(draft, {.use_intervals = false}).race_free()) {
      ++interval_rescued_drafts;
    }
    return;
  }
  ++programs_filtered;
  for (const auto& f : report.findings) ++findings_by_kind[static_cast<int>(f.kind)];
}

StaticAnalysisStats& StaticAnalysisStats::operator+=(const StaticAnalysisStats& other) {
  programs_checked += other.programs_checked;
  programs_filtered += other.programs_filtered;
  for (std::size_t k = 0; k < findings_by_kind.size(); ++k) {
    findings_by_kind[k] += other.findings_by_kind[k];
  }
  interval_rescued_drafts += other.interval_rescued_drafts;
  interval_disjoint_pairs += other.interval_disjoint_pairs;
  interval_mod_rewrites += other.interval_mod_rewrites;
  return *this;
}

CampaignMetrics::CampaignMetrics() {
  auto& registry = telemetry::Registry::global();
  // Registered here so a run without retries reports them at zero;
  // run_on_backend adds to them.
  registry.counter("campaign.retried_triples");
  registry.counter("campaign.retry_rounds");
  fabricated_units = &registry.counter("campaign.fabricated_units");
  analysis_nanos = &registry.counter("campaign.analysis_nanos");
  analyzed_drafts = &registry.counter("campaign.analyzed_drafts");
  units_total = &registry.gauge("campaign.units_total");
  units_done = &registry.gauge("campaign.units_done");
  live_backends = &registry.gauge("campaign.live_backends");
  unit_micros = &registry.histogram("campaign.unit_micros");
}

Campaign::Campaign(CampaignConfig config, Executor& executor)
    : Campaign(std::move(config),
               std::vector<CampaignBackend>{{&executor, "default"}}) {}

Campaign::Campaign(CampaignConfig config, std::vector<CampaignBackend> backends)
    : config_(std::move(config)), backends_(std::move(backends)),
      generator_(config_.generator) {
  config_.validate();
  plan_ = plan_backends(backends_);
  // Baseline from construction, so run_metrics() reads zero until run()
  // re-baselines it (the registry counters are process-wide and monotonic
  // across campaigns).
  metrics_base_ = telemetry::Registry::global().snapshot();
}

TestCase Campaign::make_test_case(int program_index,
                                  StaticAnalysisStats* accounting) const {
  telemetry::ScopedSpan span("generate", "make_test_case");
  if (span.active()) span.arg("program", program_index);
  RandomEngine campaign_rng(config_.seed);
  RandomEngine program_rng =
      campaign_rng.fork(static_cast<std::uint64_t>(program_index));

  TestCase test;
  test.seed = program_rng.next_u64();
  // Regenerate racy drafts: the paper filtered race cases manually
  // (Section III, Limitations); the automated pipeline regenerates instead
  // so every shipped test is race-free by the static checker.
  constexpr int kMaxAttempts = 16;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t seed = hash_combine(test.seed, attempt);
    ast::Program candidate = generator_.generate(
        "test_" + std::to_string(program_index), seed);
    telemetry::ScopedSpan check_span("analysis", "check_races");
    analysis::AnalyzerStats precision;
    const auto t0 = std::chrono::steady_clock::now();
    const analysis::RaceReport report = analysis::analyze_races(
        candidate, {}, accounting != nullptr ? &precision : nullptr);
    metrics_.analysis_nanos->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    metrics_.analyzed_drafts->add();
    const bool race_free = report.race_free();
    if (check_span.active()) {
      check_span.arg("fingerprint",
                     telemetry::hex_fingerprint(candidate.fingerprint()));
      check_span.arg("race_free", race_free ? "yes" : "no");
    }
    if (accounting != nullptr) accounting->add_draft(candidate, report, precision);
    if (race_free) {
      test.program = std::move(candidate);
      test.regeneration_attempts = attempt;
      break;
    }
    OMPFUZZ_CHECK(attempt + 1 < kMaxAttempts,
                  "could not generate a race-free program in 16 attempts");
  }
  test.features = ast::analyze(test.program);

  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = config_.generator.max_loop_trip_count;
  // Same high bias as the generator's static bounds: tiny trip counts would
  // put most tests under the minimum-time analysis filter.
  in_opt.min_trip_count =
      std::max<std::int64_t>(1, config_.generator.max_loop_trip_count / 4);
  const fp::InputGenerator input_gen(in_opt);
  const auto signature = test.program.signature();
  RandomEngine input_rng = program_rng.fork(0x1457);
  for (int i = 0; i < config_.inputs_per_program; ++i) {
    test.inputs.push_back(input_gen.generate(signature, input_rng));
  }
  return test;
}

namespace {

/// One program's classified result, built by the program's unit and
/// aggregated in program order so a scheduled campaign is bit-identical to a
/// serial one. Classification sees ALL backends of a program: the outlier
/// analysis compares an implementation against the whole team, which spans
/// backends.
struct MergedShard {
  std::vector<TestOutcome> outcomes;
  std::vector<DivergentTriple> divergent;
  StaticAnalysisStats analysis;
};

/// Computes the verdict and output divergence of one outcome from its raw
/// runs. Deterministic, so outcomes assembled from cached runs classify
/// bit-identically to a cold run.
void classify_outcome(TestOutcome& outcome, const core::OutlierDetector& detector) {
  outcome.verdict = detector.analyze(outcome.runs);

  // Output divergence across the OK runs (NaN-aware majority vote);
  // non-OK runs are marked non-divergent placeholders. The paper's driver
  // compares the printed outputs, and %.17g round-trips doubles exactly —
  // so divergence is bitwise (exact tolerance). The reducer's oracle
  // classifies candidates through the same function, so "divergent" means
  // the same thing to the campaign and to a reduction.
  outcome.divergence =
      core::analyze_run_outputs(outcome.runs, core::exact_tolerance());
}

/// Retains every divergent (program, input) pair of one shard — AST, input
/// values, emitted source — from the TestCase its runs were executed on, so
/// the reducer and the reports work from the campaign's own artifacts. The
/// first triple takes over `test.program`; later ones get copies.
void collect_divergent(MergedShard& shard, TestCase& test, int p) {
  std::string source;  // emitted once, shared by all divergent inputs
  for (const TestOutcome& outcome : shard.outcomes) {
    // The time-independent verdict class, derived from the stored
    // divergence so it cannot drift from what classify_outcome computed.
    const core::VerdictClass cls =
        core::classify_runs(outcome.runs, outcome.divergence);
    if (!cls.divergent()) continue;
    if (source.empty()) source = emit::emit_translation_unit(test.program);
    DivergentTriple triple;
    triple.program_index = p;
    triple.input_index = outcome.input_index;
    triple.program_name = outcome.program_name;
    triple.program = shard.divergent.empty()
                         ? std::move(test.program)
                         : shard.divergent.front().program.clone();
    triple.input = test.inputs[static_cast<std::size_t>(outcome.input_index)];
    triple.source = source;
    triple.input_text = outcome.input_text;
    triple.verdict_class = cls;
    shard.divergent.push_back(std::move(triple));
  }
}

/// A fabricated "the harness could not run this triple" result: Crash with
/// harness_failure set, the shape every other infrastructure-failure path
/// (spawn failure, compile timeout) already produces. Analyzed like a Crash
/// within this campaign, never persisted, and — once retries are exhausted —
/// surfaced as a QuarantineRecord.
core::RunResult fabricated_run(const std::string& impl_name) {
  core::RunResult result;
  result.impl = impl_name;
  result.status = core::RunStatus::Crash;
  result.harness_failure = true;
  return result;
}

/// Implementations that share the same set of still-needed inputs, dispatched
/// to the executor as one run_batch call.
struct BatchGroup {
  std::vector<std::size_t> missing_inputs;
  std::vector<std::size_t> impl_ids;
};

/// Groups the needed triples of an input-major `need` mask (ni x nj) by
/// missing-input set, implementations in column order.
std::vector<BatchGroup> group_pending(const std::vector<char>& need,
                                      std::size_t ni, std::size_t nj) {
  std::vector<BatchGroup> groups;
  for (std::size_t j = 0; j < nj; ++j) {
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < ni; ++i) {
      if (need[i * nj + j]) missing.push_back(i);
    }
    if (missing.empty()) continue;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const BatchGroup& g) {
      return g.missing_inputs == missing;
    });
    if (it == groups.end()) {
      groups.push_back({std::move(missing), {j}});
    } else {
      it->impl_ids.push_back(j);
    }
  }
  return groups;
}

}  // namespace

std::vector<BackendPlan> plan_backends(const std::vector<CampaignBackend>& backends) {
  OMPFUZZ_CHECK(!backends.empty(), "needs at least one backend");
  std::set<std::string> backend_names;
  std::set<std::string> impl_names;
  std::vector<BackendPlan> plan;
  plan.reserve(backends.size());
  for (const auto& backend : backends) {
    OMPFUZZ_CHECK(backend.executor != nullptr, "backend needs an executor");
    OMPFUZZ_CHECK(!backend.name.empty(), "backend needs a name");
    OMPFUZZ_CHECK(backend_names.insert(backend.name).second,
                  "duplicate backend name: " + backend.name);
    BackendPlan& planned = plan.emplace_back();
    planned.executor = backend.executor;
    planned.impls = backend.executor->implementations();
    for (const auto& name : planned.impls) {
      // Uniqueness across backends: the merged result is keyed by
      // implementation name, and a duplicate would make two backends' runs
      // indistinguishable in every report.
      OMPFUZZ_CHECK(impl_names.insert(name).second,
                    "implementation '" + name + "' appears in several backends");
      planned.identities.push_back(
          store_impl_identity(name, backend.executor->impl_identity(name)));
    }
    if (!backend.executor->thread_safe()) {
      planned.exec_mutex = std::make_unique<std::mutex>();
    }
  }
  return plan;
}

BackendRuns run_on_backend(const BackendPlan& backend, const TestCase& test,
                           ResultStore* store, const RetryConfig& retry,
                           const std::atomic<bool>* stop) {
  const std::uint64_t fingerprint = test.program.fingerprint();
  const std::size_t ni = test.inputs.size();
  const std::size_t nj = backend.impls.size();
  std::vector<std::string> input_texts;
  input_texts.reserve(ni);
  for (const auto& input : test.inputs) input_texts.push_back(input.to_string());

  const auto key_for = [&](std::size_t i, std::size_t j) {
    return RunKey{fingerprint, input_texts[i], backend.identities[j]};
  };

  // Consult the run cache triple-by-triple. `need` marks the triples the
  // executor still owes; dispatch_pending fills `runs` for exactly those and
  // the retry loop below narrows `need` to whatever came back as a harness
  // failure.
  BackendRuns out;
  out.runs.resize(ni * nj);
  std::vector<char> need(ni * nj, 1);
  if (store != nullptr) {
    for (std::size_t j = 0; j < nj; ++j) {
      if (backend.identities[j].empty()) continue;
      for (std::size_t i = 0; i < ni; ++i) {
        if (auto hit = store->lookup(key_for(i, j))) {
          out.runs[i * nj + j] = std::move(*hit);
          need[i * nj + j] = 0;
          ++out.served;
        }
      }
    }
  }
  out.executed = ni * nj - out.served;

  // Batch the needed triples: implementations sharing the same missing
  // input set go to the executor in one run_batch call (the pipelined
  // backend overlaps all of its children), in implementation order. A cold
  // or store-less test therefore degenerates to one batched call covering
  // every (input, impl) pair of this backend — and a fully warm one
  // dispatches nothing at all. The input-major result order is part of the
  // run_batch contract.
  const auto dispatch_pending = [&] {
    for (const auto& group : group_pending(need, ni, nj)) {
      std::vector<std::string> group_impls;
      group_impls.reserve(group.impl_ids.size());
      for (const std::size_t j : group.impl_ids) group_impls.push_back(backend.impls[j]);

      std::vector<core::RunResult> batch;
      bool delivered = !inject_fault(FaultSite::Dispatch);
      if (delivered) {
        try {
          std::unique_lock<std::mutex> lock;
          if (backend.exec_mutex) lock = std::unique_lock<std::mutex>(*backend.exec_mutex);
          batch = backend.executor->run_batch(test, group.missing_inputs, group_impls);
        } catch (const std::exception&) {
          delivered = false;
        }
        if (delivered &&
            batch.size() != group.missing_inputs.size() * group_impls.size()) {
          delivered = false;  // short batch
        }
      }
      if (!delivered) {
        for (const std::size_t i : group.missing_inputs) {
          for (const std::size_t j : group.impl_ids) {
            out.runs[i * nj + j] = fabricated_run(backend.impls[j]);
          }
        }
        continue;
      }

      for (std::size_t ii = 0; ii < group.missing_inputs.size(); ++ii) {
        for (std::size_t jj = 0; jj < group.impl_ids.size(); ++jj) {
          const std::size_t i = group.missing_inputs[ii];
          const std::size_t j = group.impl_ids[jj];
          core::RunResult& result = batch[ii * group.impl_ids.size() + jj];
          if (store != nullptr && !backend.identities[j].empty() &&
              !result.harness_failure) {
            store->put(key_for(i, j), result);
          }
          out.runs[i * nj + j] = std::move(result);
        }
      }
    }
  };

  dispatch_pending();

  // Retry only the failed triples, with bounded exponential backoff. The
  // re-dispatch is identical to the original (same TestCase, same RunKeys),
  // so a triple that succeeds on any attempt is indistinguishable from one
  // that succeeded immediately.
  std::int64_t delay_ms = std::min(retry.base_ms, retry.cap_ms);
  for (int attempt = 1; attempt < retry.max_attempts; ++attempt) {
    std::uint64_t failed = 0;
    for (std::size_t idx = 0; idx < ni * nj; ++idx) {
      need[idx] = need[idx] && out.runs[idx].harness_failure;
      if (need[idx]) ++failed;
    }
    if (failed == 0) break;
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    auto& registry = telemetry::Registry::global();
    registry.counter("campaign.retry_rounds").add();
    registry.counter("campaign.retried_triples").add(failed);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    delay_ms = std::min(retry.cap_ms, delay_ms * 2);
    dispatch_pending();
  }
  return out;
}

namespace {

/// Runs of a dead backend: every one is a fabricated harness failure.
std::vector<core::RunResult> fabricate_runs(const std::vector<std::string>& impl_names,
                                            std::size_t num_inputs) {
  std::vector<core::RunResult> runs;
  runs.reserve(num_inputs * impl_names.size());
  for (std::size_t i = 0; i < num_inputs; ++i) {
    for (const auto& name : impl_names) runs.push_back(fabricated_run(name));
  }
  return runs;
}

// --------------------------------------------------------- execute phase ----

/// Joins program `p`'s backend runs — backend columns concatenated per input
/// row — classifies every outcome, and retains the divergent ones from
/// `test`, the TestCase the unit executed (its program is moved into the
/// first divergent triple). `analysis` is that unit's draft accounting.
MergedShard merge_program(const std::vector<BackendPlan>& plan,
                          const core::OutlierDetector& detector, TestCase& test,
                          const StaticAnalysisStats& analysis, int p,
                          std::vector<std::vector<core::RunResult>>& row) {
  telemetry::ScopedSpan span("campaign", "classify_program");
  if (span.active()) span.arg("program", p);
  MergedShard shard;
  shard.analysis = analysis;
  const std::size_t ni = test.inputs.size();
  shard.outcomes.reserve(ni);
  for (std::size_t i = 0; i < ni; ++i) {
    TestOutcome outcome;
    outcome.program_index = p;
    outcome.input_index = static_cast<int>(i);
    outcome.program_name = test.program.name();
    outcome.input_text = test.inputs[i].to_string();
    for (std::size_t b = 0; b < row.size(); ++b) {
      const std::size_t nj = plan[b].impls.size();
      const auto begin = row[b].begin() + static_cast<std::ptrdiff_t>(i * nj);
      outcome.runs.insert(outcome.runs.end(), std::make_move_iterator(begin),
                          std::make_move_iterator(
                              begin + static_cast<std::ptrdiff_t>(nj)));
    }
    classify_outcome(outcome, detector);
    shard.outcomes.push_back(std::move(outcome));
  }
  collect_divergent(shard, test, p);
  return shard;
}

/// What the execute phase hands to the merge.
struct Execution {
  std::vector<MergedShard> programs;  ///< classified, indexed by program
  /// Backends declared dead, in backend order.
  std::vector<std::string> lost_backends;
  SchedulerStats scheduler_stats;
};

/// Runs one unit per program on a pool of `config.threads` workers. Units
/// are deterministic in isolation thanks to the per-program
/// RandomEngine::fork streams in make_test_case, and every executed triple
/// reaches the store as its (program, backend) sub-shard completes, so a
/// killed campaign re-run on the same store executes only the triples that
/// never got there. A unit classifies its program (merge_program) from its
/// own TestCase, so no program is generated again for the merge.
Execution execute_units(const Campaign& campaign,
                        const std::vector<BackendPlan>& plan,
                        ResultStore* store, const CampaignMetrics& metrics,
                        const ProgressFn& progress) {
  const auto& backends = campaign.backends();
  const std::size_t nb = backends.size();
  const CampaignConfig& config = campaign.config();
  const int num_programs = config.num_programs;
  const auto np = static_cast<std::size_t>(num_programs);

  // Backend health: a backend whose sub-shards keep coming back exhausted
  // (tainted even after run_on_backend's retries) is declared dead after
  // `retry.backend_death_threshold` consecutive tainted sub-shards. From
  // then on its sub-shards are fabricated without touching the executor and
  // surface as quarantined triples plus a lost_backends entry.
  struct BackendHealth {
    std::atomic<int> consecutive{0};
    std::atomic<bool> dead{false};
  };
  std::vector<BackendHealth> health(nb);
  metrics.live_backends->set(static_cast<std::int64_t>(nb));
  const int death_threshold = config.retry.backend_death_threshold;

  // Executes one (program, backend) sub-shard on `test`, or fabricates it
  // once the backend is dead, updating the health streak.
  const auto execute_unit = [&](std::size_t b, const TestCase& test,
                                int p) -> std::vector<core::RunResult> {
    if (health[b].dead.load(std::memory_order_acquire)) {
      metrics.fabricated_units->add();
      return fabricate_runs(plan[b].impls, test.inputs.size());
    }
    telemetry::ScopedSpan span("run-batch", "shard_unit");
    if (span.active()) {
      span.arg("program", p);
      span.arg("backend", static_cast<int>(b));
      span.arg("fingerprint", telemetry::hex_fingerprint(test.program.fingerprint()));
    }
    std::vector<core::RunResult> runs =
        run_on_backend(plan[b], test, store, config.retry, &health[b].dead).runs;
    if (std::none_of(runs.begin(), runs.end(),
                     [](const core::RunResult& r) { return r.harness_failure; })) {
      health[b].consecutive.store(0, std::memory_order_relaxed);
      return runs;
    }
    const int streak =
        health[b].consecutive.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (streak >= death_threshold &&
        !health[b].dead.exchange(true, std::memory_order_release)) {
      metrics.live_backends->add(-1);
    }
    return runs;
  };

  core::OutlierParams params;
  params.alpha = config.alpha;
  params.beta = config.beta;
  params.min_time_us = static_cast<double>(config.min_time_us);
  const core::OutlierDetector detector(params);

  Execution out;
  out.programs.resize(np);
  int completed = 0;
  std::mutex progress_mutex;
  // Live-progress gauges for the sampler/heartbeat.
  metrics.units_total->set(num_programs);
  metrics.units_done->set(0);

  // Unit p is program p: generated once, run under every backend in backend
  // order, then classified against the whole team.
  const auto run_unit = [&](int p) {
    const std::uint64_t t0 = telemetry::Tracer::now_ns();
    StaticAnalysisStats analysis;
    TestCase test = campaign.make_test_case(p, &analysis);
    std::vector<std::vector<core::RunResult>> row;
    row.reserve(nb);
    for (std::size_t b = 0; b < nb; ++b) row.push_back(execute_unit(b, test, p));
    metrics.unit_micros->record((telemetry::Tracer::now_ns() - t0) / 1000);
    metrics.units_done->add(1);
    out.programs[static_cast<std::size_t>(p)] =
        merge_program(plan, detector, test, analysis, p, row);
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++completed, num_programs);
    }
  };

  SchedulerStats& stats = out.scheduler_stats;
  stats.units = np * nb;
  stats.batches = stats.units;
  telemetry::Registry::global().counter("scheduler.units").add(stats.units);
  {
    telemetry::ScopedSpan schedule_span("campaign", "schedule");
    if (schedule_span.active()) schedule_span.arg("units", num_programs);
    // Every unit runs, and reaches the store, before parallel_for rethrows
    // the first exception.
    ThreadPool pool(std::min(resolve_thread_count(config.threads), np));
    parallel_for(pool, num_programs, run_unit);
  }

  for (std::size_t b = 0; b < nb; ++b) {
    if (health[b].dead.load(std::memory_order_acquire)) {
      out.lost_backends.push_back(backends[b].name);
    }
  }
  return out;
}

// ----------------------------------------------------------- merge phase ----

/// Folds one merged program into the campaign totals, static-analysis
/// accounting, per-implementation outlier counts, and quarantine list.
void aggregate_program(MergedShard& shard, int p, CampaignResult& result) {
  result.regenerated_programs += shard.analysis.programs_filtered > 0 ? 1 : 0;
  result.analysis += shard.analysis;
  for (auto& triple : shard.divergent) {
    result.divergent.push_back(std::move(triple));
  }
  for (auto& outcome : shard.outcomes) {
    ++result.total_tests;
    if (outcome.verdict.analyzable) ++result.analyzable_tests;
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      ++result.total_runs;
      if (outcome.runs[r].status == core::RunStatus::Skipped) {
        ++result.skipped_runs;
      }
      // A fabricated run surviving to the merge means retries were
      // exhausted for this triple — quarantine it. The ordered
      // merge makes the record list deterministic.
      if (outcome.runs[r].harness_failure) {
        result.robustness.quarantined.push_back(
            {p, outcome.input_index, outcome.runs[r].impl, outcome.program_name});
      }
      auto& counts = result.per_impl[outcome.runs[r].impl];
      switch (outcome.verdict.per_run[r]) {
        case core::OutlierKind::Slow: ++counts.slow; break;
        case core::OutlierKind::Fast:
          ++counts.fast;
          if (outcome.divergence.diverges[r]) ++counts.fast_with_divergence;
          break;
        case core::OutlierKind::Crash: ++counts.crash; break;
        case core::OutlierKind::Hang: ++counts.hang; break;
        case core::OutlierKind::None: break;
      }
    }
    result.outcomes.push_back(std::move(outcome));
  }
}

/// The merge phase: the classified programs in program order, so the result
/// does not depend on the thread count or unit completion order.
void merge_units(std::vector<MergedShard>& programs, CampaignResult& result) {
  telemetry::ScopedSpan merge_span("campaign", "merge");
  for (std::size_t p = 0; p < programs.size(); ++p) {
    aggregate_program(programs[p], static_cast<int>(p), result);
  }
}

}  // namespace

CampaignResult Campaign::run(const ProgressFn& progress) {
  // Fresh telemetry baseline for this run: the registry counters are
  // process-wide and monotonic, so run_metrics() subtracts the values
  // captured here.
  metrics_base_ = telemetry::Registry::global().snapshot();
  telemetry::ScopedSpan run_span("campaign", "run");

  CampaignResult result;
  for (const BackendPlan& backend : plan_) {
    for (const auto& name : backend.impls) {
      result.impl_names.push_back(name);
      result.per_impl[name];
    }
  }

  Execution execution = execute_units(*this, plan_, store_, metrics_, progress);
  scheduler_stats_ = std::move(execution.scheduler_stats);
  result.robustness.lost_backends = std::move(execution.lost_backends);

  merge_units(execution.programs, result);

  // Size-bounded store GC: evict least-recently-used records until the
  // cache fits store.max_bytes (a no-op for an unbounded store).
  if (store_ != nullptr) store_->gc();
  return result;
}

const TestOutcome* find_outcome(const CampaignResult& result,
                                const std::string& impl,
                                core::OutlierKind kind) {
  const TestOutcome* best = nullptr;
  double best_ratio = 0.0;
  for (const auto& outcome : result.outcomes) {
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      if (outcome.runs[r].impl != impl) continue;
      if (outcome.verdict.per_run[r] != kind) continue;
      double ratio = 1.0;
      if (kind == core::OutlierKind::Slow && outcome.verdict.midpoint_us > 0) {
        ratio = outcome.runs[r].time_us / outcome.verdict.midpoint_us;
      } else if (kind == core::OutlierKind::Fast && outcome.runs[r].time_us > 0) {
        ratio = outcome.verdict.midpoint_us / outcome.runs[r].time_us;
      }
      if (best == nullptr || ratio > best_ratio) {
        best = &outcome;
        best_ratio = ratio;
      }
    }
  }
  return best;
}

}  // namespace ompfuzz::harness
