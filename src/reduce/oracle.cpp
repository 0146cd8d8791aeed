#include "reduce/oracle.hpp"

#include <algorithm>
#include <iterator>

#include "analysis/value_range.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace ompfuzz::reduce {

namespace {

/// One request's classification plus its cost, so classify() can aggregate
/// stats serially after a parallel dispatch (no contended counters).
struct OneResult {
  InterestingnessOracle::Classification classification;
  std::uint64_t executed = 0;
  std::uint64_t cached = 0;
  std::uint64_t failures = 0;
  bool static_rejected = false;
};

}  // namespace

InterestingnessOracle::InterestingnessOracle(
    std::vector<harness::CampaignBackend> backends, OracleOptions options)
    : options_(options), plan_(harness::plan_backends(backends)) {
  for (const harness::BackendPlan& backend : plan_) num_impls_ += backend.impls.size();
  OMPFUZZ_CHECK(num_impls_ > 0, "oracle needs implementations");
}

InterestingnessOracle::InterestingnessOracle(harness::Executor& executor,
                                             OracleOptions options)
    : InterestingnessOracle(
          std::vector<harness::CampaignBackend>{{&executor, "default"}}, options) {}

std::vector<InterestingnessOracle::Classification>
InterestingnessOracle::classify(std::span<const Request> requests) {
  for (const Request& request : requests) {
    OMPFUZZ_CHECK(request.program != nullptr && request.input != nullptr,
                  "oracle request needs a program and an input");
  }
  telemetry::ScopedSpan span("oracle", "classify");
  if (span.active()) {
    span.arg("requests", static_cast<std::uint64_t>(requests.size()));
  }

  // Identical requests (a ddmin generation can propose the same candidate
  // twice) dispatch once: the first of them runs, the later ones copy it.
  using Key = std::pair<std::uint64_t, std::string>;
  const std::size_t n = requests.size();
  std::vector<Key> keys;
  keys.reserve(n);
  std::vector<std::size_t> first_of(n);
  std::vector<std::size_t> distinct;
  std::map<Key, std::size_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    keys.emplace_back(requests[i].program->fingerprint(),
                      requests[i].input->to_string());
    const auto [it, inserted] = seen.emplace(keys[i], i);
    first_of[i] = it->second;
    if (inserted) distinct.push_back(i);
  }

  // Reads memo_ only; classify() writes it after every worker has finished.
  const auto run_one = [&](std::size_t i) {
    const Request& request = requests[i];
    OneResult out;

    // Value-range gate, ahead of every cache tier: a candidate that cannot
    // be proven free of out-of-bounds subscripts and zero `%` divisors is
    // untrusted no matter what an execution would report, so spending
    // children (or even lookups) on it is pure waste. Both PossibleError and
    // DefiniteError reject — the gate must be sound, not precise, and an
    // unproven candidate executed on a real compiler is undefined behavior.
    const auto safety =
        analysis::check_candidate_safety(*request.program, *request.input);
    if (safety.verdict != analysis::SafetyVerdict::Safe) {
      out.classification.trusted = false;
      out.static_rejected = true;
      return out;
    }
    if (const auto it = memo_.find(keys[i]); it != memo_.end()) {
      out.classification.cls = it->second;
      out.cached = num_impls_;
      return out;
    }

    harness::TestCase test;
    test.program = request.program->clone();
    test.features = ast::analyze(test.program);
    test.inputs.push_back(*request.input);
    test.seed = keys[i].first;  // deterministic (unused by in-tree executors)
    std::vector<core::RunResult> runs;
    runs.reserve(num_impls_);
    for (const harness::BackendPlan& backend : plan_) {
      harness::BackendRuns part =
          harness::run_on_backend(backend, test, store_, RetryConfig{});
      out.executed += part.executed;
      out.cached += part.served;
      runs.insert(runs.end(), std::make_move_iterator(part.runs.begin()),
                  std::make_move_iterator(part.runs.end()));
    }
    for (const auto& run : runs) {
      if (run.harness_failure) {
        out.classification.trusted = false;
        ++out.failures;
      }
    }
    out.classification.cls = core::classify_runs(runs, core::exact_tolerance());
    return out;
  };

  std::vector<OneResult> partials(n);
  const std::size_t workers =
      std::min(resolve_thread_count(options_.threads), distinct.size());
  if (workers <= 1) {
    for (const std::size_t i : distinct) partials[i] = run_one(i);
  } else {
    ThreadPool pool(workers);
    parallel_for(pool, static_cast<int>(distinct.size()), [&](int k) {
      const std::size_t i = distinct[static_cast<std::size_t>(k)];
      partials[i] = run_one(i);
    });
  }

  ++stats_.batches;
  stats_.candidates += n;
  std::vector<Classification> results;
  results.reserve(n);
  auto& registry = telemetry::Registry::global();
  for (std::size_t i = 0; i < n; ++i) {
    OneResult& partial = partials[i];
    if (first_of[i] != i) {  // a copy: nothing dispatched for it
      const OneResult& first = partials[first_of[i]];
      partial.classification = first.classification;
      partial.static_rejected = first.static_rejected;
      if (!first.static_rejected) partial.cached = num_impls_;
    }
    stats_.executed_runs += partial.executed;
    stats_.cached_runs += partial.cached;
    stats_.harness_failures += partial.failures;
    if (partial.static_rejected) {
      ++stats_.static_rejects;
      registry.counter("reduce.static_rejects").add(1);
    }
    if (partial.classification.trusted) {
      memo_.emplace(keys[i], partial.classification.cls);
    } else {
      ++stats_.untrusted_candidates;
      registry.counter("reduce.untrusted_candidates").add(1);
    }
    results.push_back(partial.classification);
  }
  return results;
}

}  // namespace ompfuzz::reduce
