#include "reduce/oracle.hpp"

#include <algorithm>
#include <exception>

#include "analysis/value_range.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace ompfuzz::reduce {

namespace {

/// classify_one's result plus its cost, so classify() can aggregate stats
/// serially after a parallel dispatch (no contended counters).
struct OneResult {
  InterestingnessOracle::Classification classification;
  std::uint64_t executed = 0;
  std::uint64_t cached = 0;
  std::uint64_t failures = 0;
  bool static_rejected = false;
};

}  // namespace

InterestingnessOracle::InterestingnessOracle(harness::Executor& executor,
                                             OracleOptions options)
    : executor_(executor), options_(options),
      impl_names_(executor.implementations()) {
  OMPFUZZ_CHECK(!impl_names_.empty(), "oracle needs implementations");
  impl_identities_.reserve(impl_names_.size());
  for (const auto& name : impl_names_) {
    // store_impl_identity is the one key convention shared with the
    // campaign, so reductions replay campaign-written records (and empty
    // executor identities disable caching, as there).
    impl_identities_.push_back(
        store_impl_identity(name, executor_.impl_identity(name)));
  }
}

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

  const auto run_one = [this](const Request& request) {
    const std::size_t nj = impl_names_.size();
    const std::uint64_t fingerprint = request.program->fingerprint();
    const std::string input_text = request.input->to_string();

    OneResult out;

    // Value-range gate, ahead of every cache tier: a candidate that cannot
    // be proven free of out-of-bounds subscripts and zero `%` divisors is
    // untrusted no matter what an execution would report, so spending
    // children (or even memo lookups) on it is pure waste. Both PossibleError
    // and DefiniteError reject — the gate must be sound, not precise, and an
    // unproven candidate executed on a real compiler is undefined behavior.
    const auto safety =
        analysis::check_candidate_safety(*request.program, *request.input);
    if (safety.verdict != analysis::SafetyVerdict::Safe) {
      out.classification.trusted = false;
      out.static_rejected = true;
      return out;
    }

    std::vector<core::RunResult> runs(nj);
    std::vector<std::string> missing;
    std::vector<std::size_t> missing_ids;
    std::vector<std::string> canonicals(nj);
    for (std::size_t j = 0; j < nj; ++j) {
      if (!impl_identities_[j].empty()) {
        const RunKey key{fingerprint, input_text, impl_identities_[j]};
        canonicals[j] = key.canonical();
        {
          const std::lock_guard<std::mutex> lock(memo_mutex_);
          if (const auto it = memo_.find(canonicals[j]); it != memo_.end()) {
            runs[j] = it->second;
            ++out.cached;
            continue;
          }
        }
        if (store_ != nullptr) {
          if (auto hit = store_->lookup(key)) {
            const std::lock_guard<std::mutex> lock(memo_mutex_);
            memo_.emplace(canonicals[j], *hit);
            runs[j] = std::move(*hit);
            ++out.cached;
            continue;
          }
        }
      }
      missing.push_back(impl_names_[j]);
      missing_ids.push_back(j);
    }

    if (!missing.empty()) {
      harness::TestCase test;
      test.program = request.program->clone();
      test.features = ast::analyze(test.program);
      test.inputs.push_back(*request.input);
      test.seed = fingerprint;  // deterministic (unused by in-tree executors)
      // The dispatch counts as executed whether or not it succeeds: a
      // throwing backend still ran (and with a subprocess executor, still
      // spawned) these runs, and nothing gets stored for them — warm stats
      // must not claim a replay that did not happen.
      out.executed = missing.size();
      // A batch the executor cannot deliver — it threw (e.g. the
      // interpreter rejecting an edit the static validity gate could not
      // foresee) or returned the wrong number of results — makes the
      // candidate untrusted, which the reducer treats as uninteresting. The
      // campaign downgrades the same two failures to harness failures
      // instead of aborting, and so does the oracle. Counted once per
      // dispatched run, like the fabricated-result path below.
      std::vector<core::RunResult> batch;
      bool delivered = true;
      try {
        batch = executor_.run_batch(test, {0}, missing);
      } catch (const std::exception&) {
        delivered = false;
      }
      if (!delivered || batch.size() != missing.size()) {
        out.classification.trusted = false;
        out.failures += missing.size();
        return out;
      }
      for (std::size_t k = 0; k < missing_ids.size(); ++k) {
        const std::size_t j = missing_ids[k];
        if (!impl_identities_[j].empty() && !batch[k].harness_failure) {
          if (store_ != nullptr) {
            store_->put(RunKey{fingerprint, input_text, impl_identities_[j]},
                        batch[k]);
          }
          const std::lock_guard<std::mutex> lock(memo_mutex_);
          memo_.emplace(canonicals[j], batch[k]);
        }
        runs[j] = std::move(batch[k]);
      }
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

  std::vector<OneResult> partials(requests.size());
  const std::size_t workers =
      std::min(resolve_thread_count(options_.threads), requests.size());
  if (workers <= 1 || !executor_.thread_safe()) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      partials[i] = run_one(requests[i]);
    }
  } else {
    ThreadPool pool(workers);
    parallel_for(pool, static_cast<int>(requests.size()), [&](int i) {
      partials[static_cast<std::size_t>(i)] =
          run_one(requests[static_cast<std::size_t>(i)]);
    });
  }

  ++stats_.batches;
  stats_.candidates += requests.size();
  std::vector<Classification> results;
  results.reserve(requests.size());
  auto& registry = telemetry::Registry::global();
  for (OneResult& partial : partials) {
    stats_.executed_runs += partial.executed;
    stats_.cached_runs += partial.cached;
    stats_.harness_failures += partial.failures;
    if (partial.static_rejected) {
      ++stats_.static_rejects;
      registry.counter("reduce.static_rejects").add(1);
    }
    if (!partial.classification.trusted) {
      ++stats_.untrusted_candidates;
      registry.counter("reduce.untrusted_candidates").add(1);
    }
    results.push_back(std::move(partial.classification));
  }
  return results;
}

}  // namespace ompfuzz::reduce
