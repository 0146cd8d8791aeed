// Interestingness oracle for the test-case reducer.
//
// ddmin asks one question thousands of times: "does this candidate program
// still land in the original verdict class?" Answering it costs a compile and
// a run per implementation, so the oracle is built to spend as few children
// as possible:
//
//   * a whole generation of candidates is classified in one classify() call,
//     and candidates dispatch concurrently, so the async subprocess pipeline
//     keeps dozens of compiler/test children in flight across candidates,
//     exactly as it does across campaign units;
//   * each candidate's runs come from harness::run_on_backend, the
//     campaign's own path from a test to its runs, once per backend: every
//     (candidate fingerprint, input, implementation) triple is looked up in
//     the persistent ResultStore first and written back after execution,
//     the backend's lock serializes an executor that is not thread-safe, and
//     a failed dispatch is retried. Reductions revisit overlapping candidates
//     constantly (ddmin re-tests subsets, later passes re-derive earlier
//     programs), and a re-reduction of the same triple replays entirely from
//     the store — zero children.
//
// The oracle is deterministic: classifications are a pure function of the
// candidate and the executors (threads only change timing, never results),
// and so are its stats, so the reducer on top of it is deterministic too.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/differ.hpp"
#include "harness/campaign.hpp"
#include "support/result_store.hpp"

namespace ompfuzz::reduce {

/// Classification is exact (core::exact_tolerance, the campaign's own
/// definition of "divergent"), and every candidate first passes the
/// value-range pre-dispatch gate: one whose abstract interpretation cannot
/// prove every subscript in bounds and every `%` divisor nonzero is
/// classified untrusted WITHOUT dispatching any child. ddmin edits
/// (especially expression rewrites inside subscripts) routinely produce such
/// candidates; executing them costs a compile + run per impl only to land in
/// the uninteresting bin — or, on a real-compiler backend, executes
/// undefined behavior.
struct OracleOptions {
  /// Worker threads dispatching a generation's candidates; the default 0 =
  /// hardware concurrency, which is what keeps a generation's children in
  /// flight together. A backend whose executor is not thread-safe still
  /// runs one batch at a time behind its lock. Results and stats never
  /// depend on it (set 1 to force serial).
  int threads = 0;
};

struct OracleStats {
  std::uint64_t candidates = 0;     ///< programs classified
  std::uint64_t batches = 0;        ///< classify() calls
  /// (impl) runs the store could not serve, dispatched to an executor.
  std::uint64_t executed_runs = 0;
  /// (impl) runs served without a dispatch: by the result store, by the
  /// oracle's memo of trusted classifications, or by an identical request
  /// earlier in the same classify() call.
  std::uint64_t cached_runs = 0;
  std::uint64_t harness_failures = 0;  ///< fabricated results seen (untrusted)
  /// Candidates rejected by the value-range gate (zero children spawned).
  std::uint64_t static_rejects = 0;
  /// Candidates whose classification came back untrusted, from any cause:
  /// static rejection, or runs still fabricated after retries (a throwing
  /// or short-batch executor, a compile timeout).
  std::uint64_t untrusted_candidates = 0;
};

class InterestingnessOracle {
 public:
  /// Classifies candidates under every implementation of `backends`, in
  /// backend order and executor order within each (the campaign's column
  /// order). Backend rules are harness::plan_backends'.
  explicit InterestingnessOracle(std::vector<harness::CampaignBackend> backends,
                                 OracleOptions options = {});
  /// One backend named "default", as Campaign's single-executor constructor.
  explicit InterestingnessOracle(harness::Executor& executor,
                                 OracleOptions options = {});

  /// Attaches the persistent run cache (not owned; may be the campaign's
  /// store). Implementations whose executor reports an empty
  /// impl_identity() are never cached, as in the campaign.
  void set_result_store(ResultStore* store) noexcept { store_ = store; }

  /// One candidate: a program to classify under `input`. Pointers must stay
  /// valid for the duration of the classify() call.
  struct Request {
    const ast::Program* program = nullptr;
    const fp::InputSet* input = nullptr;
  };

  /// What classify() found out about one candidate.
  struct Classification {
    core::VerdictClass cls;
    /// False when any run was still fabricated by a harness failure after
    /// retries (compile timeout, fork exhaustion, a batch the executor could
    /// not deliver) or the value-range gate rejected the candidate: the
    /// class cannot be trusted, and the reducer must treat the candidate as
    /// uninteresting.
    bool trusted = true;
  };

  /// Classifies every candidate, in request order. Identical requests
  /// (same fingerprint and input text) dispatch once; the rest run
  /// concurrently on `options.threads` workers.
  [[nodiscard]] std::vector<Classification> classify(
      std::span<const Request> requests);

  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }

 private:
  OracleOptions options_;
  std::vector<harness::BackendPlan> plan_;
  std::size_t num_impls_ = 0;  ///< columns across all backends
  ResultStore* store_ = nullptr;
  /// Trusted classifications by (candidate fingerprint, input text): ddmin
  /// generations and later passes revisit candidates constantly, and
  /// without this a store-less reduction would re-execute each repeat.
  /// Untrusted results are never memoized. The executors are fixed for the
  /// oracle's lifetime, so this also holds for one without a store identity.
  std::map<std::pair<std::uint64_t, std::string>, core::VerdictClass> memo_;
  OracleStats stats_;
};

}  // namespace ompfuzz::reduce
