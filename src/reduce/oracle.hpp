// Interestingness oracle for the test-case reducer.
//
// ddmin asks one question thousands of times: "does this candidate program
// still land in the original verdict class?" Answering it costs a compile and
// a run per implementation, so the oracle is built to spend as few children
// as possible:
//
//   * a whole generation of candidates is classified in one classify() call —
//     candidates dispatch concurrently through Executor::run_batch, so the
//     async subprocess pipeline keeps dozens of compiler/test children in
//     flight across candidates, exactly as it does across campaign shards;
//   * every (candidate fingerprint, input, implementation) triple is looked
//     up in the persistent ResultStore first and written back after
//     execution. Reductions revisit overlapping candidates constantly (ddmin
//     re-tests subsets, later passes re-derive earlier programs), and a
//     re-reduction of the same triple replays entirely from the store —
//     zero children.
//
// The oracle is deterministic: classifications are a pure function of the
// candidate and the executor (threads only change timing, never results), so
// the reducer on top of it is deterministic too.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/differ.hpp"
#include "harness/executor.hpp"
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
  /// Worker threads dispatching candidate batches into the executor; the
  /// default 0 = hardware concurrency, which is what keeps a generation's
  /// children in flight together. Only used when the executor is
  /// thread-safe; results never depend on it (set 1 to force serial).
  int threads = 0;
};

struct OracleStats {
  std::uint64_t candidates = 0;     ///< programs classified
  std::uint64_t batches = 0;        ///< classify() calls
  std::uint64_t executed_runs = 0;  ///< (impl) runs dispatched to the executor
  std::uint64_t cached_runs = 0;    ///< (impl) runs served by the result store
  std::uint64_t harness_failures = 0;  ///< fabricated results seen (untrusted)
  /// Candidates rejected by the value-range gate (zero children spawned).
  std::uint64_t static_rejects = 0;
  /// Candidates whose classification came back untrusted, from any cause:
  /// static rejection, a throwing or short-batch executor, or fabricated
  /// runs.
  std::uint64_t untrusted_candidates = 0;
};

class InterestingnessOracle {
 public:
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
    /// False when any run was fabricated by a harness failure (compile
    /// timeout, fork exhaustion) or the executor could not deliver the
    /// batch: the class cannot be trusted, and the reducer must treat the
    /// candidate as uninteresting.
    bool trusted = true;
  };

  /// Classifies every candidate, in request order. Candidates whose missing
  /// runs must execute are dispatched concurrently (`options.threads`
  /// workers) when the executor is thread-safe.
  [[nodiscard]] std::vector<Classification> classify(
      std::span<const Request> requests);

  [[nodiscard]] const std::vector<std::string>& impl_names() const noexcept {
    return impl_names_;
  }
  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const OracleOptions& options() const noexcept { return options_; }

 private:
  harness::Executor& executor_;
  OracleOptions options_;
  ResultStore* store_ = nullptr;
  std::vector<std::string> impl_names_;
  /// Store identities (store_impl_identity), empty when the executor cannot
  /// vouch for caching — same convention as the campaign.
  std::vector<std::string> impl_identities_;
  /// In-process run memo keyed by RunKey::canonical(), consulted before the
  /// store (and before the executor when no store is attached): ddmin
  /// generations and later passes revisit overlapping candidates constantly,
  /// and without this a store-less reduction would re-execute each repeat.
  /// Only identities the executor vouches for are memoized, as in the store.
  std::mutex memo_mutex_;
  std::map<std::string, core::RunResult> memo_;
  OracleStats stats_;
};

}  // namespace ompfuzz::reduce
