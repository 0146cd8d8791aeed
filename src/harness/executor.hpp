// Execution backends for the differential-testing campaign (Fig. 1 b-c).
//
// An Executor runs one generated test under one OpenMP implementation and
// reports the observable outcome (status, time, output). Two backends:
//
//   SimExecutor        — interprets the program under the implementation's
//                        simulated profile (sim_executor.hpp); deterministic,
//                        laptop-fast, used by the paper-reproduction benches.
//   SubprocessExecutor — emits the program to disk, compiles it with a real
//                        compiler command, runs the binary with a timeout;
//                        the paper's actual driver (subprocess_executor.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ast/program.hpp"
#include "core/outlier.hpp"
#include "fp/input_gen.hpp"

namespace ompfuzz::harness {

/// One generated test: a program plus its generated inputs.
struct TestCase {
  ast::Program program;
  ast::ProgramFeatures features;
  std::vector<fp::InputSet> inputs;
  std::uint64_t seed = 0;
  int regeneration_attempts = 0;  ///< racy drafts discarded before this one
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs input `input_index` of `test` under implementation `impl_name`.
  [[nodiscard]] virtual core::RunResult run(const TestCase& test,
                                            std::size_t input_index,
                                            const std::string& impl_name) = 0;

  /// Runs every (input, implementation) pair of one test in a single call:
  /// the result vector holds, for each index in `input_indices` in order, one
  /// RunResult per name in `impls` in order (input-major). Semantically
  /// equivalent to looping run() — which is exactly the default
  /// implementation — but a backend that can overlap or share work overrides
  /// it to see the whole batch at once: the subprocess pipeline keeps dozens
  /// of compiler/test children in flight, and the sim backend interprets
  /// each input once per distinct FpSemantics. The campaign engine calls
  /// this once per program shard.
  [[nodiscard]] virtual std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) {
    std::vector<core::RunResult> results;
    results.reserve(input_indices.size() * impls.size());
    for (const std::size_t input_index : input_indices) {
      for (const auto& impl : impls) {
        results.push_back(run(test, input_index, impl));
      }
    }
    return results;
  }

  /// Names of the implementations this executor can drive.
  [[nodiscard]] virtual std::vector<std::string> implementations() const = 0;

  /// Cache identity of one implementation for the persistent result store:
  /// a string covering everything besides the (program, input) content that
  /// can change this executor's RunResult — backend kind, compile command
  /// and flags, timeouts, simulated profile parameters, and the version of
  /// the code that turns a test into a run (emitter or interpreter). Two executors whose
  /// identity strings match must produce bit-identical results for the same
  /// test, so a cached result can stand in for a real run. The default empty
  /// string means "unknown identity": the campaign then never caches or
  /// reuses results for this executor.
  [[nodiscard]] virtual std::string impl_identity(
      const std::string& impl_name) const {
    (void)impl_name;
    return {};
  }

  /// No-op hook with no in-tree caller: artifact lifetime is private to
  /// each backend (the subprocess backend unlinks what a run_batch call
  /// compiled before it returns). Kept only because the end-to-end
  /// benchmark's timing decorator overrides it; it goes with that override.
  virtual void reclaim_artifacts(std::uint64_t program_fingerprint) {
    (void)program_fingerprint;
  }

  /// True if run_batch() may be called concurrently from multiple threads.
  /// Otherwise harness::run_on_backend — the one dispatch path of campaigns
  /// and of the reduction oracle — serializes its calls behind the
  /// backend's mutex, so a non-thread-safe executor is race-free (just
  /// unaccelerated). The serialized calls still *arrive* in completion
  /// order, not program or candidate order — so the identical-for-every-
  /// thread-count guarantee additionally requires results to be a pure
  /// function of the arguments (both in-tree executors are). An executor
  /// whose results depend on call order must be driven with threads = 1,
  /// in the campaign and in the oracle alike.
  [[nodiscard]] virtual bool thread_safe() const noexcept { return false; }
};

}  // namespace ompfuzz::harness
