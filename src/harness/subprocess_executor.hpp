// Real-compiler execution backend (the paper's actual driver, Fig. 1 b-c).
//
// For each implementation the campaign provides a compile command template,
// e.g. "g++ -fopenmp -O3 {src} -o {bin}". The executor emits the generated
// program to a work directory, compiles it once per implementation, runs the
// binary with the test's input on argv, and classifies the outcome exactly
// as the paper does:
//   * normal exit with parseable output  -> OK (+ comp value + time_us),
//   * timeout -> HANG (the driver stops the process, Section IV-C),
//   * signal, nonzero exit, or unparseable output -> CRASH.
//
// Execution is pipelined through an AsyncProcessPool (async_process.hpp):
// run_batch() feeds a compile stage where distinct (program, implementation)
// pairs compile concurrently — the binary cache holds a future per key, so
// only the first requester compiles and nobody serializes behind a global
// lock — into a run stage that keeps up to `max_inflight` test children in
// flight. With concurrent_runs = false (quiet-timing mode) timed test runs
// are submitted as exclusive jobs: the pool drains and runs them alone, so
// compiles on other workers can't inflate the self-reported times the
// outlier analysis compares.
//
// On a machine with several OpenMP toolchains installed this class runs the
// paper's experiment verbatim; with a single compiler, optimization levels
// serve as implementation proxies (same compile-run-compare pipeline, one
// toolchain).
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "harness/async_process.hpp"
#include "harness/executor.hpp"
#include "support/config.hpp"

namespace ompfuzz::harness {

struct SubprocessOptions {
  std::string work_dir = "_tests";       ///< sources and binaries land here
  std::int64_t run_timeout_ms = 10'000;  ///< HANG threshold
  std::int64_t compile_timeout_ms = 60'000;
  /// Allow timed test runs to execute concurrently with other children. Off
  /// by default: simultaneous children contend for cores and skew the
  /// self-reported times the outlier analysis compares, producing spurious
  /// Slow/Hang verdicts — so timed runs go through the process pool as
  /// exclusive jobs (compiles still overlap each other between them). Turn
  /// on for raw throughput when only crash/output divergence matters.
  bool concurrent_runs = false;
  /// Children the process pool keeps in flight at once (compiles, plus test
  /// runs when concurrent_runs is set). 0 = 2x hardware concurrency.
  int max_inflight = 0;
};

/// View of the [executor] config-file section as SubprocessOptions.
[[nodiscard]] SubprocessOptions to_subprocess_options(const ExecutorConfig& cfg);

class SubprocessExecutor final : public Executor {
 public:
  SubprocessExecutor(std::vector<ImplementationSpec> impls,
                     SubprocessOptions options);

  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override;

  /// The pipelined path: compiles every implementation of `test`
  /// concurrently, then overlaps the runs (exclusive jobs when quiet-timing
  /// mode is on). run() forwards here with a single-element batch.
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override;

  [[nodiscard]] std::vector<std::string> implementations() const override;

  /// Backend kind + the full compile command template (flags included) +
  /// both timeouts: everything that can alter a classification (a shorter
  /// run timeout turns Ok into Hang, a different -O level changes the
  /// binary). Changing any of it changes the cache key.
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override;

  /// Unlinks the program's emitted source and compiled binary for every
  /// implementation and drops the binary-cache futures, so a reduction that
  /// stores each candidate's verdict can bound work_dir to the candidates
  /// still in flight. Entries whose compile has not finished are left alone
  /// (their submitter still awaits the future).
  void reclaim_artifacts(std::uint64_t program_fingerprint) override;

  /// The binary cache hands out per-key futures behind a short-lived mutex;
  /// child processes are independent, so concurrent calls are safe.
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  /// What one (program, impl) compile produced. An empty `bin` means no
  /// binary: `harness_failure` then separates the toolchain rejecting the
  /// program (an observation worth caching) from the harness failing to run
  /// the compile at all (timeout on a loaded machine, fork/pipe exhaustion —
  /// transient, never cached).
  struct CompileOutcome {
    std::string bin;
    bool harness_failure = false;
  };

  /// Returns the future compile outcome for (test, impl), submitting
  /// emission + compilation to the pool on first request.
  [[nodiscard]] std::shared_future<CompileOutcome> ensure_binary(
      const TestCase& test, const ImplementationSpec& impl);

  [[nodiscard]] const ImplementationSpec& spec_for(
      const std::string& impl_name) const;

  /// Paper classification of a finished test child (Section IV-C).
  [[nodiscard]] static core::RunResult classify(const ProcessResult& proc,
                                                const std::string& impl_name);

  std::vector<ImplementationSpec> impls_;
  /// name -> index into impls_, built once so run() doesn't linear-scan.
  std::map<std::string, std::size_t> impl_index_;
  SubprocessOptions options_;
  /// Guards binary_cache_ only — insertion of the future, not the compile.
  std::mutex cache_mutex_;
  /// (program fingerprint, impl) -> future compile outcome.
  std::map<std::pair<std::uint64_t, std::string>,
           std::shared_future<CompileOutcome>>
      binary_cache_;
  /// (program fingerprint, impl) -> work_dir file stem ("<stem>.cpp" /
  /// "<stem>.bin"), recorded at submission so reclaim_artifacts can unlink
  /// without re-deriving paths.
  std::map<std::pair<std::uint64_t, std::string>, std::string> artifact_stems_;
  AsyncProcessPool pool_;
};

}  // namespace ompfuzz::harness
