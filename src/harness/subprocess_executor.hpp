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
// Every child goes through one AsyncProcessPool (async_process.hpp):
// run_batch() submits the batch's compiles at once, and each compile's
// completion callback submits that implementation's runs to the pool itself,
// so runs start in the order compiles finish and no thread polls for them.
// Up to `max_inflight` children are in flight. With concurrent_runs = false
// (quiet-timing mode) timed test runs are submitted as exclusive jobs: the
// pool drains and runs them alone, so compiles on other workers can't
// inflate the self-reported times the outlier analysis compares. The
// constructor throws when a compile command's argv[0] does not resolve to an
// executable file, so a misspelled compiler fails before any campaign runs.
//
// Artifact lifetime is private to this class: each run_batch call owns the
// sources and binaries it compiles and unlinks them before it returns, on
// the exception path too (after waiting for every compile and run it
// submitted), so a campaign or reduction leaves work_dir empty apart from
// the PCH below.
// Nothing is reused across calls: the campaign issues one call per
// (program, backend) sub-shard and the reducer's oracle answers revisited
// candidates from its memo, so a retry after a harness failure recompiles.
// File stems are `<name>_<fingerprint>_<impl>_<n>` with `n` a per-executor
// counter, so concurrent batches of one program never share a path.
//
// Compiler fixed cost dominates a real campaign: every emitted TU opens with
// the same emit::prelude() includes. So once a g++-like command (argv[0]'s
// basename is `g++`, `g++-<ver>` or `<triple>-g++[-<ver>]`) is asked to
// compile its second distinct program, the executor precompiles the prelude
// with that command's own flags (`-x c++-header`, same pool, non-exclusive,
// compile_timeout_ms) into <work_dir>/pch/<impl>/, and compiles later
// programs with `-include <work_dir>/pch/<impl>/prelude.hpp` right after
// argv[0]. The TU stays standalone (its own #includes become no-ops behind
// the header guards) and the binaries are byte-identical, so identities,
// compile-failure attribution and crash/hang isolation are unchanged.
// Compiles never wait for the PCH: one submitted while it builds, or after
// its build failed, compiles plainly. A one-program campaign builds nothing.
// The PCH (~15 MB per command) is the one artifact that lives as long as
// the executor; the destructor removes <work_dir>/pch/. Registry counters:
// exec.pch_builds, exec.pch_failures, exec.pch_compiles (compiles that used
// a PCH).
//
// On a machine with several OpenMP toolchains installed this class runs the
// paper's experiment verbatim; with a single compiler, optimization levels
// serve as implementation proxies (same compile-run-compare pipeline, one
// toolchain).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/async_process.hpp"
#include "harness/executor.hpp"
#include "support/config.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

struct SubprocessOptions {
  std::string work_dir = "_tests";       ///< each batch's sources and binaries
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

/// True when `program` (a command's argv[0]) names g++ itself: its basename
/// is `g++`, `g++-<ver>` or `<triple>-g++[-<ver>]`. Only such commands get a
/// precompiled prelude; anything else (wrappers, stub scripts reading their
/// arguments by position) compiles exactly as written.
[[nodiscard]] bool is_gxx_like(const std::string& program);

/// The argv of one compile: `command` split on spaces, then {src} and {bin}
/// substituted inside each token, so paths may contain spaces. A non-empty
/// `pch_header` adds `-include <pch_header>` right after argv[0].
[[nodiscard]] std::vector<std::string> compile_argv(
    const std::string& command, const std::string& src, const std::string& bin,
    const std::string& pch_header = "");

/// The argv that precompiles `header` into `<header>.gch` with `command`'s
/// own flags: compile_argv(command, header, header + ".gch") with
/// `-x c++-header` right after argv[0].
[[nodiscard]] std::vector<std::string> prelude_build_argv(
    const std::string& command, const std::string& header);

class SubprocessExecutor final : public Executor {
 public:
  /// Creates work_dir (and any missing parents); throws ompfuzz::Error
  /// naming the directory when it cannot, or naming the implementation when
  /// its command's argv[0] does not resolve to an executable file.
  SubprocessExecutor(std::vector<ImplementationSpec> impls,
                     SubprocessOptions options);
  /// Stops the pool (killing any in-flight PCH build), then removes
  /// <work_dir>/pch/.
  ~SubprocessExecutor() override;

  /// Pool callbacks hold `this`.
  SubprocessExecutor(const SubprocessExecutor&) = delete;
  SubprocessExecutor& operator=(const SubprocessExecutor&) = delete;

  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override;

  /// The pipelined path: compiles every implementation of `test`
  /// concurrently; each compile's completion submits its runs (exclusive
  /// jobs when quiet-timing mode is on). run() forwards here with a
  /// single-element batch.
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override;

  [[nodiscard]] std::vector<std::string> implementations() const override;

  /// Backend kind + the full compile command template (flags included) +
  /// both timeouts + emit::kHarnessVersion: everything that can alter a
  /// classification (a shorter run timeout turns Ok into Hang, a different
  /// -O level or emitted text changes the binary). Changing any of it
  /// changes the cache key.
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override;

  /// Every batch compiles into its own files and child processes are
  /// independent, so concurrent calls are safe.
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  /// What one (program, impl) compile produced. An empty `bin` means no
  /// binary: `harness_failure` then separates the toolchain rejecting the
  /// program (an observation) from the harness failing to run the compile
  /// at all (timeout on a loaded machine, fork/pipe exhaustion — transient,
  /// retried by the campaign, never stored).
  struct CompileOutcome {
    std::string bin;
    bool harness_failure = false;
  };

  /// What one run_batch call shares with its pool callbacks, and the files
  /// it owns (both defined in the .cpp).
  struct Batch;
  struct BatchArtifacts;

  /// Per-implementation precompiled-prelude state, guarded by prelude_mutex_.
  struct Prelude {
    enum class State { Unsupported, Idle, Building, Ready, Failed };
    State state = State::Unsupported;
    /// The first program this command compiled; a different one triggers
    /// the build.
    std::optional<std::uint64_t> first_program;
    std::string header;  ///< <work_dir>/pch/<impl>/prelude.hpp
  };

  /// Emits `test` to `<stem>.cpp` and submits its compile with impls_[impl]
  /// into `<stem>.bin`; the caller owns both files. `then` runs exactly once
  /// with the outcome (on the pool thread, or inline for an injected spawn
  /// fault) unless this throws.
  void submit_compile(const TestCase& test, std::size_t impl,
                      const std::string& stem,
                      std::function<void(CompileOutcome)> then);

  /// Writes impls_[impl]'s prelude header and submits its PCH build. Any
  /// failure, thrown or not, marks the prelude Failed and is counted.
  void build_prelude(std::size_t impl);

  [[nodiscard]] std::size_t index_of(const std::string& impl_name) const;
  [[nodiscard]] const ImplementationSpec& spec_for(
      const std::string& impl_name) const;

  /// Paper classification of a finished test child (Section IV-C).
  [[nodiscard]] static core::RunResult classify(const ProcessResult& proc,
                                                const std::string& impl_name);

  std::vector<ImplementationSpec> impls_;
  /// name -> index into impls_, built once so run() doesn't linear-scan.
  std::map<std::string, std::size_t> impl_index_;
  SubprocessOptions options_;
  std::mutex prelude_mutex_;
  /// Parallel to impls_.
  std::vector<Prelude> preludes_;
  /// Set by the destructor: PCH builds the pool kills on shutdown are not
  /// failures.
  std::atomic<bool> closing_{false};
  /// The `<n>` of the next artifact stem.
  std::atomic<std::uint64_t> next_stem_{0};
  telemetry::Counter& pch_builds_;
  telemetry::Counter& pch_failures_;
  telemetry::Counter& pch_compiles_;
  /// Reset first by the destructor: in-flight children are killed and every
  /// completion callback (they touch the members above) has run before
  /// <work_dir>/pch/ is removed.
  std::optional<AsyncProcessPool> pool_;
};

}  // namespace ompfuzz::harness
