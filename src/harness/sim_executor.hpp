// Simulated execution backend: interpreter + vendor runtime profiles.
//
// A run is two steps. Interpretation executes the program under one
// floating-point semantics (so control flow may legitimately diverge between
// implementations); it depends only on (program, input, FpSemantics, team
// size, step budget). Pricing turns the resulting event stream into a time
// with the implementation's cost model and lets its fault model decide rare
// crash/hang outcomes. run_batch interprets each input once per distinct
// FpSemantics among the requested implementations and prices that one
// result per implementation, so profiles that share semantics (libomp and
// libiomp5) share the interpreter's work. Every decision derives from a hash
// of (program fingerprint, input, impl), making whole campaigns
// bit-reproducible.
#pragma once

#include <optional>
#include <string_view>

#include "harness/executor.hpp"
#include "interp/interp.hpp"
#include "runtime/fault_model.hpp"
#include "runtime/impl_profile.hpp"
#include "runtime/perf_counters.hpp"

namespace ompfuzz::harness {

/// Everything the case-study analysis needs about one simulated run.
struct DetailedRun {
  core::RunResult result;
  interp::EventCounts events;
  rt::TimeBreakdown time;
  rt::PerfCounters counters;
  rt::FaultDecision fault;
};

struct SimExecutorOptions {
  int num_threads = 32;                      ///< team size (Section V-A uses 32)
  std::int64_t hang_timeout_us = 180'000'000;///< 3 minutes, as in Case Study 3
  std::uint64_t max_interp_steps = 4'000'000;
};

class SimExecutor final : public Executor {
 public:
  /// Uses the three built-in vendor profiles by default.
  explicit SimExecutor(SimExecutorOptions options = {});
  SimExecutor(std::vector<rt::OmpImplProfile> profiles, SimExecutorOptions options);

  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override;
  /// Equal to looping run(), but interprets each input once per distinct
  /// FpSemantics among `impls` and prices that result for every member.
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override;
  [[nodiscard]] std::vector<std::string> implementations() const override;

  /// Backend kind + profile name + every SimExecutorOptions knob + one hex
  /// digest of every profile parameter (rt::parameter_digest).
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override;

  /// Stateless run path: interpretation, pricing, and fault decisions touch
  /// only immutable members and locals (the interpretation a batch shares is
  /// a local of run_batch).
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

  /// Full observability for the perf-analysis benches (Tables II/III).
  [[nodiscard]] DetailedRun run_detailed(const TestCase& test,
                                         std::size_t input_index,
                                         const std::string& impl_name);

  [[nodiscard]] const rt::OmpImplProfile& profile(const std::string& name) const;
  [[nodiscard]] const SimExecutorOptions& options() const noexcept { return options_; }

 private:
  /// Runs the interpreter once and counts it in "sim.interpretations";
  /// `impls` (the implementations sharing the result) only labels the trace
  /// span.
  [[nodiscard]] interp::InterpResult interpret(const TestCase& test,
                                               std::size_t input_index,
                                               const interp::FpSemantics& fp,
                                               std::string_view impls) const;
  /// Cost, fault and counter models of `prof` applied to `ir`.
  [[nodiscard]] DetailedRun price(const TestCase& test, std::size_t input_index,
                                  const rt::OmpImplProfile& prof,
                                  const interp::InterpResult& ir) const;

  std::vector<rt::OmpImplProfile> profiles_;
  SimExecutorOptions options_;
};

}  // namespace ompfuzz::harness
