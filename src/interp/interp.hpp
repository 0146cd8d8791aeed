// Deterministic interpreter for generated test programs.
//
// Executes a Program on an InputSet with full OpenMP semantics:
//
//   * parallel regions fork a team of `num_threads` logical threads, each
//     with private / firstprivate copies per its clauses; threads execute
//     sequentially in thread-id order, which is a legal schedule for the
//     data-race-free programs the generator produces (shared state is only
//     touched through reductions, criticals, and disjoint array partitions);
//   * "#pragma omp for" loops distribute iterations with the static schedule
//     (contiguous chunks, static_chunk below) or, for an explicit chunked or
//     dynamic schedule clause, round-robin chunks in thread order;
//   * reductions keep a per-thread private comp initialized to the operator
//     identity and combine in thread order at region exit;
//   * critical sections count acquisitions for the contention cost models;
//   * arithmetic follows C++ typing exactly (see emit/codegen.hpp), so an
//     emitted binary compiled on the same machine produces bit-identical
//     output — an integration test enforces this.
//
// The interpreter also records the EventCounts stream and honors a step
// budget so pathological trip-count combinations cannot stall a campaign.
//
// Hot-path shape (a sim campaign spends almost all its time here):
//   * observers are resolved once per run: execute() picks an engine
//     instantiation with the access/value trace hooks compiled in only when
//     InterpOptions::trace or ::values is set, so an unobserved run makes
//     no per-access null checks;
//   * variable declarations are pre-resolved: the engine indexes the
//     program's symbol table by VarId directly;
//   * subnormal flushing and the subnormal_fp_ops count use the exact bit
//     test fp::is_subnormal, not std::fpclassify.
#pragma once

#include <cstdint>

#include "ast/program.hpp"
#include "fp/input_gen.hpp"
#include "interp/events.hpp"
#include "interp/trace.hpp"
#include "interp/value.hpp"

namespace ompfuzz::interp {

/// Version of the interpreter's observable semantics (comp, EventCounts,
/// steps). SimExecutor::impl_identity names it, so results stored by another
/// interpreter only miss. Bump it with every change to those observables;
/// `Interp.CampaignStreamEventsArePinned` pins it together with a hash of
/// them and fails until it is bumped.
inline constexpr int kSemanticsVersion = 1;

struct InterpOptions {
  FpSemantics fp;
  /// 0 keeps each region's own num_threads clause; otherwise overrides it.
  int num_threads_override = 0;
  /// Hard budget on executed statements + loop iterations.
  std::uint64_t max_steps = 50'000'000;
  /// When set, every shared access inside a parallel region is appended
  /// here (see trace.hpp). Off by default: tracing grows memory linearly
  /// with executed accesses.
  AccessTrace* trace = nullptr;
  /// When set, reset to the program's variable count and filled with the
  /// observed integer value range of every scalar and every array subscript
  /// (see ValueTrace in trace.hpp). Constant memory, one min/max per touch.
  ValueTrace* values = nullptr;
};

struct InterpResult {
  bool ok = false;            ///< completed within budget
  bool over_budget = false;   ///< stopped by the step budget
  double comp = 0.0;          ///< final comp value (valid when ok)
  EventCounts events;
  std::uint64_t steps = 0;
};

/// Executes the program. Throws InterpError only for ill-formed programs
/// (framework bugs); budget exhaustion is reported via the result.
[[nodiscard]] InterpResult execute(const ast::Program& program,
                                   const fp::InputSet& input,
                                   const InterpOptions& options = {});

/// The value of a math call on `x`. Calls always compute in double (C
/// semantics); the reducer folds constant calls with this same function.
[[nodiscard]] double apply_math(ast::MathFunc f, double x) noexcept;

/// Contiguous static-schedule chunk of `n` iterations for thread `tid` of
/// `num_threads`: the first `n % T` threads get one extra iteration.
/// Returns {begin, end}.
struct IterRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};
[[nodiscard]] IterRange static_chunk(std::int64_t n, int num_threads,
                                     int tid) noexcept;

}  // namespace ompfuzz::interp
