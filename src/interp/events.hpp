// Execution event stream and configurable floating-point semantics.
//
// The interpreter counts every dynamic event of a test execution. The
// runtime cost models (src/runtime) convert these counts, per implementation
// profile, into simulated execution times and perf-style counters — the
// observable quantities the paper's outlier analysis consumes.
//
// FpSemantics models the ways real compilers legitimately disagree on
// floating-point results. The paper's Section V-B traces about half of the
// GCC fast outliers to exactly such divergence (exceptional values steering
// control flow differently across binaries).
#pragma once

#include <cstdint>

namespace ompfuzz::interp {

/// Per-implementation floating-point evaluation semantics.
struct FpSemantics {
  /// Flush subnormal operands/results to zero (FTZ/DAZ style fast-math).
  bool flush_subnormals = false;
  /// Contract a*b+c chains into fused multiply-add (single rounding).
  bool contract_fma = false;
  /// Combine reduction contributions pairwise (tree order) instead of in
  /// thread order — what a vectorized/tree reduction does. Changes the comp
  /// value of reduction tests by rounding, occasionally by a lot when
  /// contributions cancel; the differ then reports output divergence.
  bool reassociate_reductions = false;

  /// Two implementations with equal semantics interpret a program
  /// identically, so SimExecutor::run_batch shares one interpretation
  /// between them. Defaulted: a field added here joins that key by itself.
  bool operator==(const FpSemantics&) const = default;
};

/// Dynamic event counts of one test execution.
struct EventCounts {
  // Arithmetic.
  std::uint64_t fp_add_sub = 0;
  std::uint64_t fp_mul = 0;
  std::uint64_t fp_div = 0;
  std::uint64_t math_calls = 0;
  std::uint64_t int_ops = 0;        ///< subscript arithmetic (mod)
  /// fp ops touching subnormal operands or producing subnormal results
  /// (after the implementation's own flush semantics — an FTZ implementation
  /// counts none, which is exactly why it skips the hardware assists).
  std::uint64_t subnormal_fp_ops = 0;

  // Memory.
  std::uint64_t scalar_loads = 0;
  std::uint64_t scalar_stores = 0;
  std::uint64_t array_loads = 0;
  std::uint64_t array_stores = 0;

  // Control flow.
  std::uint64_t branches = 0;       ///< if guards + loop back-edge checks
  std::uint64_t loop_iterations = 0;

  // OpenMP runtime interactions.
  std::uint64_t parallel_regions = 0;   ///< region entries (launches)
  std::uint64_t thread_starts = 0;      ///< region entries x team size
  std::uint64_t omp_for_loops = 0;      ///< work-shared loop executions (per thread)
  std::uint64_t barriers = 0;           ///< implicit join barriers
  std::uint64_t critical_entries = 0;   ///< critical section acquisitions
  std::uint64_t critical_stmts = 0;     ///< statements executed while holding the lock
  std::uint64_t reduction_combines = 0; ///< per-thread reduction merges

  /// Rough dynamic instruction proxy used by the counter synthesizer.
  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    return fp_add_sub + fp_mul + fp_div + math_calls + int_ops + scalar_loads +
           scalar_stores + array_loads + array_stores + branches;
  }

  EventCounts& operator+=(const EventCounts& o) noexcept {
    fp_add_sub += o.fp_add_sub;
    fp_mul += o.fp_mul;
    fp_div += o.fp_div;
    math_calls += o.math_calls;
    int_ops += o.int_ops;
    subnormal_fp_ops += o.subnormal_fp_ops;
    scalar_loads += o.scalar_loads;
    scalar_stores += o.scalar_stores;
    array_loads += o.array_loads;
    array_stores += o.array_stores;
    branches += o.branches;
    loop_iterations += o.loop_iterations;
    parallel_regions += o.parallel_regions;
    thread_starts += o.thread_starts;
    omp_for_loops += o.omp_for_loops;
    barriers += o.barriers;
    critical_entries += o.critical_entries;
    critical_stmts += o.critical_stmts;
    reduction_combines += o.reduction_combines;
    return *this;
  }
};

}  // namespace ompfuzz::interp
