// Simulated OpenMP implementation profiles (the three vendors of Section V-A).
//
// An OmpImplProfile is everything that makes one OpenMP implementation
// observably different from another in the paper's experiments:
//
//   * floating-point evaluation semantics (FpSemantics) — the source of the
//     numeric/control-flow divergence behind ~half of the GCC fast outliers
//     (Section V-B);
//   * a cost model: per-operation costs plus the runtime-system overheads
//     (region launch, thread start, barrier, critical-section locking,
//     reduction combines) with vendor-specific quirks — Clang's expensive
//     repeated region launches (Case Study 2), Intel's queuing-lock
//     contention on criticals (Case Study 1), Intel's vectorizer;
//   * a wait policy (spinning vs sleeping) driving the cycle/instruction/
//     context-switch counter synthesis (Tables II and III);
//   * a fault model: deterministic, hash-conditioned crash and hang hazards
//     reproducing the paper's rare correctness outliers (Case Study 3).
//
// The built-in profiles are calibrated so a default campaign reproduces the
// *shape* of Table I; they are plain data, so ablation benches can perturb
// any field.
#pragma once

#include <cstdint>
#include <string>

#include "interp/events.hpp"
#include "runtime/lock_models.hpp"

namespace ompfuzz::rt {

/// Per-event and per-construct costs, in nanoseconds.
struct CostModel {
  double ns_fp_add = 0.45;
  double ns_fp_mul = 0.55;
  double ns_fp_div = 4.5;
  double ns_math_call = 18.0;
  /// Hardware microcode-assist cost per subnormal-touching fp op. The same
  /// for every implementation — FTZ implementations avoid it because their
  /// *semantics* produce no subnormal ops, not because the hardware is kind.
  double ns_subnormal_assist = 14.0;
  double ns_int_op = 0.30;
  double ns_scalar_load = 0.55;
  double ns_scalar_store = 0.75;
  double ns_array_load = 1.1;
  double ns_array_store = 1.4;
  double ns_branch = 0.35;

  double ns_region_launch = 2200.0;      ///< per parallel-region entry
  double ns_thread_start = 450.0;        ///< per thread per region
  double ns_barrier_arrival = 140.0;     ///< per thread arrival
  double ns_reduction_combine = 120.0;   ///< per thread combine

  /// Extra multiplier on region launch once a test re-launches regions
  /// repeatedly (> relaunch_threshold entries), modeling cold-path resource
  /// acquisition per launch. Case Study 2: Clang pays ~10x here.
  double relaunch_multiplier = 1.0;
  int relaunch_threshold = 8;

  /// Divides fp-op cost for straight-line FP work (vectorizer quality).
  double vectorization_factor = 1.0;

  /// Extra multiplier on the vectorized lanes when the program mixes float
  /// and double variables (mixed widths defeat some vectorizers' SLP pass).
  double mixed_width_vector_penalty = 1.0;

  /// Deterministic pseudo run-to-run noise, +/- this fraction.
  double noise_fraction = 0.05;

  /// Global scale mapping the compressed laptop-sized workloads onto
  /// cluster-scale execution times (all components scale equally, so
  /// relative comparisons — the outlier analysis — are unaffected).
  double time_scale = 4.0;
};

/// How threads wait (barriers, locks): drives counter synthesis.
struct WaitPolicy {
  double active_fraction = 0.7;     ///< share of wait time spent spinning
  double spin_instr_per_ns = 2.2;   ///< instructions burned per spinning ns
  double cs_per_thread_launch = 1.0;///< context switches per thread per region launch
  double base_ctx_switches = 150.0;
  double pages_per_region = 0.5;    ///< page faults per region launch (allocator)
  double base_page_faults = 400.0;
  double migrations_per_thread = 3.0;
  double branch_miss_rate = 0.004;
};

/// Deterministic fault hazards (Section IV-C correctness outliers).
struct FaultModel {
  /// Hang hazard for tests with a critical section inside a work-shared loop
  /// executed by a wide team (Case Study 3's queuing-lock pathology).
  double hang_probability = 0.0;
  int hang_min_threads = 16;
  /// Crash hazard for deeply nested tests that call libm (compiler bug
  /// proxy; the paper observed 3 GCC crashes in 1800 runs).
  double crash_probability = 0.0;
  int crash_min_nesting = 3;
};

struct OmpImplProfile {
  std::string name;          ///< campaign-facing name, e.g. "gcc"
  std::string compiler;      ///< e.g. "g++ 13.1"
  std::string runtime_lib;   ///< e.g. "libgomp.so.1.0.0"
  interp::FpSemantics fp;
  CostModel cost;
  WaitPolicy wait;
  FaultModel fault;
  LockAlgorithm critical_lock = LockAlgorithm::TestAndSet;
};

/// The three built-in vendor-modeled profiles.
[[nodiscard]] OmpImplProfile gcc_profile();
[[nodiscard]] OmpImplProfile clang_profile();
[[nodiscard]] OmpImplProfile intel_profile();

/// 64-bit digest of every simulation parameter of `p`: fp semantics, cost
/// model, wait policy, fault model and lock algorithm (not the descriptive
/// name/compiler/runtime strings). Equal profiles digest equally; changing
/// any one parameter changes the digest. SimExecutor's impl_identity carries
/// it, so a result store never serves a perturbed profile another's results.
[[nodiscard]] std::uint64_t parameter_digest(const OmpImplProfile& p);

/// Lookup by name ("gcc"/"libgomp", "clang"/"libomp", "intel"/"libiomp5").
/// Throws Error for unknown names.
[[nodiscard]] OmpImplProfile profile_by_name(const std::string& name);

}  // namespace ompfuzz::rt
