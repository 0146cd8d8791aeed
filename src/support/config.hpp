// Configuration for a testing campaign (paper Fig. 1, step (a)).
//
// The paper's workflow starts from a configuration file naming the compilers
// to use, optimization levels, output directories, and the knobs that bound
// program complexity (Section III-C). We support the same: an INI-style file
// parsed into ConfigFile, plus the strongly-typed GeneratorConfig /
// CampaignConfig views used by the rest of the framework. Each section's keys
// are declared once, as rows of that section's field table in config.cpp;
// from_config rejects keys (and, in CampaignConfig, sections) no table owns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ompfuzz {

/// Generic INI-style configuration file:
///   [section]
///   key = value      ; comment
/// Keys are case-sensitive; lookup is by "section.key".
class ConfigFile {
 public:
  ConfigFile() = default;

  /// Parses INI text. Throws ConfigError on malformed lines and on a key
  /// set twice (naming the key and both lines): a repeated key is a typo,
  /// never a silent last-wins override.
  static ConfigFile parse(const std::string& text);

  /// Loads and parses a file. Throws ConfigError if unreadable.
  static ConfigFile load(const std::string& path);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// Typed getters throw ConfigError if present but unparsable — including
  /// trailing garbage ("1.5x") and values outside the target type's range,
  /// which are rejected loudly instead of being silently truncated.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Range-checked variant: throws ConfigError unless the parsed value lies
  /// in [min_value, max_value]. Use wherever the result is narrowed (e.g. to
  /// int) so an oversized config value cannot wrap around quietly.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback,
                                     std::int64_t min_value,
                                     std::int64_t max_value) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Sets or overrides `key` (programmatic callers, e.g. command-line flags
  /// applied over a parsed file).
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

/// Bounds on random program generation (Section III-C; Fig. 2). Defaults are
/// the paper's evaluation configuration (Section V-A).
struct GeneratorConfig {
  int max_expression_size = 5;    ///< max terms in an arithmetic/boolean expression
  int max_nesting_levels = 3;     ///< max nested if/for/OpenMP blocks
  int max_lines_in_block = 10;    ///< max statements in a block
  int array_size = 1000;          ///< elements per generated array
  int max_same_level_blocks = 3;  ///< max sibling blocks at one nesting level
  bool math_func_allowed = true;  ///< allow calls into <math.h>
  double math_func_probability = 0.01;  ///< chance an expression term is a call

  int num_threads = 32;           ///< num_threads(...) on every parallel region
  int max_loop_trip_count = 1000; ///< upper bound for random loop bounds

  // Probabilities steering block-kind selection (uniform choice in the paper;
  // exposed so ablations can re-weight the grammar).
  double p_if_block = 0.25;
  double p_for_block = 0.35;
  double p_openmp_block = 0.30;
  double p_reduction = 0.5;       ///< chance a parallel region carries reduction(:comp)
  double p_critical = 0.38;       ///< chance a loop body contains an omp critical
  double p_parallel_in_loop = 0.07;  ///< chance an OpenMP region nests inside a serial loop

  // Feature gates for the widened construct surface. All default OFF, and a
  // disabled feature draws NOTHING from the generator's RNG, so default
  // configurations keep producing bit-identical program streams. An INI
  // file sets them only through the `features` list (enable_features).
  bool enable_atomic = false;    ///< "#pragma omp atomic" updates
  bool enable_single = false;    ///< "#pragma omp single nowait" blocks
  bool enable_master = false;    ///< "#pragma omp master" blocks
  bool enable_schedule = false;  ///< schedule(static|dynamic[,chunk]) on omp for
  /// Range-partitioned subscripts: banked thread-id forms
  /// `omp_get_thread_num() + k * num_threads` and modulo-wrapped loop forms
  /// `i % array_size`. Both are race-free by construction but beyond the
  /// affine classifier — only value-range interval analysis proves them.
  bool enable_rangeidx = false;
  double p_atomic = 0.45;    ///< chance an enabled region gains atomic updates
  double p_single = 0.45;    ///< chance an enabled region gains a single block
  double p_master = 0.35;    ///< chance an enabled region gains a master block
  double p_schedule = 0.6;   ///< chance an omp-for carries an explicit schedule
  double p_rangeidx = 0.4;   ///< chance an eligible subscript takes a range form

  /// Enables the gates named in a comma-separated list
  /// ("atomic,single,master,schedule,rangeidx"); throws ConfigError on
  /// unknown names.
  void enable_features(const std::string& csv);

  // Every section struct has these. from_config reads its section (unset
  // keys keep their defaults, unknown keys throw ConfigError) and validates;
  // validate() throws ConfigError unless each value is in its row's range.
  static GeneratorConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// One OpenMP implementation as seen by the campaign driver: a display name
/// plus either a simulated profile name or a real compile command template.
struct ImplementationSpec {
  std::string name;            ///< e.g. "gcc", "clang", "intel"
  std::string compile_command; ///< subprocess mode: "g++ -fopenmp -O3 {src} -o {bin}"
  std::string profile;         ///< simulation mode: profile id, e.g. "libgomp"
};

/// Knobs for the real-compiler execution backend (the [executor] section).
/// Mirrors harness::SubprocessOptions — this struct lives in support/ so the
/// config layer stays below the harness; to_subprocess_options() in
/// subprocess_executor.hpp converts.
struct ExecutorConfig {
  std::string work_dir = "_tests";
  std::int64_t run_timeout_ms = 10'000;
  std::int64_t compile_timeout_ms = 60'000;
  /// Let timed test runs overlap other children (see SubprocessOptions).
  bool concurrent_runs = false;
  /// Children the async process pipeline keeps in flight at once.
  /// 0 = 2x hardware concurrency.
  int max_inflight = 0;

  static ExecutorConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// The [scheduler] section: how campaign_demo splits one campaign's
/// implementation list across execution backends.
struct SchedulerConfig {
  /// Execution backends the implementation list is split across (contiguous,
  /// as-equal-as-possible groups, each homogeneous in backend kind). 1 =
  /// single backend.
  int backends = 1;

  static SchedulerConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// Knobs for the persistent result store (the [store] section). Consumed by
/// support/result_store.hpp and the campaign.
struct StoreConfig {
  /// Off by default: campaigns only persist results when asked to.
  bool enabled = false;
  /// Root directory: run-cache records land in `<dir>/runs/`.
  std::string dir = "_store";
  /// Size budget for the run cache in bytes; 0 = unbounded. When set,
  /// ResultStore::gc() evicts least-recently-used record files (by atime)
  /// until the cache fits — the campaign runs it after every completed
  /// campaign.
  std::int64_t max_bytes = 0;

  static StoreConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// Knobs for per-triple retry of harness failures (the [retry] section).
/// A (program, input, implementation) triple whose run came back fabricated
/// (harness_failure: fork/pipe exhaustion, compile timeout, dispatch error)
/// is re-dispatched with bounded exponential backoff; a triple that exhausts
/// its attempts is quarantined into a structured record instead of looping
/// or aborting the campaign. Retried results are real executor results, so
/// retries never change a campaign report — they only recover runs the
/// infrastructure would otherwise have lost.
struct RetryConfig {
  /// Total dispatch attempts per triple (1 = no retries).
  int max_attempts = 3;
  /// Backoff before retry attempt k is base_ms * 2^(k-1), capped at cap_ms.
  std::int64_t base_ms = 10;
  std::int64_t cap_ms = 2000;
  /// A backend whose workers complete this many CONSECUTIVE sub-shards that
  /// still contain harness failures after retries is marked dead: its
  /// pending sub-shards are fabricated as quarantined losses.
  int backend_death_threshold = 4;

  static RetryConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// Knobs for deterministic fault injection (the [faults] section). Consumed
/// by support/fault_injection.hpp; every injectable harness failure path
/// (process-pool spawn/poll/deadline, compile spawn/timeout, store
/// write/fsync/read) consults the process-wide FaultInjector.
struct FaultConfig {
  /// Off by default: production campaigns never self-sabotage.
  bool enabled = false;
  /// Probability that one consultation of an enabled site fails.
  double rate = 0.0;
  /// Seed of the deterministic decision stream (per-site ordinals hash
  /// against it, so a serial run replays the same fault schedule).
  std::uint64_t seed = 0xFA17;
  /// Comma-separated site names to enable (see fault_injection.hpp);
  /// empty = all sites.
  std::string sites;

  static FaultConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// Knobs for out-of-band campaign telemetry (the [telemetry] section).
/// Consumed by support/telemetry.hpp (span tracer) and the campaign metrics
/// sampler (harness/campaign_metrics.hpp). Everything here is strictly
/// observational: traces and metric snapshots go to their own files /
/// stderr, never into campaign_report.json, so reports stay byte-identical
/// with telemetry on or off.
struct TelemetryConfig {
  /// Chrome trace_event JSON output path; empty = tracing off.
  std::string trace_file;
  /// Periodic metrics snapshot path; empty = no snapshot file.
  std::string metrics_file;
  /// Sampler period for the snapshot file / heartbeat.
  std::int64_t interval_ms = 500;
  /// One progress line per sample on stderr (units done/total, children/s,
  /// store hit-rate, live backends).
  bool heartbeat = false;

  static TelemetryConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// Campaign-level configuration (Fig. 1 steps (a)-(d); Section V-A).
struct CampaignConfig {
  GeneratorConfig generator;
  RetryConfig retry;
  std::vector<ImplementationSpec> implementations;
  int num_programs = 200;
  int inputs_per_program = 3;
  std::uint64_t seed = 0xC0FFEE;
  double alpha = 0.2;            ///< comparable-times threshold (Eq. 1)
  double beta = 1.5;             ///< outlier threshold (Eq. 2)
  std::int64_t min_time_us = 1000;   ///< analysis filter: ignore tests faster than this
  /// Worker threads for the campaign engine: one generated program per shard.
  /// 1 = serial (default), 0 = hardware concurrency, N = exactly N workers.
  /// Results are identical for every value (deterministic sharding).
  int threads = 1;

  /// Reads [campaign], [generator] and [retry]. Also rejects any key outside
  /// a section, in a section no field table owns, or missing from its
  /// section's table; [implementations] names are free-form.
  static CampaignConfig from_config(const ConfigFile& file);
  void validate() const;
};

/// std::thread::hardware_concurrency(), promoted to at least 1 (the standard
/// allows it to report 0 when the hint is unavailable).
[[nodiscard]] std::size_t hardware_thread_count() noexcept;

/// Resolves a `threads`-style config knob: any value <= 0 means "use
/// hardware concurrency" (at least 1); positive values are taken literally.
/// The single definition of that convention — campaign.threads and the
/// reduction oracle's worker count both route through it,
/// so the edge cases (0, negative, hardware_concurrency() == 0) cannot
/// resolve differently at different sites.
[[nodiscard]] std::size_t resolve_thread_count(int requested) noexcept;

}  // namespace ompfuzz
