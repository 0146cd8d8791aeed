// Multi-backend shard scheduler: batched dispatch + work-stealing.
//
// The campaign engine's unit of work is one program's runs under one
// execution backend (a "sub-shard"). This module owns how those units reach
// the worker threads:
//
//   * several backends — each an Executor with its own implementation subset
//     (e.g. a simulated backend next to two subprocess pools with distinct
//     toolchains) — execute one campaign's programs side by side, and the
//     campaign merges their runs into one CampaignResult;
//   * units are grouped into BATCHES of `batch_size` programs. Batches
//     amortize per-dispatch overhead when num_programs >> threads (claiming
//     a batch costs one atomic increment instead of one per program);
//   * idle workers STEAL unstarted units from in-progress batches, so one
//     hang-heavy program cannot strand the rest of its batch behind a single
//     worker — the failure mode of a static batch split under the skewed
//     cost distributions hang timeouts produce.
//
// Scheduling never touches results: the run_unit callback must be a pure
// function of its unit (the campaign's sub-shard runner is), so the merged
// campaign is bit-identical for every backend split, batch size, steal
// schedule, and thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/config.hpp"

namespace ompfuzz::harness {

class Executor;

/// One execution backend of a multi-backend campaign: a (non-owned) executor
/// plus a stable name used by the reports.
struct CampaignBackend {
  Executor* executor = nullptr;
  std::string name;
};

/// One schedulable unit: program `program_index` under backend `backend`.
struct ShardUnit {
  int program_index = 0;
  std::size_t backend = 0;
};

/// What one ShardScheduler::run dispatch did (throughput bookkeeping only —
/// results never depend on it).
struct SchedulerStats {
  std::uint64_t batches = 0;        ///< batches formed
  std::uint64_t units = 0;          ///< units executed
  /// Units claimed by a worker other than the one that owned the batch —
  /// i.e. work the steal pass actually moved. 0 with stealing disabled.
  std::uint64_t stolen_units = 0;
  std::vector<std::uint64_t> units_per_backend;  ///< indexed like backends
};

/// Batched, work-stealing dispatcher for campaign sub-shards.
class ShardScheduler {
 public:
  /// `config` supplies batch_size and steal; `threads` is the worker count
  /// (already resolved — see resolve_thread_count).
  ShardScheduler(std::size_t num_backends, const SchedulerConfig& config,
                 std::size_t threads);

  using RunUnitFn = std::function<void(const ShardUnit&)>;

  /// Executes run_unit for every (program, backend) unit:
  /// `programs_per_backend[b]` lists the program indices backend `b` still
  /// owes, in program order. With threads <= 1 everything runs inline on the
  /// calling thread in deterministic batch order; otherwise `threads`
  /// workers claim batches FIFO and (with steal on) drain stragglers'
  /// batches once the queue empties. Exceptions thrown by run_unit are
  /// rethrown on the calling thread after all workers drain (first one
  /// wins), matching parallel_for.
  SchedulerStats run(const std::vector<std::vector<int>>& programs_per_backend,
                     const RunUnitFn& run_unit) const;

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }

 private:
  std::size_t num_backends_;
  SchedulerConfig config_;
  std::size_t threads_;
};

}  // namespace ompfuzz::harness
