#include "harness/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

/// One batch of sub-shard units for one backend. Workers (owner and thieves
/// alike) claim units with a single fetch_add on `next`, so a unit is
/// executed exactly once no matter how many workers scan the batch.
struct Batch {
  std::size_t backend = 0;
  std::vector<int> programs;
  std::atomic<std::size_t> next{0};
  /// Worker id that popped the batch from the FIFO; units claimed by any
  /// other worker count as stolen. Relaxed: only stats read it.
  std::atomic<int> owner{-1};
};

/// Mirrors one run's SchedulerStats into the telemetry registry, so the
/// scheduler summary can render from a metrics snapshot. Counters accumulate
/// across runs (snapshot deltas scope them); the per-backend unit gauges are
/// instantaneous and describe the most recent run.
void publish_stats(const SchedulerStats& stats) {
  auto& registry = telemetry::Registry::global();
  registry.counter("scheduler.batches").add(stats.batches);
  registry.counter("scheduler.units").add(stats.units);
  registry.counter("scheduler.stolen_units").add(stats.stolen_units);
  for (std::size_t b = 0; b < stats.units_per_backend.size(); ++b) {
    registry.gauge("scheduler.backend." + std::to_string(b) + ".units")
        .set(static_cast<std::int64_t>(stats.units_per_backend[b]));
  }
}

}  // namespace

ShardScheduler::ShardScheduler(std::size_t num_backends,
                               const SchedulerConfig& config,
                               std::size_t threads)
    : num_backends_(num_backends), config_(config),
      threads_(std::max<std::size_t>(1, threads)) {
  config_.validate();
  OMPFUZZ_CHECK(num_backends_ >= 1, "scheduler needs at least one backend");
}

SchedulerStats ShardScheduler::run(
    const std::vector<std::vector<int>>& programs_per_backend,
    const RunUnitFn& run_unit) const {
  OMPFUZZ_CHECK(programs_per_backend.size() == num_backends_,
                "scheduler backend count mismatch");
  SchedulerStats stats;
  stats.units_per_backend.assign(num_backends_, 0);

  // Form batches: each backend's pending programs, in program order, cut
  // into runs of batch_size. Backend-major order — the FIFO hands every
  // worker the next unstarted batch regardless of backend, and stealing
  // erases any imbalance the ordering leaves.
  const auto batch_size = static_cast<std::size_t>(config_.batch_size);
  std::vector<std::unique_ptr<Batch>> batches;
  for (std::size_t b = 0; b < num_backends_; ++b) {
    const auto& programs = programs_per_backend[b];
    stats.units += programs.size();
    stats.units_per_backend[b] += programs.size();
    for (std::size_t start = 0; start < programs.size(); start += batch_size) {
      auto batch = std::make_unique<Batch>();
      batch->backend = b;
      const std::size_t end = std::min(programs.size(), start + batch_size);
      batch->programs.assign(programs.begin() + static_cast<std::ptrdiff_t>(start),
                             programs.begin() + static_cast<std::ptrdiff_t>(end));
      batches.push_back(std::move(batch));
    }
  }
  stats.batches = batches.size();
  if (batches.empty()) {
    publish_stats(stats);
    return stats;
  }

  std::atomic<std::size_t> next_batch{0};
  std::atomic<std::uint64_t> stolen{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto record_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  if (threads_ <= 1) {
    // Inline serial path: deterministic batch order, no worker threads (and
    // no mutex around a non-thread-safe executor needed upstream). Same
    // exception contract as the threaded path: every unit still runs (and
    // reaches the result store) before the first error rethrows, so
    // crash-resume progress does not depend on the thread count.
    for (const auto& batch : batches) {
      for (const int p : batch->programs) {
        try {
          run_unit(ShardUnit{p, batch->backend});
        } catch (...) {
          record_error();
        }
      }
    }
    publish_stats(stats);
    if (first_error) std::rethrow_exception(first_error);
    return stats;
  }

  const auto worker = [&](int id) {
    // Phase 1 — own batches: pop the next unstarted batch off the FIFO and
    // drain it. The per-batch cursor (not a partition) claims units, so
    // thieves can already be helping with this batch.
    for (;;) {
      const std::size_t bi = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (bi >= batches.size()) break;
      Batch& batch = *batches[bi];
      batch.owner.store(id, std::memory_order_relaxed);
      for (;;) {
        const std::size_t k = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (k >= batch.programs.size()) break;
        try {
          run_unit(ShardUnit{batch.programs[k], batch.backend});
        } catch (...) {
          record_error();
        }
      }
    }
    if (!config_.steal) return;
    // Phase 2 — steal: every batch has an owner by now (the FIFO is empty),
    // so any unit still unclaimed sits in a batch some straggler is working
    // through. One sweep suffices: a batch whose cursor is past the end
    // stays that way, and claiming is idempotent-per-unit.
    for (const auto& batch_ptr : batches) {
      Batch& batch = *batch_ptr;
      for (;;) {
        const std::size_t k = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (k >= batch.programs.size()) break;
        if (batch.owner.load(std::memory_order_relaxed) != id) {
          stolen.fetch_add(1, std::memory_order_relaxed);
          if (telemetry::Tracer::instance().active()) {
            telemetry::Tracer::instance().instant(
                "steal", "steal",
                "\"program\":" + std::to_string(batch.programs[k]) +
                    ",\"backend\":" + std::to_string(batch.backend) +
                    ",\"thief\":" + std::to_string(id));
          }
        }
        try {
          run_unit(ShardUnit{batch.programs[k], batch.backend});
        } catch (...) {
          record_error();
        }
      }
    }
  };

  const std::size_t worker_count = std::min(threads_, stats.units);
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back(worker, static_cast<int>(w));
  }
  for (auto& thread : workers) thread.join();

  stats.stolen_units = stolen.load(std::memory_order_relaxed);
  publish_stats(stats);
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace ompfuzz::harness
