// Persistent result store: the content-addressed run cache, and the only
// resume mechanism a campaign has.
//
// A ResultStore is an on-disk, content-addressed map from a RunKey (program
// fingerprint, full input serialization, and the implementation's cache
// identity — compile command, flags, timeouts) to one core::RunResult. The
// campaign consults it before dispatching a batch to the executor and fills
// it as batches complete, so a re-run after a config tweak only executes
// triples whose key changed, and a killed campaign re-run on the same store
// executes only the triples whose records had not been written yet. Every
// record is written temp-then-rename with fsync, so a crash leaves either a
// whole record or none. Because the key is the content, a changed config can
// only miss — it can never restore another configuration's result.
//
// The store holds raw executor observations only (status, time bits, output
// bits). Verdicts and divergence are recomputed by the campaign's
// deterministic classification pass, so cached results are bit-identical to
// a cold run.
//
// Layering note: core::RunResult (the one value this store persists) lives
// in support/run_result.hpp, so this module includes nothing above its own
// layer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "support/run_result.hpp"
#include "support/config.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz {

/// Identity of one (program, input, implementation) execution. Every field
/// that can change the observed RunResult must be part of the key:
///   * program_fingerprint — the full structural hash of the generated
///     program (Program::fingerprint covers everything codegen emits);
///   * input_text — the complete argv serialization of the input set
///     (hex-float exact, so two inputs collide only if they are bit-equal);
///   * impl_identity — the executor's self-description for the
///     implementation: backend kind, compile command incl. flags, timeouts
///     (Executor::impl_identity). Changing only an optimization level or a
///     timeout yields a different key, never a stale hit.
struct RunKey {
  std::uint64_t program_fingerprint = 0;
  std::string input_text;
  std::string impl_identity;

  /// Single-line canonical form; records embed it verbatim so a digest
  /// collision is detected by comparison instead of returning a wrong result.
  [[nodiscard]] std::string canonical() const;

  /// 128-bit content address (two independently salted FNV-1a passes over
  /// the canonical form). Used as the on-disk object name.
  [[nodiscard]] std::array<std::uint64_t, 2> digest() const;
};

/// Composes the impl_identity key material every store consumer must use:
/// the display name is key material too (it is part of the RunResult), and
/// an empty executor identity disables caching (returns ""). Shared by the
/// campaign and the reducer's oracle so their cache entries interoperate —
/// a warm reduction can replay runs the campaign executed.
[[nodiscard]] std::string store_impl_identity(const std::string& impl_name,
                                              const std::string& identity);

/// On-disk, content-addressed (RunKey -> RunResult) store.
///
/// Layout: `<dir>/runs/<dd>/<digest>.run`, one record file per key, fanned
/// out by the first byte of the digest. Record files are written to a
/// temporary name, fsync'd, then renamed into place, so readers (including
/// concurrent campaigns sharing one store) never observe a partial record.
/// Thread-safe: lookups and puts may come from any campaign worker.
class ResultStore {
 public:
  explicit ResultStore(StoreConfig config);

  /// Returns the cached result for `key`, or nullopt. A record whose
  /// embedded canonical key differs from `key` (digest collision) or that
  /// fails to parse (foreign/corrupt file) is treated as a miss.
  [[nodiscard]] std::optional<core::RunResult> lookup(const RunKey& key);

  /// Persists `result` under `key` (atomically, last writer wins). Disk I/O
  /// failure (ENOSPC, fsync error) never throws: the result stays memoized
  /// in-process, the failure is counted in stats().write_failures, and after
  /// kWriteFailureLimit consecutive failures disk writes are disabled for
  /// the life of this store (one stderr warning) — a campaign degrades to
  /// uncached execution instead of aborting from a worker thread.
  void put(const RunKey& key, const core::RunResult& result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;            ///< records durably written
    std::uint64_t write_failures = 0;  ///< puts that did not reach disk
  };
  /// Point-in-time tallies for THIS store instance. Lock-free: the fields
  /// are relaxed atomics internally, so snapshotting stats while workers
  /// are mid-lookup/put is race-free (TSan-covered) — each field is
  /// individually coherent, the set is not a transaction. Process-wide
  /// totals are mirrored to the telemetry registry ("store.hits", ...).
  [[nodiscard]] Stats stats() const;

  /// True once persistent writes were disabled by consecutive I/O failures.
  [[nodiscard]] bool writes_disabled() const noexcept {
    return writes_disabled_.load(std::memory_order_relaxed);
  }

  /// Consecutive put() I/O failures that disable further disk writes.
  static constexpr int kWriteFailureLimit = 4;

  struct GcStats {
    std::uint64_t scanned_files = 0;
    std::uint64_t scanned_bytes = 0;
    std::uint64_t evicted_files = 0;
    std::uint64_t evicted_bytes = 0;
  };

  /// Size-bounded garbage collection: when the record files exceed
  /// `config.max_bytes`, evicts least-recently-used records (by atime —
  /// lookup() refreshes the timestamp of every record it reads from disk,
  /// and gc() refreshes everything in the in-process memo — the working set
  /// served from memory — before ordering, so the order is meaningful on
  /// noatime mounts and for memo-hot records alike) until the cache fits
  /// the budget. In-flight temp files are skipped; deleting a record never
  /// races a writer (put() recreates it atomically, temp-then-rename).
  /// No-op when max_bytes is 0.
  GcStats gc();

  [[nodiscard]] const std::string& dir() const noexcept { return config_.dir; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::string object_path(const RunKey& key) const;

  StoreConfig config_;
  mutable std::mutex mutex_;
  /// Digest hex -> (canonical key, result) for everything read or written by
  /// this process, so a warm shard never re-reads its record files.
  std::map<std::string, std::pair<std::string, core::RunResult>> memo_;
  /// Per-instance tallies (telemetry::Counter is a relaxed atomic — readable
  /// without mutex_), each mirrored into the process-wide registry metric
  /// named in the comment so the sampler and renderers see store traffic.
  telemetry::Counter hits_;            ///< store.hits
  telemetry::Counter misses_;          ///< store.misses
  telemetry::Counter puts_;            ///< store.puts
  telemetry::Counter write_failures_;  ///< store.write_failures
  /// Set once kWriteFailureLimit consecutive put() I/O failures occur;
  /// read lock-free on the put() fast path.
  std::atomic<bool> writes_disabled_{false};
  int consecutive_write_failures_ = 0;  ///< guarded by mutex_
};

}  // namespace ompfuzz
