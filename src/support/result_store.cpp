#include "support/result_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"

namespace ompfuzz {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Writes `content` to `path` atomically: temp file in the same directory,
/// fsync, rename, directory fsync. Crash at any point leaves either the old
/// record or the new one, never a torn file.
void write_file_atomic(const std::string& path, const std::string& content) {
  // pid distinguishes processes sharing a store; the counter distinguishes
  // threads of this process (callers do not hold a common lock).
  static std::atomic<unsigned long> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error("result store: cannot create " + tmp);
  if (inject_fault(FaultSite::StoreWrite)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("result store: injected write failure for " + tmp);
  }
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw Error("result store: write failed for " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (inject_fault(FaultSite::StoreFsync)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("result store: injected fsync failure for " + tmp);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw Error("result store: fsync failed for " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("result store: rename failed for " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error("result store: cannot create directory " + path);
  }
}

/// Sequential line reader over an in-memory payload.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Next line without its trailing '\n'; false at end of input.
  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    return true;
  }

  /// Next line, which must start with `prefix` (a tag plus one space);
  /// returns the remainder or nullopt.
  std::optional<std::string_view> tagged(std::string_view prefix) {
    std::string_view line;
    if (!next(line)) return std::nullopt;
    if (!line.starts_with(prefix)) return std::nullopt;
    return line.substr(prefix.size());
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string serialize_run(const core::RunResult& run) {
  std::string out;
  out += "impl " + run.impl + "\n";
  out += "status " + std::to_string(static_cast<int>(run.status)) + "\n";
  out += "time " + hex64(std::bit_cast<std::uint64_t>(run.time_us)) + "\n";
  out += "output " + hex64(std::bit_cast<std::uint64_t>(run.output)) + "\n";
  return out;
}

bool parse_status(std::string_view text, core::RunStatus& out) {
  std::int64_t v = 0;
  if (!parse_i64(text, v)) return false;
  if (v < 0 || v > static_cast<std::int64_t>(core::RunStatus::Skipped)) {
    return false;
  }
  out = static_cast<core::RunStatus>(v);
  return true;
}

/// Process-wide registry mirrors of the per-instance store tallies: one
/// registration shared by every ResultStore in the process, so the metrics
/// sampler sees aggregate store traffic.
struct StoreMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& puts;
  telemetry::Counter& write_failures;
};

StoreMetrics& store_metrics() {
  auto& registry = telemetry::Registry::global();
  static StoreMetrics metrics{
      registry.counter("store.hits"), registry.counter("store.misses"),
      registry.counter("store.puts"), registry.counter("store.write_failures")};
  return metrics;
}

}  // namespace

// ------------------------------------------------------------- RunKey ------

std::string RunKey::canonical() const {
  // Single line: the embedded fields contain no newlines (input_text is
  // argv-style, impl identities are command lines), and records compare the
  // whole line verbatim, so internal spaces are unambiguous.
  return "fp=" + hex64(program_fingerprint) + " input=" + input_text +
         " impl=" + impl_identity;
}

std::array<std::uint64_t, 2> RunKey::digest() const {
  const std::string text = canonical();
  const std::uint64_t lo = fnv1a64(text);
  // Second word: FNV-1a over the same bytes from a *different starting
  // state* (the salt prefix is absorbed first). A trailing salt would make
  // hi a pure function of lo — FNV is iterative — collapsing the digest to
  // 64 bits; a leading salt keeps the two passes independent.
  const std::uint64_t hi = fnv1a64("ompfuzz-run-key-hi|" + text);
  return {hi, lo};
}

std::string store_impl_identity(const std::string& impl_name,
                                const std::string& identity) {
  return identity.empty() ? std::string() : "name=" + impl_name + ";" + identity;
}

// -------------------------------------------------------- ResultStore ------

ResultStore::ResultStore(StoreConfig config) : config_(std::move(config)) {
  config_.validate();
  std::error_code ec;
  std::filesystem::create_directories(config_.dir + "/runs", ec);
  if (ec) {
    throw Error("result store: cannot create directory " + config_.dir + ": " +
                ec.message());
  }
}

std::string ResultStore::object_path(const RunKey& key) const {
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  return config_.dir + "/runs/" + hex.substr(0, 2) + "/" + hex + ".run";
}

std::optional<core::RunResult> ResultStore::lookup(const RunKey& key) {
  telemetry::ScopedSpan span("store", "lookup");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(key.program_fingerprint));
  }
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  const std::string canonical = key.canonical();

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = memo_.find(hex); it != memo_.end()) {
      if (it->second.first == canonical) {
        hits_.add();
        store_metrics().hits.add();
        return it->second.second;
      }
      // Digest collision against an in-memory record.
      misses_.add();
      store_metrics().misses.add();
      return std::nullopt;
    }
  }

  // Disk I/O outside the lock: record files are immutable-once-renamed, so
  // concurrent readers (and writers of other keys) need no coordination.
  const std::string path = object_path(key);
  std::string text;
  {
    std::ifstream in(path);
    if (!in) {
      misses_.add();
      store_metrics().misses.add();
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Injected read faults degrade the record into shapes the parser must
  // reject as a miss: a short read loses trailing fields; a corrupt read
  // clobbers the version magic (first line), which is guaranteed-detectable
  // — flipping arbitrary payload bytes could corrupt a value line into
  // something that still parses, and a wrong cached result is the one
  // failure a cache must never produce, injected or not.
  if (inject_fault(FaultSite::StoreReadShort)) text.resize(text.size() / 2);
  if (inject_fault(FaultSite::StoreReadCorrupt) && !text.empty()) {
    text[0] ^= 0x20;
  }

  LineCursor cursor(text);
  std::string_view line;
  core::RunResult run;
  std::uint64_t time_bits = 0;
  std::uint64_t output_bits = 0;
  const bool ok = [&] {
    if (!cursor.next(line) || line != "ompfuzz-run v1") return false;
    const auto rec_key = cursor.tagged("key ");
    // A mismatched embedded key is a digest collision (or a foreign file):
    // report a miss rather than a wrong cached result.
    if (!rec_key || *rec_key != canonical) return false;
    const auto impl = cursor.tagged("impl ");
    if (!impl) return false;
    run.impl = std::string(*impl);
    const auto status = cursor.tagged("status ");
    if (!status || !parse_status(*status, run.status)) return false;
    const auto time = cursor.tagged("time ");
    if (!time || !parse_hex64(*time, time_bits)) return false;
    const auto output = cursor.tagged("output ");
    if (!output || !parse_hex64(*output, output_bits)) return false;
    return true;
  }();
  if (ok) {
    // Refresh the record's timestamps so LRU eviction (gc) sees this read
    // even on noatime mounts. Best-effort: a failure only ages the record.
    (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
  }
  if (!ok) {
    misses_.add();
    store_metrics().misses.add();
    return std::nullopt;
  }
  run.time_us = std::bit_cast<double>(time_bits);
  run.output = std::bit_cast<double>(output_bits);
  const std::lock_guard<std::mutex> lock(mutex_);
  memo_[hex] = {canonical, run};
  hits_.add();
  store_metrics().hits.add();
  return run;
}

void ResultStore::put(const RunKey& key, const core::RunResult& result) {
  OMPFUZZ_CHECK(!result.harness_failure,
                "harness-failure results must not be persisted");
  telemetry::ScopedSpan span("store", "put");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(key.program_fingerprint));
  }
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  const std::string canonical = key.canonical();

  std::string record = "ompfuzz-run v1\nkey " + canonical + "\n";
  record += serialize_run(result);

  // Disk I/O outside the lock: mkdir tolerates EEXIST, temp names are
  // unique per call, and the rename is atomic — concurrent same-key writers
  // are last-wins with identical content. Only memo_/stats_ need the mutex,
  // so campaign workers don't serialize behind each other's fsyncs.
  //
  // A failed write (ENOSPC, a dying disk, an injected fault) must NOT
  // propagate out of a campaign worker thread: the store is a cache, and a
  // cache that cannot persist merely forgets — the result is still correct
  // and still memoized in-process. Failures are counted; after a run of
  // consecutive failures (a full disk does not get better by retrying) disk
  // writes are disabled for the life of this store with one stderr warning.
  bool write_ok = false;
  if (!writes_disabled_.load(std::memory_order_relaxed)) {
    try {
      make_dir(config_.dir + "/runs/" + hex.substr(0, 2));
      write_file_atomic(object_path(key), record);
      write_ok = true;
    } catch (const Error&) {
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  memo_[hex] = {canonical, result};
  if (write_ok) {
    puts_.add();
    store_metrics().puts.add();
    consecutive_write_failures_ = 0;
  } else {
    write_failures_.add();
    store_metrics().write_failures.add();
    if (++consecutive_write_failures_ >= kWriteFailureLimit &&
        !writes_disabled_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ompfuzz: result store disabled after %d consecutive "
                   "write failures (last: %s); campaign continues uncached\n",
                   kWriteFailureLimit, object_path(key).c_str());
    }
  }
}

ResultStore::Stats ResultStore::stats() const {
  // Lock-free: each field is a relaxed atomic, so this races nothing even
  // while workers are mid-lookup/put (the set of fields is not a snapshot
  // transaction, and no caller needs it to be).
  Stats stats;
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.puts = puts_.value();
  stats.write_failures = write_failures_.value();
  return stats;
}

namespace {

struct RecordFile {
  std::string hex;   ///< 32-hex digest (file stem)
  std::string path;
  std::uint64_t bytes = 0;
  struct timespec atime = {};
};

bool older(const RecordFile& a, const RecordFile& b) {
  if (a.atime.tv_sec != b.atime.tv_sec) return a.atime.tv_sec < b.atime.tv_sec;
  if (a.atime.tv_nsec != b.atime.tv_nsec) return a.atime.tv_nsec < b.atime.tv_nsec;
  return a.path < b.path;  // deterministic order under equal timestamps
}

}  // namespace

ResultStore::GcStats ResultStore::gc() {
  GcStats out;
  if (config_.max_bytes <= 0) return out;

  // Memo hits never touch the disk, so a record this process kept reading
  // from memory would look cold to the atime order. The memo is exactly the
  // process's working set (everything read or written here): refresh those
  // records now, before ordering, so eviction prefers records no live
  // campaign is using.
  std::set<std::string> warm;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [hex, entry] : memo_) warm.insert(hex);
  }

  // Scan runs/<dd>/*.run. Temp files of in-flight put()s are skipped: they
  // are renamed into place atomically, so deleting only finished records can
  // never tear a concurrent write.
  std::vector<RecordFile> records;
  const std::string runs_dir = config_.dir + "/runs";
  DIR* top = ::opendir(runs_dir.c_str());
  if (top == nullptr) return out;
  while (const dirent* fan = ::readdir(top)) {
    if (fan->d_name[0] == '.') continue;
    const std::string sub = runs_dir + "/" + fan->d_name;
    DIR* subdir = ::opendir(sub.c_str());
    if (subdir == nullptr) continue;
    while (const dirent* entry = ::readdir(subdir)) {
      const std::string name = entry->d_name;
      if (name.size() < 4 || !name.ends_with(".run") ||
          name.find(".tmp.") != std::string::npos) {
        continue;
      }
      RecordFile record;
      record.hex = name.substr(0, name.size() - 4);
      record.path = sub + "/" + name;
      if (warm.contains(record.hex)) {
        (void)::utimensat(AT_FDCWD, record.path.c_str(), nullptr, 0);
      }
      struct stat st = {};
      if (::stat(record.path.c_str(), &st) != 0) continue;
      record.bytes = static_cast<std::uint64_t>(st.st_size);
      record.atime = st.st_atim;
      records.push_back(std::move(record));
    }
    ::closedir(subdir);
  }
  ::closedir(top);

  std::uint64_t total = 0;
  for (const auto& record : records) {
    ++out.scanned_files;
    total += record.bytes;
  }
  out.scanned_bytes = total;
  if (total <= static_cast<std::uint64_t>(config_.max_bytes)) return out;

  std::sort(records.begin(), records.end(), older);
  for (const auto& record : records) {
    if (total <= static_cast<std::uint64_t>(config_.max_bytes)) break;
    if (::unlink(record.path.c_str()) != 0) continue;
    total -= record.bytes;
    ++out.evicted_files;
    out.evicted_bytes += record.bytes;
    // The in-process memo must forget the record too, or this process would
    // keep "hitting" an entry it just evicted from disk.
    const std::lock_guard<std::mutex> lock(mutex_);
    memo_.erase(record.hex);
  }
  return out;
}

}  // namespace ompfuzz
