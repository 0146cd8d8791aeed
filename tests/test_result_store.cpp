// Tests for the persistent result store: cache-key collision-proofing (flags
// / input values / timeouts all key material), bit-exact round trips,
// warm-cache campaigns executing zero children, size-bounded GC, and
// store-only resume — across a config change and after a SIGKILL — producing
// a report bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"
#include "test_util.hpp"

namespace ompfuzz::harness {
namespace {

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

/// Stub "compiler" whose produced "binary" echoes its first input argument
/// back as the comp value (so results depend on the generated inputs, making
/// bit-identity assertions meaningful). Both stages log their pid to
/// `children.log`, which is how the tests count spawned children.
std::string make_logging_compiler(const std::string& dir,
                                  const std::string& name,
                                  const std::string& run_sleep = "") {
  const std::string log = dir + "/children.log";
  const std::string payload = dir + "/" + name + "_payload.sh";
  std::string body = "#!/bin/sh\necho run_$$ >> " + log + "\n";
  if (!run_sleep.empty()) body += "sleep " + run_sleep + "\n";
  body += "echo \"${1:-7}\"\necho \"time_us: 2000\"\n";
  write_script(payload, body);
  const std::string cc = dir + "/" + name + ".sh";
  write_script(cc, "#!/bin/sh\necho compile_$$ >> " + log + "\n"
                   "cp " + payload + " \"$2\"\nchmod +x \"$2\"\n");
  return cc;
}

int count_children(const std::string& dir) {
  std::ifstream in(dir + "/children.log");
  int n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

CampaignConfig stub_campaign_config(int programs, int threads) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 4;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0x5109e;
  cfg.threads = threads;
  return cfg;
}

void expect_bits_eq(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.impl_names, b.impl_names);
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_tests, b.total_tests);
  EXPECT_EQ(a.analyzable_tests, b.analyzable_tests);
  EXPECT_EQ(a.skipped_runs, b.skipped_runs);
  EXPECT_EQ(a.regenerated_programs, b.regenerated_programs);
  // Every unit derives its program's static-analysis accounting itself, so
  // a unit served from the store reports the same block as an executed one.
  EXPECT_TRUE(a.analysis == b.analysis);

  ASSERT_EQ(a.per_impl.size(), b.per_impl.size());
  for (const auto& [name, counts] : a.per_impl) {
    const auto it = b.per_impl.find(name);
    ASSERT_NE(it, b.per_impl.end()) << name;
    EXPECT_EQ(counts.slow, it->second.slow) << name;
    EXPECT_EQ(counts.fast, it->second.fast) << name;
    EXPECT_EQ(counts.crash, it->second.crash) << name;
    EXPECT_EQ(counts.hang, it->second.hang) << name;
    EXPECT_EQ(counts.fast_with_divergence, it->second.fast_with_divergence)
        << name;
  }

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    const TestOutcome& oa = a.outcomes[t];
    const TestOutcome& ob = b.outcomes[t];
    EXPECT_EQ(oa.program_index, ob.program_index);
    EXPECT_EQ(oa.input_index, ob.input_index);
    EXPECT_EQ(oa.program_name, ob.program_name);
    EXPECT_EQ(oa.input_text, ob.input_text);
    ASSERT_EQ(oa.runs.size(), ob.runs.size());
    for (std::size_t r = 0; r < oa.runs.size(); ++r) {
      EXPECT_EQ(oa.runs[r].impl, ob.runs[r].impl);
      EXPECT_EQ(oa.runs[r].status, ob.runs[r].status);
      expect_bits_eq(oa.runs[r].time_us, ob.runs[r].time_us);
      expect_bits_eq(oa.runs[r].output, ob.runs[r].output);
    }
    EXPECT_EQ(oa.verdict.per_run, ob.verdict.per_run);
    EXPECT_EQ(oa.divergence.diverges, ob.divergence.diverges);
  }
}

StoreConfig store_config(const std::string& dir) {
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  return cfg;
}

// ------------------------------------------------------------- RunKey ------

TEST(RunKeyTest, EveryFieldIsKeyMaterial) {
  const RunKey base{0x1234, "0x1.8p+3 100", "subprocess;cmd=g++ -O2;run_timeout_ms=1000"};

  RunKey other = base;
  other.program_fingerprint = 0x1235;
  EXPECT_NE(base.digest(), other.digest());

  // Changing a single input value must miss the cache.
  other = base;
  other.input_text = "0x1.8p+4 100";
  EXPECT_NE(base.canonical(), other.canonical());
  EXPECT_NE(base.digest(), other.digest());

  // Changing only the optimization level must miss the cache.
  other = base;
  other.impl_identity = "subprocess;cmd=g++ -O3;run_timeout_ms=1000";
  EXPECT_NE(base.canonical(), other.canonical());
  EXPECT_NE(base.digest(), other.digest());

  // Changing only a timeout must miss the cache (Hang classification).
  other = base;
  other.impl_identity = "subprocess;cmd=g++ -O2;run_timeout_ms=500";
  EXPECT_NE(base.digest(), other.digest());
}

TEST(RunKeyTest, SubprocessIdentityCoversCommandAndTimeouts) {
  const std::string dir = temp_dir();
  const auto identity_for = [&](const std::string& flags,
                                std::int64_t run_timeout) {
    std::vector<ImplementationSpec> impls = {
        {"cc", "g++ " + flags + " {src} -o {bin}", ""}};
    SubprocessOptions opt;
    opt.work_dir = dir + "/w";
    opt.run_timeout_ms = run_timeout;
    SubprocessExecutor exec(impls, opt);
    return exec.impl_identity("cc");
  };
  const std::string o2 = identity_for("-fopenmp -O2", 1000);
  const std::string o3 = identity_for("-fopenmp -O3", 1000);
  const std::string o2_short = identity_for("-fopenmp -O2", 400);
  EXPECT_NE(o2, o3) << "optimization level not part of the impl identity";
  EXPECT_NE(o2, o2_short) << "run timeout not part of the impl identity";
  EXPECT_NE(o2.find("-O2"), std::string::npos);
}

// -------------------------------------------------------- ResultStore ------

TEST(ResultStoreTest, RoundTripsResultsBitExactly) {
  ResultStore store(store_config(temp_dir() + "/store"));

  core::RunResult nan_result;
  nan_result.impl = "gcc";
  nan_result.status = core::RunStatus::Ok;
  nan_result.time_us = 1234.5;
  nan_result.output = std::nan("");
  const RunKey key{42, "0x1p+0", "sim;profile=gcc"};

  EXPECT_FALSE(store.lookup(key).has_value());
  store.put(key, nan_result);
  const auto cached = store.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->impl, "gcc");
  EXPECT_EQ(cached->status, core::RunStatus::Ok);
  expect_bits_eq(cached->time_us, nan_result.time_us);
  expect_bits_eq(cached->output, nan_result.output);

  // Statuses round trip too.
  core::RunResult hang;
  hang.impl = "clang";
  hang.status = core::RunStatus::Hang;
  const RunKey hang_key{43, "0x1p+0", "sim;profile=clang"};
  store.put(hang_key, hang);
  ASSERT_TRUE(store.lookup(hang_key).has_value());
  EXPECT_EQ(store.lookup(hang_key)->status, core::RunStatus::Hang);

  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_GE(stats.hits, 3u);
  EXPECT_GE(stats.misses, 1u);
}

// stats() reads the counters lock-free while workers hammer lookup/put.
// Before the counters moved to telemetry::Counter they were plain ints
// updated under the mutex but readable outside it; this test runs under the
// TSan build, where that old shape was a reportable data race — the real
// assertion here is TSan staying silent.
TEST(ResultStoreTest, StatsAreRaceFreeUnderConcurrentTraffic) {
  ResultStore store(store_config(temp_dir() + "/store"));

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 100;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = store.stats();
      // Counters are monotonic, so a snapshot can never exceed the totals
      // read after the writers join (checked below); here just keep the
      // loads live.
      EXPECT_LE(stats.puts, static_cast<std::uint64_t>(kWriters) *
                                static_cast<std::uint64_t>(kOpsPerWriter));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        core::RunResult r;
        r.impl = "gcc";
        r.status = core::RunStatus::Ok;
        r.time_us = i;
        const RunKey key{
            static_cast<std::uint64_t>(w * kOpsPerWriter + i) + 1,
            "0x1p+0", "sim;profile=gcc"};
        (void)store.lookup(key);  // cold: a miss
        store.put(key, r);
        (void)store.lookup(key);  // warm: a hit
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto stats = store.stats();
  const auto total =
      static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
  EXPECT_EQ(stats.puts, total);
  EXPECT_EQ(stats.hits, total);
  EXPECT_EQ(stats.misses, total);
}

TEST(ResultStoreTest, SurvivesReopenAcrossProcessesWorthOfState) {
  const std::string dir = temp_dir() + "/store";
  const RunKey key{7, "100", "subprocess;cmd=cc -O1"};
  core::RunResult result;
  result.impl = "cc";
  result.output = 3.25;
  {
    ResultStore store(store_config(dir));
    store.put(key, result);
  }
  ResultStore fresh(store_config(dir));  // new instance: reads from disk
  const auto cached = fresh.lookup(key);
  ASSERT_TRUE(cached.has_value());
  expect_bits_eq(cached->output, 3.25);
}

TEST(ResultStoreTest, NestedDirIsCreatedAndRoundTrips) {
  const std::string dir = temp_dir() + "/results/run1/store";
  const RunKey key{9, "1", "sim;profile=gcc"};
  core::RunResult result;
  result.impl = "gcc";
  result.output = 0.5;
  {
    ResultStore store(store_config(dir));
    store.put(key, result);
  }
  const auto cached = ResultStore(store_config(dir)).lookup(key);
  ASSERT_TRUE(cached.has_value());
  expect_bits_eq(cached->output, 0.5);
}

TEST(ResultStoreTest, UncreatableDirThrowsNamingIt) {
  const std::string base = temp_dir();
  std::ofstream(base + "/plain_file") << "x";
  const std::string dir = base + "/plain_file/store";  // a regular file as parent
  try {
    ResultStore store(store_config(dir));
    FAIL() << "opening a store under a regular file did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
}

TEST(ResultStoreTest, DigestCollisionIsAMissNotAStaleHit) {
  const std::string dir = temp_dir() + "/store";
  const RunKey a{1, "i", "x"};
  const RunKey b{2, "j", "y"};
  core::RunResult result;
  result.impl = "cc";
  result.output = 9.0;
  {
    ResultStore store(store_config(dir));
    store.put(a, result);
  }
  // Simulate a digest collision: a's record sits where b's digest points.
  const auto hex = [](const RunKey& k) {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(k.digest()[0]),
                  static_cast<unsigned long long>(k.digest()[1]));
    return std::string(buf);
  };
  const std::string a_path =
      dir + "/runs/" + hex(a).substr(0, 2) + "/" + hex(a) + ".run";
  const std::string b_dir = dir + "/runs/" + hex(b).substr(0, 2);
  mkdir(b_dir.c_str(), 0755);
  ASSERT_EQ(::rename(a_path.c_str(), (b_dir + "/" + hex(b) + ".run").c_str()), 0);

  ResultStore store(store_config(dir));
  EXPECT_FALSE(store.lookup(b).has_value())
      << "record with a mismatched embedded key was returned as a hit";
}

TEST(ResultStoreTest, CorruptRecordIsAMiss) {
  const std::string dir = temp_dir() + "/store";
  const RunKey key{5, "in", "impl"};
  {
    ResultStore store(store_config(dir));
    core::RunResult result;
    result.impl = "cc";
    store.put(key, result);
  }
  // Truncate the record mid-file.
  const auto d = key.digest();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d[0]),
                static_cast<unsigned long long>(d[1]));
  const std::string path =
      dir + "/runs/" + std::string(buf).substr(0, 2) + "/" + buf + ".run";
  std::ofstream(path, std::ios::trunc) << "ompfuzz-run v1\nkey ";

  ResultStore store(store_config(dir));
  EXPECT_FALSE(store.lookup(key).has_value());
}

// ------------------------------------------- warm-cache campaign runs ------

TEST(WarmCache, SecondRunExecutesZeroChildrenAndIsBitIdentical) {
  const std::string dir = temp_dir();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  opt.max_inflight = 8;

  ResultStore store(store_config(dir + "/store"));

  SubprocessExecutor cold_exec(impls, opt);
  Campaign cold(stub_campaign_config(4, 2), cold_exec);
  cold.set_result_store(&store);
  const CampaignResult cold_result = cold.run();
  const int cold_children = count_children(dir);
  // 4 programs x 2 impls compiles + 4 x 2 inputs x 2 impls runs.
  EXPECT_EQ(cold_children, 24);

  // Fresh executor (empty binary cache): every child the warm run spawns
  // would be counted. There must be none.
  SubprocessExecutor warm_exec(impls, opt);
  Campaign warm(stub_campaign_config(4, 2), warm_exec);
  warm.set_result_store(&store);
  const CampaignResult warm_result = warm.run();
  EXPECT_EQ(count_children(dir), cold_children)
      << "warm-cache campaign spawned children";
  expect_identical(cold_result, warm_result);
}

TEST(WarmCache, ChangingOnlyTheCompileFlagsMissesTheCache) {
  const std::string dir = temp_dir();
  const std::string cc = make_logging_compiler(dir, "cc");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));

  // The stub compiler ignores trailing flags, so "-O2" vs "-O3" exercises
  // exactly the cache key, not the toolchain.
  std::vector<ImplementationSpec> o2 = {{"cc", cc + " {src} {bin} -O2", ""}};
  SubprocessExecutor exec_o2(o2, opt);
  Campaign first(stub_campaign_config(2, 1), exec_o2);
  first.set_result_store(&store);
  (void)first.run();
  const int after_first = count_children(dir);
  ASSERT_GT(after_first, 0);

  std::vector<ImplementationSpec> o3 = {{"cc", cc + " {src} {bin} -O3", ""}};
  SubprocessExecutor exec_o3(o3, opt);
  Campaign second(stub_campaign_config(2, 1), exec_o3);
  second.set_result_store(&store);
  (void)second.run();
  EXPECT_EQ(count_children(dir), 2 * after_first)
      << "a compile-flag change was served from the cache (stale results)";

  // And re-running the -O2 campaign is still fully cached.
  SubprocessExecutor exec_again(o2, opt);
  Campaign third(stub_campaign_config(2, 1), exec_again);
  third.set_result_store(&store);
  (void)third.run();
  EXPECT_EQ(count_children(dir), 2 * after_first);
}

TEST(WarmCache, PartialHitsOnlyExecuteTheMissingTriples) {
  const std::string dir = temp_dir();
  const std::string cc = make_logging_compiler(dir, "cc");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));

  std::vector<ImplementationSpec> one = {{"alpha", cc + " {src} {bin}", ""}};
  SubprocessExecutor exec_one(one, opt);
  Campaign first(stub_campaign_config(3, 1), exec_one);
  first.set_result_store(&store);
  const auto first_result = first.run();
  const int after_first = count_children(dir);  // 3 compiles + 6 runs
  EXPECT_EQ(after_first, 9);

  // Adding an implementation re-executes only the new impl's triples.
  std::vector<ImplementationSpec> two = {{"alpha", cc + " {src} {bin}", ""},
                                         {"beta", cc + " {src} {bin}", ""}};
  SubprocessExecutor exec_two(two, opt);
  Campaign second(stub_campaign_config(3, 1), exec_two);
  second.set_result_store(&store);
  const auto second_result = second.run();
  EXPECT_EQ(count_children(dir), after_first + 9)
      << "cached alpha triples were re-executed";

  // The cached alpha runs are bit-identical inside the merged result.
  ASSERT_EQ(second_result.outcomes.size(), first_result.outcomes.size());
  for (std::size_t t = 0; t < first_result.outcomes.size(); ++t) {
    ASSERT_EQ(second_result.outcomes[t].runs.size(), 2u);
    expect_bits_eq(second_result.outcomes[t].runs[0].output,
                   first_result.outcomes[t].runs[0].output);
  }
}

TEST(WarmCache, HarnessFailuresAreNeverPersisted) {
  // A compile the harness cannot even spawn (its compiler vanished after
  // the executors were built) fabricates Crash results — those must not
  // poison the store: the next run has to try again, not replay the hiccup.
  const std::string dir = temp_dir();
  const std::string ghost = dir + "/vanishing_compiler.sh";
  write_script(ghost, "#!/bin/sh\nexit 0\n");
  std::vector<ImplementationSpec> impls = {{"ghost", ghost + " {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));
  SubprocessExecutor exec(impls, opt);
  SubprocessExecutor exec2(impls, opt);
  ASSERT_EQ(std::remove(ghost.c_str()), 0);
  Campaign campaign(stub_campaign_config(2, 1), exec);
  campaign.set_result_store(&store);
  const auto result = campaign.run();
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.runs[0].status, core::RunStatus::Crash);
    EXPECT_TRUE(outcome.runs[0].harness_failure);
  }
  EXPECT_EQ(store.stats().puts, 0u) << "transient failure persisted to store";

  ResultStore reread(store_config(dir + "/store"));
  Campaign second(stub_campaign_config(2, 1), exec2);
  second.set_result_store(&reread);
  (void)second.run();
  EXPECT_EQ(reread.stats().hits, 0u)
      << "transient failure replayed from the store";

  // A compiler that *rejects* the program (diagnostic + nonzero exit) is a
  // genuine observation and is cached.
  const std::string reject = dir + "/reject.sh";
  write_script(reject, "#!/bin/sh\necho 'error: no thanks' >&2\n"
                       "echo diagnosed\nexit 1\n");
  std::vector<ImplementationSpec> reject_impls = {
      {"strict", reject + " {src} {bin}", ""}};
  SubprocessExecutor reject_exec(reject_impls, opt);
  Campaign third(stub_campaign_config(2, 1), reject_exec);
  third.set_result_store(&store);
  const auto rejected = third.run();
  for (const auto& outcome : rejected.outcomes) {
    EXPECT_EQ(outcome.runs[0].status, core::RunStatus::Crash);
    EXPECT_FALSE(outcome.runs[0].harness_failure);
  }
  EXPECT_GT(store.stats().puts, 0u) << "genuine compile rejection not cached";
}

TEST(WarmCache, SimBackendCampaignsShareTheStore) {
  const std::string dir = temp_dir() + "/store";
  SimExecutorOptions opt;
  opt.num_threads = 4;

  ResultStore store(store_config(dir));
  SimExecutor exec_a(opt);
  Campaign a(stub_campaign_config(5, 2), exec_a);
  a.set_result_store(&store);
  const auto result_a = a.run();
  const auto stats_cold = store.stats();
  EXPECT_EQ(stats_cold.hits, 0u);
  EXPECT_GT(stats_cold.puts, 0u);

  SimExecutor exec_b(opt);
  Campaign b(stub_campaign_config(5, 1), exec_b);
  b.set_result_store(&store);
  const auto result_b = b.run();
  const auto stats_warm = store.stats();
  EXPECT_EQ(stats_warm.puts, stats_cold.puts) << "warm sim campaign re-executed";
  expect_identical(result_a, result_b);
}

// ------------------------------------------------------ size-bounded GC ----

RunKey gc_key(int i) {
  RunKey key;
  key.program_fingerprint = 0x6c0000 + static_cast<std::uint64_t>(i);
  key.input_text = "0x1p0";
  key.impl_identity = "name=cc;subprocess;cmd=cc";
  return key;
}

std::string record_path(const StoreConfig& cfg, const RunKey& key) {
  char hex[33];
  const auto d = key.digest();
  std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                static_cast<unsigned long long>(d[0]),
                static_cast<unsigned long long>(d[1]));
  return cfg.dir + "/runs/" + std::string(hex, 2) + "/" + hex + ".run";
}

void set_atime(const std::string& path, std::time_t when) {
  timespec times[2] = {{when, 0}, {when, 0}};  // atime and mtime
  ASSERT_EQ(utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(StoreGc, EvictsLeastRecentlyUsedUntilUnderBudget) {
  StoreConfig cfg = store_config(temp_dir());
  std::uint64_t record_bytes = 0;
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 6; ++i) {
      core::RunResult r;
      r.impl = "cc";
      r.output = i;
      r.time_us = 1000;
      writer.put(gc_key(i), r);
    }
    struct stat st = {};
    ASSERT_EQ(stat(record_path(cfg, gc_key(0)).c_str(), &st), 0);
    record_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  // Ascending atimes: record 0 is the coldest.
  const std::time_t base = 1'700'000'000;
  for (int i = 0; i < 6; ++i) {
    set_atime(record_path(cfg, gc_key(i)), base + i * 60);
  }

  // Budget for three records: the three oldest must go, in atime order.
  cfg.max_bytes = static_cast<std::int64_t>(record_bytes * 3);
  ResultStore store(cfg);
  const auto stats = store.gc();
  EXPECT_EQ(stats.scanned_files, 6u);
  EXPECT_EQ(stats.evicted_files, 3u);
  EXPECT_EQ(stats.evicted_bytes, record_bytes * 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(store.lookup(gc_key(i)).has_value()) << i;
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_TRUE(store.lookup(gc_key(i)).has_value()) << i;
  }
}

TEST(StoreGc, EvictionForgetsTheInProcessMemo) {
  StoreConfig cfg = store_config(temp_dir());
  cfg.max_bytes = 1;  // everything must go
  ResultStore store(cfg);
  core::RunResult r;
  r.impl = "cc";
  store.put(gc_key(0), r);
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  const auto stats = store.gc();
  EXPECT_EQ(stats.evicted_files, 1u);
  // The record file was the only copy: the store that swept it misses too.
  EXPECT_FALSE(store.lookup(gc_key(0)).has_value());
}

TEST(StoreGc, EvictionByAnotherStoreIsAMissForEveryStore) {
  // Two stores on one directory, as two campaigns sharing a cache would
  // have: once B's sweep evicts a record, A must miss it too, even though
  // A wrote and read that record itself.
  StoreConfig cfg = store_config(temp_dir());
  ResultStore a(cfg);
  core::RunResult r;
  r.impl = "cc";
  a.put(gc_key(0), r);
  ASSERT_TRUE(a.lookup(gc_key(0)).has_value());

  cfg.max_bytes = 1;  // everything must go
  ResultStore b(cfg);
  EXPECT_EQ(b.gc().evicted_files, 1u);
  EXPECT_FALSE(a.lookup(gc_key(0)).has_value());
  EXPECT_EQ(a.stats().hits, 1u);
  EXPECT_EQ(a.stats().misses, 1u);
}

TEST(StoreGc, UnboundedStoreNeverEvicts) {
  StoreConfig cfg = store_config(temp_dir());
  ResultStore store(cfg);  // max_bytes = 0
  core::RunResult r;
  r.impl = "cc";
  store.put(gc_key(0), r);
  const auto stats = store.gc();
  EXPECT_EQ(stats.scanned_files, 0u);
  EXPECT_EQ(stats.evicted_files, 0u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());
}

TEST(StoreGc, LookupRefreshesAtimeSoWarmRecordsSurvive) {
  StoreConfig cfg = store_config(temp_dir());
  std::uint64_t record_bytes = 0;
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 2; ++i) {
      core::RunResult r;
      r.impl = "cc";
      writer.put(gc_key(i), r);
    }
    struct stat st = {};
    ASSERT_EQ(stat(record_path(cfg, gc_key(0)).c_str(), &st), 0);
    record_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  const std::time_t base = 1'700'000'000;
  set_atime(record_path(cfg, gc_key(0)), base);
  set_atime(record_path(cfg, gc_key(1)), base + 60);

  // Reading record 0 must refresh its timestamp, making record 1 the
  // eviction victim.
  cfg.max_bytes = static_cast<std::int64_t>(record_bytes);
  ResultStore store(cfg);
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  const auto stats = store.gc();
  EXPECT_EQ(stats.evicted_files, 1u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());
  EXPECT_FALSE(store.lookup(gc_key(1)).has_value());
}

TEST(StoreGc, ConfigParsesAndValidatesMaxBytes) {
  const auto file = ConfigFile::parse("[store]\nenabled = true\n"
                                      "max_bytes = 4096\n");
  StoreConfig cfg = StoreConfig::from_config(file);
  EXPECT_EQ(cfg.max_bytes, 4096);
  const auto bad = ConfigFile::parse("[store]\nmax_bytes = -1\n");
  EXPECT_THROW((void)StoreConfig::from_config(bad), ConfigError);
}

/// The end-of-run GC end to end: a campaign on a store whose budget is below
/// one record evicts everything it wrote once it completes, so the next run
/// on that store re-executes instead of resuming.
TEST(StoreGc, CampaignRunEvictsDownToBudget) {
  const std::string dir = temp_dir();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {{"cc", cc + " {src} {bin}", ""}};
  const CampaignConfig cfg = stub_campaign_config(3, 1);
  const auto run_once = [&](const std::string& work_dir, StoreConfig store_cfg) {
    ResultStore store(store_cfg);
    SubprocessOptions opt;
    opt.work_dir = dir + work_dir;
    opt.concurrent_runs = true;
    SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    campaign.set_result_store(&store);
    (void)campaign.run();
  };

  StoreConfig unbounded = store_config(dir + "/store");
  run_once("/work_cold", unbounded);
  const int cold_children = count_children(dir);
  ASSERT_GT(cold_children, 0);

  // Warm run under a budget far below one record: it executes nothing, then
  // its end-of-run GC evicts every record...
  StoreConfig bounded = unbounded;
  bounded.max_bytes = 1;
  run_once("/work_warm", bounded);
  EXPECT_EQ(count_children(dir), cold_children);

  // ...so a third run has nothing to resume from and re-executes.
  run_once("/work_cold2", unbounded);
  EXPECT_EQ(count_children(dir), 2 * cold_children);
}

// ------------------------------------------------ resume across gates ------

/// Store-only resume never mixes configurations: a gated campaign re-run on
/// a store a default campaign filled reuses exactly the triples whose keys
/// are unchanged (programs the gates did not alter) and executes the rest,
/// so its report is byte-identical to the same gated campaign on an empty
/// store.
TEST(StoreResume, FeatureGatedRerunMatchesAFreshGatedRun) {
  const std::string dir = temp_dir();
  const CampaignConfig default_cfg = stub_campaign_config(12, 2);
  CampaignConfig gated_cfg = default_cfg;
  gated_cfg.generator.enable_features("atomic,single,master,schedule");

  SimExecutorOptions opt;
  opt.num_threads = 4;
  const auto run_on = [&](const CampaignConfig& cfg, const std::string& store_dir,
                          ResultStore::Stats* stats) {
    ResultStore store(store_config(store_dir));
    SimExecutor exec(opt);
    Campaign campaign(cfg, exec);
    campaign.set_result_store(&store);
    std::string json = to_json(campaign.run());
    if (stats != nullptr) *stats = store.stats();
    return json;
  };

  const std::string default_json = run_on(default_cfg, dir + "/shared", nullptr);
  ResultStore::Stats rerun{};
  const std::string resumed_json = run_on(gated_cfg, dir + "/shared", &rerun);
  const std::string fresh_json = run_on(gated_cfg, dir + "/fresh", nullptr);

  EXPECT_NE(fresh_json, default_json) << "the gates changed nothing";
  EXPECT_EQ(resumed_json, fresh_json)
      << "gated rerun on a default-filled store mixed in stale results";
  EXPECT_GT(rerun.misses, 0u) << "gated programs must execute, not restore";
  EXPECT_EQ(rerun.hits + rerun.misses,
            static_cast<std::uint64_t>(12 * 2 * 3));
}

// ---------------------------------------------------- kill and resume ------

constexpr int kKillCampaignPrograms = 8;

CampaignConfig kill_campaign_config() {
  CampaignConfig cfg = stub_campaign_config(kKillCampaignPrograms, 1);
  cfg.inputs_per_program = 1;
  return cfg;
}

/// Child mode of KillResume.SurvivesSigkillBitIdentically: runs the campaign
/// against the slow stub compiler on a result store until killed. Driven via
/// env so the parent can SIGKILL an honest separate process mid-flight.
TEST(KillResume, ChildCampaign) {
  const char* dir_env = std::getenv("OMPFUZZ_KILL_CHILD_DIR");
  if (dir_env == nullptr) {
    GTEST_SKIP() << "helper: only meaningful as the re-exec'd child";
  }
  const std::string dir = dir_env;
  std::vector<ImplementationSpec> impls = {
      {"cc", dir + "/cc.sh {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work_child";
  opt.concurrent_runs = true;
  SubprocessExecutor exec(impls, opt);
  ResultStore store(store_config(dir + "/store"));
  Campaign campaign(kill_campaign_config(), exec);
  campaign.set_result_store(&store);
  (void)campaign.run();
  std::_Exit(0);  // completed without being killed (fast machine): fine too
}

/// Completed `.run` records under `store_dir` (in-flight temp files, which
/// a kill can leave behind, do not count).
int count_store_records(const std::string& store_dir) {
  namespace fs = std::filesystem;
  int n = 0;
  // error_code overloads throughout: the child is renaming files into place
  // while the parent scans.
  std::error_code ec;
  for (fs::recursive_directory_iterator it(store_dir + "/runs", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".run") ++n;
  }
  return n;
}

TEST(KillResume, SurvivesSigkillBitIdentically) {
  const std::string dir = temp_dir();
  // Slow stub (sleeps while "running") so the parent reliably catches the
  // child mid-campaign.
  (void)make_logging_compiler(dir, "cc", "0.15");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    setenv("OMPFUZZ_KILL_CHILD_DIR", dir.c_str(), 1);
    execl("/proc/self/exe", "/proc/self/exe",
          "--gtest_filter=KillResume.ChildCampaign",
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // One input and one implementation per program: one record per program.
  // Wait until at least two programs' records are durably in the store, then
  // SIGKILL the campaign mid-flight.
  const std::string store_dir = dir + "/store";
  for (int spin = 0; spin < 1000 && count_store_records(store_dir) < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  const int records_after_kill = count_store_records(store_dir);
  ASSERT_GE(records_after_kill, 2) << "child never stored two programs";

  // Uninterrupted reference run (no store, own work dir).
  std::vector<ImplementationSpec> impls = {
      {"cc", dir + "/cc.sh {src} {bin}", ""}};
  SubprocessOptions ref_opt;
  ref_opt.work_dir = dir + "/work_ref";
  ref_opt.concurrent_runs = true;
  SubprocessExecutor ref_exec(impls, ref_opt);
  Campaign reference(kill_campaign_config(), ref_exec);
  const auto expected = reference.run();

  // Resume on the killed child's store: only the missing triples execute,
  // each one compile plus one run.
  SubprocessOptions res_opt;
  res_opt.work_dir = dir + "/work_resume";
  res_opt.concurrent_runs = true;
  SubprocessExecutor res_exec(impls, res_opt);
  ResultStore store(store_config(store_dir));
  Campaign resumed_campaign(kill_campaign_config(), res_exec);
  resumed_campaign.set_result_store(&store);
  const int before_resume = count_children(dir);
  const auto resumed = resumed_campaign.run();
  const int missing = kKillCampaignPrograms - records_after_kill;
  EXPECT_EQ(count_children(dir) - before_resume, 2 * missing);
  EXPECT_EQ(store.stats().hits, static_cast<std::uint64_t>(records_after_kill));
  EXPECT_EQ(to_json(resumed), to_json(expected));
  expect_identical(expected, resumed);

  // The store now holds the full campaign: a third run spawns no child.
  ResultStore store2(store_config(store_dir));
  SubprocessExecutor again_exec(impls, res_opt);
  Campaign again(kill_campaign_config(), again_exec);
  again.set_result_store(&store2);
  const int children_before = count_children(dir);
  const auto full = again.run();
  EXPECT_EQ(count_children(dir), children_before);
  EXPECT_EQ(to_json(full), to_json(expected));
}

}  // namespace
}  // namespace ompfuzz::harness
