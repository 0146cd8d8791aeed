// Tests for the event-driven process pipeline (async_process.hpp): pool
// throughput beyond max_inflight, process-group timeout kills (the OpenMP
// grandchild leak regression), exclusive quiet-timing jobs, and the memoized
// PATH resolver.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/async_process.hpp"
#include "support/fault_injection.hpp"

namespace ompfuzz::harness {
namespace {

using Clock = std::chrono::steady_clock;

std::string temp_dir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/ompfuzz_ap_" +
                    std::to_string(getpid()) + "_" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// True once `pid` no longer exists as a live process (gone or zombie).
bool process_dead(pid_t pid) {
  if (kill(pid, 0) != 0) return errno == ESRCH;
  // Still signalable: it may be a zombie awaiting its reparented reap.
  const std::string stat = slurp("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return true;  // raced /proc teardown
  for (std::size_t i = paren + 1; i < stat.size(); ++i) {
    if (stat[i] == ' ') continue;
    return stat[i] == 'Z';
  }
  return true;
}

bool wait_until_dead(pid_t pid, std::chrono::milliseconds budget) {
  const auto deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    if (process_dead(pid)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return process_dead(pid);
}

struct Interval {
  long long start = 0;
  long long end = 0;
};

Interval read_interval(const std::string& path) {
  Interval iv;
  std::istringstream in(slurp(path));
  in >> iv.start >> iv.end;
  return iv;
}

bool overlaps(const Interval& a, const Interval& b) {
  return a.start < b.end && b.start < a.end;
}

// ----------------------------------------------------------- pool basics ---

TEST(AsyncProcessPool, ClampsInflightAgainstFdLimit) {
  struct rlimit saved {};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  // Lower only the soft limit: each in-flight child holds pipe fds, so an
  // unclamped max_inflight of 100000 would exhaust the table mid-batch.
  struct rlimit lowered = saved;
  lowered.rlim_cur = 256;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  {
    const AsyncProcessPool pool(100'000);
    // (256 - 64 reserved) / 3 fds per child = 64.
    EXPECT_EQ(pool.max_inflight(), 64u);
  }
  {
    // A request under the cap passes through untouched.
    const AsyncProcessPool pool(8);
    EXPECT_EQ(pool.max_inflight(), 8u);
  }
  {
    // The budget is process-wide: a second live pool only gets what the
    // first one's reservation left, so several pools (one per toolchain in
    // a multi-backend campaign) cannot jointly exhaust the fd table.
    const AsyncProcessPool first(32);   // reserves 96 of the 192-fd budget
    EXPECT_EQ(first.max_inflight(), 32u);
    const AsyncProcessPool second(100'000);
    EXPECT_EQ(second.max_inflight(), 32u);  // (192 - 96) / 3
  }
  {
    // Destroying the pools released their reservations.
    const AsyncProcessPool pool(100'000);
    EXPECT_EQ(pool.max_inflight(), 64u);
  }
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  // The default (0 = 2x hardware concurrency) is never clamped to zero even
  // when the limit leaves almost no child budget. 96 (not lower) keeps the
  // pool's own wake pipe constructible with the fds the test process
  // already holds open (gtest logs, TSan internals).
  lowered.rlim_cur = 96;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  {
    const AsyncProcessPool pool(0);
    EXPECT_GE(pool.max_inflight(), 1u);
    EXPECT_LE(pool.max_inflight(), 10u);  // (96 - 64) / 3
  }
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
}

TEST(AsyncProcessPool, CompletesManyJobsBeyondInflight) {
  AsyncProcessPool pool(3);
  EXPECT_EQ(pool.max_inflight(), 3u);
  std::vector<std::future<ProcessResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        pool.submit({{"/bin/echo", "job", std::to_string(i)}, 5'000, false}));
  }
  for (int i = 0; i < 12; ++i) {
    const ProcessResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.output, "job " + std::to_string(i) + "\n");
  }
}

TEST(AsyncProcessPool, ReportsExitCodesAndSignals) {
  AsyncProcessPool pool(4);
  auto ok = pool.submit({{"/bin/sh", "-c", "exit 3"}, 5'000, false});
  auto crash = pool.submit({{"/bin/sh", "-c", "kill -SEGV $$"}, 5'000, false});
  auto missing = pool.submit({{"/nonexistent/binary"}, 5'000, false});
  EXPECT_EQ(ok.get().exit_code, 3);
  const ProcessResult crashed = crash.get();
  EXPECT_TRUE(crashed.signaled);
  EXPECT_EQ(crashed.term_signal, SIGSEGV);
  EXPECT_NE(missing.get().exit_code, 0);
}

TEST(AsyncProcessPool, OverlapsChildrenUpToInflight) {
  // 8 children sleeping 250 ms through an 8-slot pool: serial execution would
  // take 2 s; require well under that (generous margin for loaded CI).
  AsyncProcessPool pool(8);
  const auto start = Clock::now();
  std::vector<std::future<ProcessResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit({{"/bin/sleep", "0.25"}, 10'000, false}));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().exit_code, 0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  EXPECT_LT(elapsed.count(), 1'500) << "children did not overlap";
}

TEST(AsyncProcessPool, DestructorKillsInflightChildren) {
  const std::string dir = temp_dir();
  const std::string pid_file = dir + "/pid";
  const std::string script = dir + "/linger.sh";
  write_script(script, "#!/bin/sh\necho $$ > " + pid_file + "\nsleep 30\n");
  {
    AsyncProcessPool pool(2);
    pool.submit({{script}, 60'000, false}, nullptr);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (slurp(pid_file).empty() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }  // pool destructor: SIGKILL to the group
  const pid_t child = static_cast<pid_t>(std::stol("0" + slurp(pid_file)));
  ASSERT_GT(child, 0) << "child never started";
  EXPECT_TRUE(wait_until_dead(child, std::chrono::seconds(3)));
}

// ----------------------------------------------- process-group timeouts ----

/// Regression: a hung test child that forked its own helper (OpenMP runtimes
/// and shell stubs both do) used to outlive the timeout kill, leaking
/// threads and cores — the kill hit the child but not the grandchild. The
/// group kill must take down the whole tree.
TEST(RunProcess, TimeoutKillsWholeProcessGroup) {
  const std::string dir = temp_dir();
  const std::string gpid_file = dir + "/gpid";
  const std::string script = dir + "/forker.sh";
  write_script(script, "#!/bin/sh\n"
                       "sh -c 'echo $$ > " + gpid_file + "; exec sleep 30' &\n"
                       "echo ready\n"
                       "sleep 30\n");

  const ProcessResult r = run_process({script}, 300);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.output, "ready\n");

  const pid_t grandchild = static_cast<pid_t>(std::stol("0" + slurp(gpid_file)));
  ASSERT_GT(grandchild, 0) << "grandchild never started";
  EXPECT_TRUE(wait_until_dead(grandchild, std::chrono::seconds(3)))
      << "grandchild " << grandchild << " survived the group kill";
}

TEST(AsyncProcessPool, TimeoutKillsWholeProcessGroup) {
  const std::string dir = temp_dir();
  const std::string gpid_file = dir + "/gpid";
  const std::string script = dir + "/forker.sh";
  write_script(script, "#!/bin/sh\n"
                       "sh -c 'echo $$ > " + gpid_file + "; exec sleep 30' &\n"
                       "sleep 30\n");

  AsyncProcessPool pool(4);
  const ProcessResult r = pool.submit({{script}, 300, false}).get();
  EXPECT_TRUE(r.timed_out);

  const pid_t grandchild = static_cast<pid_t>(std::stol("0" + slurp(gpid_file)));
  ASSERT_GT(grandchild, 0) << "grandchild never started";
  EXPECT_TRUE(wait_until_dead(grandchild, std::chrono::seconds(3)))
      << "grandchild " << grandchild << " survived the group kill";
}

TEST(AsyncProcessPool, TimeoutDoesNotStallOtherChildren) {
  // One hung child must not delay the others past its own deadline.
  AsyncProcessPool pool(4);
  const auto start = Clock::now();
  auto hung = pool.submit({{"/bin/sleep", "30"}, 2'000, false});
  auto quick = pool.submit({{"/bin/echo", "ok"}, 5'000, false});
  EXPECT_EQ(quick.get().output, "ok\n");
  const auto quick_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  EXPECT_LT(quick_ms.count(), 1'000) << "quick child waited on the hung one";
  EXPECT_TRUE(hung.get().timed_out);
}

// --------------------------------------------------- exclusive (quiet) -----

TEST(AsyncProcessPool, ExclusiveJobsRunAlone) {
  // Queue: n0 n1 n2 x0 n3 n4 n5 x1. Each exclusive job must wait for the
  // normal jobs ahead of it to drain and run alone; the normal jobs between
  // two exclusive ones are admitted together.
  const std::string dir = temp_dir();
  const std::vector<std::vector<std::string>> normal_groups = {
      {"n0", "n1", "n2"}, {"n3", "n4", "n5"}};
  const std::vector<std::string> exclusive_tags = {"x0", "x1"};
  const auto script_path = [&](const std::string& tag) {
    return dir + "/" + tag + ".sh";
  };
  // Each script records its [start, end] wall-clock interval. A normal job
  // does not sleep for a window but meets the rest of its group: it marks
  // its arrival, then waits (up to ~5 s, then fails) until every member has
  // arrived. So a passing job proves its whole group ran at once, however
  // loaded the machine is.
  const auto write_interval_script = [&](const std::string& tag,
                                         const std::string& middle) {
    write_script(script_path(tag),
                 "#!/bin/sh\n"
                 "s=$(date +%s%N)\n" + middle +
                 "e=$(date +%s%N)\n"
                 "echo \"$s $e\" > " + dir + "/" + tag + ".ivl\n");
  };
  for (const auto& group : normal_groups) {
    std::string all_arrived;
    for (const auto& peer : group) {
      if (!all_arrived.empty()) all_arrived += " && ";
      all_arrived += "[ -e " + dir + "/" + peer + ".arrived ]";
    }
    for (const auto& tag : group) {
      write_interval_script(tag, "touch " + dir + "/" + tag + ".arrived\n"
                                 "i=0\n"
                                 "until " + all_arrived + "; do\n"
                                 "  i=$((i+1)); [ $i -gt 500 ] && exit 3\n"
                                 "  sleep 0.01\n"
                                 "done\n");
    }
  }
  for (const auto& tag : exclusive_tags) write_interval_script(tag, "sleep 0.12\n");

  // Every script is written before the first submit: a child forked while
  // the test still held a script open for writing would inherit that fd,
  // and exec'ing the script would then fail with ETXTBSY (exit 127) — the
  // load-dependent flake this ordering removes.
  AsyncProcessPool pool(8);
  std::vector<std::future<ProcessResult>> futures;
  for (std::size_t g = 0; g < normal_groups.size(); ++g) {
    for (const auto& tag : normal_groups[g]) {
      futures.push_back(pool.submit({{script_path(tag)}, 10'000, false}));
    }
    futures.push_back(pool.submit({{script_path(exclusive_tags[g])}, 10'000, true}));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().exit_code, 0) << "exit 3: a normal job's group never met";
  }

  std::vector<Interval> all;
  std::vector<Interval> exclusive;
  for (const auto& group : normal_groups) {
    for (const auto& tag : group) all.push_back(read_interval(dir + "/" + tag + ".ivl"));
  }
  const std::size_t normal_count = all.size();
  for (const auto& tag : exclusive_tags) {
    exclusive.push_back(read_interval(dir + "/" + tag + ".ivl"));
    all.push_back(exclusive.back());
  }
  for (const auto& iv : all) ASSERT_GT(iv.end, iv.start);

  // Exclusive jobs overlap nothing — not each other, not normal jobs.
  for (const auto& x : exclusive) {
    int overlapping = 0;
    for (const auto& other : all) {
      if (other.start == x.start && other.end == x.end) continue;  // itself
      overlapping += overlaps(x, other) ? 1 : 0;
    }
    EXPECT_EQ(overlapping, 0);
  }
  // ... while the pool did overlap normal jobs (otherwise this test would
  // also pass on a fully serialized pool and prove nothing): every interval
  // of a group contains the moment its last member arrived, so the 3 pairs
  // within each group overlap, and no pair across the exclusive job does.
  int normal_overlaps = 0;
  for (std::size_t i = 0; i < normal_count; ++i) {
    for (std::size_t j = i + 1; j < normal_count; ++j) {
      normal_overlaps += overlaps(all[i], all[j]) ? 1 : 0;
    }
  }
  EXPECT_EQ(normal_overlaps, 6) << "pool never ran a group's children at once";
}

// ------------------------------------------------------------- resolver ----

TEST(ResolveExecutable, MemoizedResolutionIsStable) {
  const std::string first = resolve_executable("echo");
  const std::string second = resolve_executable("echo");
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('/'), std::string::npos) << "echo not found on PATH?";
}

TEST(ResolveExecutable, PathQualifiedNamesPassThrough) {
  EXPECT_EQ(resolve_executable("/bin/echo"), "/bin/echo");
  EXPECT_EQ(resolve_executable("./relative/tool"), "./relative/tool");
}

TEST(ResolveExecutable, UnknownNamesReturnedVerbatim) {
  EXPECT_EQ(resolve_executable("definitely-not-a-real-binary-42"),
            "definitely-not-a-real-binary-42");
}

TEST(RunProcess, TimeoutEnforcedAfterChildClosesStdout) {
  // Regression: a child that closed stdout (EOF on the pipe) but kept
  // running used to slip past the deadline into an unbounded waitpid.
  const auto start = Clock::now();
  const ProcessResult r =
      run_process({"/bin/sh", "-c", "exec 1>&-; sleep 30"}, 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(elapsed.count(), 5'000);
}

TEST(RunProcess, ShebangLessScriptFallsBackToShell) {
  const std::string dir = temp_dir();
  const std::string script = dir + "/plain.sh";
  write_script(script, "echo via-sh\n");  // no #! line: exec gives ENOEXEC
  const ProcessResult r = run_process({script}, 5'000);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "via-sh\n");
}

// ------------------------------------------------------ fault injection ----
// Every pool-side fault site must fabricate the documented "lost child"
// shape — exit 127 with empty output, the result downstream classification
// turns into a harness failure — never a fake observation.

FaultConfig pool_faults(const char* sites, double rate = 1.0) {
  FaultConfig config;
  config.enabled = true;
  config.rate = rate;
  config.sites = sites;
  return config;
}

TEST(PoolFaultInjection, SpawnSitesFabricateLostChildResults) {
  for (const char* site : {"pool_pipe", "pool_fork", "pool_exec", "pool_stall"}) {
    const ScopedFaultInjection scoped(pool_faults(site));
    AsyncProcessPool pool(4);
    const ProcessResult r =
        pool.submit({{"/bin/echo", "should-not-appear"}, 5'000, false}).get();
    EXPECT_EQ(r.exit_code, 127) << site;
    EXPECT_TRUE(r.output.empty()) << site;
    EXPECT_FALSE(r.timed_out) << site;
    const auto stats = FaultInjector::instance().site_stats(
        *fault_site_by_name(site));
    EXPECT_GE(stats.injected, 1u) << site;
  }
}

TEST(PoolFaultInjection, PollHiccupsOnlyDelayCompletion) {
  // pool_poll skips one poll() round; results must still arrive intact.
  const ScopedFaultInjection scoped(pool_faults("pool_poll", 0.5));
  AsyncProcessPool pool(4);
  std::vector<std::future<ProcessResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit({{"/bin/echo", std::to_string(i)}, 5'000, false}));
  }
  for (int i = 0; i < 8; ++i) {
    const ProcessResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.output, std::to_string(i) + "\n");
  }
  EXPECT_GE(FaultInjector::instance().site_stats(FaultSite::PoolPoll).checked, 1u);
}

TEST(PoolFaultInjection, ScopedInjectionDisablesOnExit) {
  {
    const ScopedFaultInjection scoped(pool_faults("pool_exec"));
    AsyncProcessPool pool(2);
    EXPECT_EQ(pool.submit({{"/bin/echo", "x"}, 5'000, false}).get().exit_code, 127);
  }
  EXPECT_FALSE(FaultInjector::instance().enabled());
  AsyncProcessPool pool(2);
  const ProcessResult r = pool.submit({{"/bin/echo", "x"}, 5'000, false}).get();
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "x\n");
}

}  // namespace
}  // namespace ompfuzz::harness
