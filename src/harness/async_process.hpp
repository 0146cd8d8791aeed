// Event-driven child-process pipeline for the subprocess backend.
//
// The paper's driver (Fig. 1 b-c) spends its wall-clock forking compilers and
// test binaries. The original backend blocked one campaign worker inside a
// poll loop per child, so a 16-thread campaign still ran children nearly one
// at a time. AsyncProcessPool replaces that with a single event-loop thread
// that keeps up to `max_inflight` children running at once:
//
//   * children are spawned with pre-resolved argv (memoized PATH lookup) in
//     their own process group, so a timeout kill reaps OpenMP grandchildren
//     too (kill(-pid, ...));
//   * all stdout pipes are multiplexed over one poll() set; exits are reaped
//     with waitpid(WNOHANG), accelerated by pollable pidfds where the kernel
//     provides them;
//   * per-child deadlines escalate SIGINT -> SIGKILL exactly like the
//     paper's hang handling (Section IV-C), without blocking anything else.
//
// Jobs marked `exclusive` run with the machine otherwise quiet: the loop
// waits until no other child is in flight and admits nothing alongside them.
// The subprocess executor uses this for timed test runs so concurrent
// compiles can't inflate the self-reported times the outlier analysis
// compares.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ompfuzz::harness {

/// Raw outcome of one child process.
struct ProcessResult {
  int exit_code = -1;
  bool signaled = false;
  int term_signal = 0;
  bool timed_out = false;
  std::string output;  ///< captured stdout

  /// A lost child: one that never ran (exec failure, fork/pipe exhaustion,
  /// an injected spawn fault) reads as exit 127 with no output. Generated
  /// binaries exit 0/2 or die by signal, so this shape is never a genuine
  /// test outcome: executors classify it as a harness failure.
  [[nodiscard]] static ProcessResult lost() {
    ProcessResult r;
    r.exit_code = 127;
    return r;
  }
  [[nodiscard]] bool is_lost() const noexcept {
    return exit_code == 127 && output.empty();
  }
};

/// One child to run: argv plus its deadline. `exclusive` jobs wait for the
/// pool to drain and run alone (quiet-timing mode).
struct ProcessJob {
  std::vector<std::string> argv;
  std::int64_t timeout_ms = 10'000;
  bool exclusive = false;
};

/// Resolves a command name against PATH before fork(): children can then use
/// execv, which is async-signal-safe, where execvp's PATH search may allocate
/// — undefined between fork and exec in a multithreaded process. Resolution
/// is memoized per command name (PATH is effectively constant for the life
/// of the process; spawning thousands of children must not re-walk it with
/// stat() every time). Names containing '/' pass through uncached.
[[nodiscard]] std::string resolve_executable(const std::string& name);

/// Runs argv[0] with the given arguments, capturing stdout and killing the
/// child's whole process group after timeout_ms: one job through a one-slot
/// AsyncProcessPool, so the child is spawned, timed out, reaped, counted and
/// traced exactly like a campaign's. A child that cannot be spawned returns
/// ProcessResult::lost() (exit 127) rather than throwing.
[[nodiscard]] ProcessResult run_process(const std::vector<std::string>& argv,
                                        std::int64_t timeout_ms);

class AsyncProcessPool {
 public:
  /// Spawns the event-loop thread. `max_inflight` bounds concurrently live
  /// children; 0 resolves to 2x hardware concurrency (children spend most of
  /// their life blocked in-kernel, so oversubscribing the cores pays off).
  /// The resolved value is clamped against RLIMIT_NOFILE — each in-flight
  /// child holds pipe fds (plus a pidfd), so an oversized knob would make
  /// pipe()/fork() fail mid-batch — and the clamp is logged to stderr;
  /// max_inflight() reports the effective bound.
  explicit AsyncProcessPool(std::size_t max_inflight = 0);

  /// Kills any in-flight children (SIGKILL to the group), completes queued
  /// jobs with a synthetic killed result, and joins the loop thread.
  ~AsyncProcessPool();

  AsyncProcessPool(const AsyncProcessPool&) = delete;
  AsyncProcessPool& operator=(const AsyncProcessPool&) = delete;

  using CompletionFn = std::function<void(ProcessResult)>;

  /// Enqueues a job; `on_done` fires on the event-loop thread when the child
  /// completes (keep it cheap: fulfill a promise, submit follow-up jobs).
  /// Throws ompfuzz::Error once the destructor has begun, also when called
  /// from a callback the shutdown completes.
  void submit(ProcessJob job, CompletionFn on_done);

  /// Future-returning convenience over the callback form.
  [[nodiscard]] std::future<ProcessResult> submit(ProcessJob job);

  [[nodiscard]] std::size_t max_inflight() const noexcept {
    return max_inflight_;
  }

 private:
  struct PendingJob {
    ProcessJob job;
    CompletionFn on_done;
  };
  /// One live child as tracked by the event loop (loop-thread private).
  struct Child {
    pid_t pid = -1;
    int out_fd = -1;   ///< stdout pipe read end (non-blocking), -1 once closed
    int pidfd = -1;    ///< pollable exit notification, -1 when unsupported
    bool exited = false;
    int wait_status = 0;
    bool exclusive = false;
    int kill_phase = 0;  ///< 0 = alive, 1 = SIGINT sent, 2 = SIGKILL sent
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point kill_deadline;
    /// Span start (tracer clock) when tracing was active at spawn; 0 = no
    /// span. The pool emits one "process" span per child at completion.
    std::uint64_t span_start_ns = 0;
    ProcessResult result;
    CompletionFn on_done;
  };

  void event_loop();
  void wake();

  std::size_t max_inflight_;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: submit() -> event loop

  std::mutex mutex_;  ///< guards pending_ and shutdown_
  std::deque<PendingJob> pending_;
  bool shutdown_ = false;

  std::thread loop_thread_;
};

}  // namespace ompfuzz::harness
