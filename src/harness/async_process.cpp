#include "harness/async_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "support/config.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::string resolve_uncached(const std::string& name) {
  const char* path_env = std::getenv("PATH");
  if (path_env == nullptr) return name;
  for (const auto& dir : split(path_env, ':')) {
    const std::string candidate =
        (dir.empty() ? std::string(".") : std::string(dir)) + "/" + name;
    // Regular-file check: access(X_OK) alone also matches directories,
    // which would shadow the real binary later in PATH.
    struct stat st {};
    if (::stat(candidate.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return name;  // let execv report ENOENT from the child (exit 127)
}

/// A freshly forked child plus the descriptors the event loop watches.
struct SpawnedChild {
  pid_t pid = -1;
  int out_fd = -1;
  int pidfd = -1;
};

[[nodiscard]] int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

/// Forks and execs argv in its own process group, stdout captured through a
/// non-blocking pipe. Throws Error only on pipe/fork failure; exec failure
/// surfaces as the child's exit 127.
SpawnedChild spawn_child(const std::vector<std::string>& argv) {
  OMPFUZZ_CHECK(!argv.empty(), "spawn_child needs a command");

  // Children are spawned from the event-loop thread while other threads run:
  // O_CLOEXEC keeps a child forked concurrently elsewhere from inheriting
  // this pipe's write end (which would defer our EOF until that unrelated
  // child exits), and the argv arrays are built before fork() so the child
  // only calls async-signal-safe functions.
  int pipe_fd[2];
  if (pipe2(pipe_fd, O_CLOEXEC) != 0) throw Error("pipe2() failed");

  const std::string exe = resolve_executable(argv[0]);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  // Pre-built ENOEXEC fallback (shebang-less script): execvp ran those via
  // the shell, and execv must keep that behavior without allocating
  // post-fork.
  std::vector<char*> shargv;
  shargv.reserve(argv.size() + 2);
  shargv.push_back(const_cast<char*>("/bin/sh"));
  shargv.push_back(const_cast<char*>(exe.c_str()));
  for (std::size_t i = 1; i < argv.size(); ++i) {
    shargv.push_back(const_cast<char*>(argv[i].c_str()));
  }
  shargv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fd[0]);
    close(pipe_fd[1]);
    throw Error("fork() failed");
  }
  if (pid == 0) {
    // Child. Own process group first: an OpenMP test binary spawns worker
    // threads and sometimes grandchildren; a timeout kill must reach the
    // whole tree via kill(-pid, ...), not just the direct child.
    setpgid(0, 0);
    // stdout -> pipe, stderr silenced, exec. dup2 clears CLOEXEC on the
    // duplicated descriptor, so stdout survives the exec — except when the
    // write end already IS fd 1 (parent launched with stdout closed):
    // dup2(1, 1) is a no-op that leaves CLOEXEC set, so clear it directly.
    if (pipe_fd[1] == STDOUT_FILENO) {
      fcntl(STDOUT_FILENO, F_SETFD, 0);
    } else {
      dup2(pipe_fd[1], STDOUT_FILENO);
    }
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execv(exe.c_str(), cargv.data());
    if (errno == ENOEXEC) execv("/bin/sh", shargv.data());
    _exit(127);
  }

  // Parent half of the standard setpgid handshake: whichever side runs first
  // wins; EACCES after the child exec'd just means the child's own call won.
  setpgid(pid, pid);
  close(pipe_fd[1]);
  fcntl(pipe_fd[0], F_SETFL, O_NONBLOCK);
  return {pid, pipe_fd[0], open_pidfd(pid)};
}

/// Signals the child's whole process group, falling back to the child alone
/// if the group is already gone (setpgid raced a very fast exit).
void kill_child_tree(pid_t pid, int sig) {
  if (::kill(-pid, sig) != 0) ::kill(pid, sig);
}

/// Non-blocking drain of a pipe read end. Returns true on EOF.
bool drain_pipe(int fd, std::string& out) {
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;
    if (errno == EINTR) continue;
    return false;  // EAGAIN: no more data right now
  }
}

void decode_wait_status(int status, ProcessResult& result) {
  if (result.timed_out) return;  // classification already decided
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.term_signal = WTERMSIG(status);
  }
}

}  // namespace

std::string resolve_executable(const std::string& name) {
  if (name.find('/') != std::string::npos) return name;
  static std::mutex cache_mutex;
  static std::map<std::string, std::string> cache;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    if (const auto it = cache.find(name); it != cache.end()) return it->second;
  }
  std::string resolved = resolve_uncached(name);
  const std::lock_guard<std::mutex> lock(cache_mutex);
  return cache.emplace(name, std::move(resolved)).first->second;
}

ProcessResult run_process(const std::vector<std::string>& argv,
                          std::int64_t timeout_ms) {
  ProcessResult result;
  const SpawnedChild child = spawn_child(argv);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);

  bool out_eof = false;
  int status = 0;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      // The paper stops hung tests with a signal; escalate to SIGKILL so the
      // harness never blocks. The whole process group dies, grandchildren
      // included.
      result.timed_out = true;
      kill_child_tree(child.pid, SIGINT);
      usleep(50'000);
      kill_child_tree(child.pid, SIGKILL);
      waitpid(child.pid, &status, 0);
      break;
    }
    const int tick = static_cast<int>(std::min<std::int64_t>(left, 200));
    if (!out_eof) {
      pollfd pfd{child.out_fd, POLLIN, 0};
      // Bounded wait so early exits that leave the pipe open (grandchildren
      // inherited the write end) are still reaped promptly.
      const int rc = poll(&pfd, 1, tick);
      if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
        out_eof = drain_pipe(child.out_fd, result.output);
      }
    } else {
      // Pipe closed but the child lives on (it closed stdout explicitly, or
      // only grandchildren held it): keep enforcing the deadline — never
      // fall into an unbounded wait.
      poll(nullptr, 0, std::min(tick, 50));
    }
    // Reap exits whether or not the pipe is still open.
    const pid_t done = waitpid(child.pid, &status, WNOHANG);
    if (done == child.pid) {
      drain_pipe(child.out_fd, result.output);  // whatever remains buffered
      break;
    }
  }
  close(child.out_fd);
  if (child.pidfd >= 0) close(child.pidfd);

  decode_wait_status(status, result);
  return result;
}

namespace {

/// Every live child holds its stdout pipe read end plus (where the kernel
/// provides one) a pidfd, and spawning transiently holds the pipe write end.
constexpr std::size_t kFdsPerChild = 3;
/// Headroom for everything else the process keeps open (store record files,
/// emitted sources, wake pipes, stdio).
constexpr std::size_t kReservedFds = 64;

/// Process-wide ledger of fds reserved by live pools, so SEVERAL pools in
/// one process (a multi-backend campaign runs one subprocess pool per
/// toolchain, a reduction adds another) cannot jointly exhaust the table
/// that each clamp individually respected. Guarded by a mutex: pools are
/// constructed rarely.
std::mutex g_fd_budget_mutex;
std::size_t g_reserved_child_fds = 0;

/// Caps the in-flight child count so the pools of this process can never
/// exhaust its fd table: grants at most what RLIMIT_NOFILE minus the
/// headroom minus other pools' reservations leaves, records the grant in
/// the ledger, and logs when the cap bites. Without the clamp an oversized
/// executor.max_inflight makes pipe()/fork() fail mid-batch, fabricating
/// harness-failure results that taint whole shards.
std::size_t reserve_fd_budget(std::size_t requested) {
  struct rlimit limit {};
  const bool limited = ::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
                       limit.rlim_cur != RLIM_INFINITY;
  const std::lock_guard<std::mutex> lock(g_fd_budget_mutex);
  std::size_t granted = requested;
  if (limited) {
    const auto open_max = static_cast<std::size_t>(limit.rlim_cur);
    const std::size_t total = open_max > kReservedFds ? open_max - kReservedFds
                                                      : kFdsPerChild;
    const std::size_t available =
        total > g_reserved_child_fds ? total - g_reserved_child_fds
                                     : kFdsPerChild;
    // Every pool can keep at least one child in flight — a pool that could
    // spawn nothing would deadlock its callers, and one child's fds fit any
    // realistic limit.
    const std::size_t cap = std::max<std::size_t>(1, available / kFdsPerChild);
    if (requested > cap) {
      std::fprintf(stderr,
                   "ompfuzz: clamping max_inflight %zu -> %zu "
                   "(RLIMIT_NOFILE = %zu, %zu fds per in-flight child, "
                   "%zu fds reserved by other pools)\n",
                   requested, cap, open_max, kFdsPerChild,
                   g_reserved_child_fds);
      granted = cap;
    }
  }
  g_reserved_child_fds += granted * kFdsPerChild;
  return granted;
}

void release_fd_budget(std::size_t granted) {
  const std::lock_guard<std::mutex> lock(g_fd_budget_mutex);
  g_reserved_child_fds -= std::min(g_reserved_child_fds, granted * kFdsPerChild);
}

}  // namespace

AsyncProcessPool::AsyncProcessPool(std::size_t max_inflight)
    : max_inflight_(max_inflight) {
  if (max_inflight_ == 0) {
    // Children spend most of their life blocked in-kernel, so 2x the cores
    // keeps the machine busy without drowning it.
    max_inflight_ = 2 * hardware_thread_count();
  }
  max_inflight_ = std::max<std::size_t>(1, reserve_fd_budget(max_inflight_));
  if (pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    release_fd_budget(max_inflight_);
    throw Error("pipe2() failed for pool wake pipe");
  }
  loop_thread_ = std::thread([this] { event_loop(); });
}

AsyncProcessPool::~AsyncProcessPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake();
  loop_thread_.join();
  close(wake_fds_[0]);
  close(wake_fds_[1]);
  release_fd_budget(max_inflight_);
}

void AsyncProcessPool::wake() {
  const char byte = 'w';
  // Non-blocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &byte, 1);
}

void AsyncProcessPool::submit(ProcessJob job, CompletionFn on_done) {
  OMPFUZZ_CHECK(!job.argv.empty(), "AsyncProcessPool job needs a command");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    OMPFUZZ_CHECK(!shutdown_, "submit() on a shut-down AsyncProcessPool");
    pending_.push_back({std::move(job), std::move(on_done)});
  }
  wake();
}

std::future<ProcessResult> AsyncProcessPool::submit(ProcessJob job) {
  auto promise = std::make_shared<std::promise<ProcessResult>>();
  auto future = promise->get_future();
  submit(std::move(job),
         [promise](ProcessResult r) { promise->set_value(std::move(r)); });
  return future;
}

void AsyncProcessPool::event_loop() {
  std::vector<Child> active;
  std::vector<PendingJob> aborted;  // completed outside the lock on shutdown

  while (true) {
    // ---- admit: move queued jobs into the inflight set -------------------
    std::vector<PendingJob> to_spawn;
    bool shutting_down = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutting_down = shutdown_;
      if (shutting_down) {
        aborted.assign(std::make_move_iterator(pending_.begin()),
                       std::make_move_iterator(pending_.end()));
        pending_.clear();
      } else {
        bool exclusive_active = std::any_of(
            active.begin(), active.end(),
            [](const Child& c) { return c.exclusive; });
        while (!exclusive_active && !pending_.empty() &&
               active.size() + to_spawn.size() < max_inflight_) {
          // An exclusive job waits at the queue head until the pool is
          // drained, then runs alone; admitting past it would starve it.
          if (pending_.front().job.exclusive) {
            if (active.empty() && to_spawn.empty()) {
              to_spawn.push_back(std::move(pending_.front()));
              pending_.pop_front();
              exclusive_active = true;
            }
            break;
          }
          to_spawn.push_back(std::move(pending_.front()));
          pending_.pop_front();
        }
      }
    }
    for (auto& pending : aborted) {
      ProcessResult r;
      r.signaled = true;
      r.term_signal = SIGKILL;
      if (pending.on_done) pending.on_done(std::move(r));
    }
    aborted.clear();

    if (shutting_down) {
      for (auto& child : active) {
        if (!child.exited) kill_child_tree(child.pid, SIGKILL);
      }
      for (auto& child : active) {
        if (!child.exited) {
          waitpid(child.pid, &child.wait_status, 0);
          child.exited = true;
        }
        if (child.out_fd >= 0) {
          drain_pipe(child.out_fd, child.result.output);
          close(child.out_fd);
        }
        if (child.pidfd >= 0) close(child.pidfd);
        decode_wait_status(child.wait_status, child.result);
        if (child.on_done) child.on_done(std::move(child.result));
      }
      return;
    }

    const auto now = Clock::now();
    for (auto& pending : to_spawn) {
      Child child;
      child.exclusive = pending.job.exclusive;
      child.deadline = now + std::chrono::milliseconds(pending.job.timeout_ms);
      child.on_done = std::move(pending.on_done);
      // Injected exec failures and deadline stalls complete the job with the
      // same exit-127/no-output shape a real unspawnable child produces —
      // executors classify that as a harness failure, never an observation.
      if (inject_fault(FaultSite::PoolExec) ||
          inject_fault(FaultSite::PoolStall)) {
        ProcessResult r;
        r.exit_code = 127;
        if (child.on_done) child.on_done(std::move(r));
        continue;
      }
      try {
        if (inject_fault(FaultSite::PoolPipe)) {
          throw Error("injected fault: pipe2() failed");
        }
        if (inject_fault(FaultSite::PoolFork)) {
          throw Error("injected fault: fork() failed");
        }
        const SpawnedChild spawned = spawn_child(pending.job.argv);
        child.pid = spawned.pid;
        child.out_fd = spawned.out_fd;
        child.pidfd = spawned.pidfd;
        // Only real forks count as children; injected and genuine spawn
        // failures never reach this line.
        static telemetry::Counter& children =
            telemetry::Registry::global().counter("exec.children");
        children.add();
        if (telemetry::Tracer::instance().active()) {
          child.span_start_ns = telemetry::Tracer::now_ns() + 1;
        }
      } catch (const Error&) {
        // fork/pipe exhaustion: fail this job, keep the loop alive.
        ProcessResult r;
        r.exit_code = 127;
        if (child.on_done) child.on_done(std::move(r));
        continue;
      }
      active.push_back(std::move(child));
    }

    // ---- wait: one poll set over the wake pipe and every child -----------
    std::vector<pollfd> fds;
    // (child index, true = pidfd) for each entry past the wake pipe.
    std::vector<std::pair<std::size_t, bool>> owners;
    fds.push_back({wake_fds_[0], POLLIN, 0});
    std::int64_t wait_ms = active.empty() ? 60'000 : 200;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Child& child = active[i];
      if (child.out_fd >= 0) {
        fds.push_back({child.out_fd, POLLIN, 0});
        owners.emplace_back(i, false);
      }
      if (!child.exited && child.pidfd >= 0) {
        fds.push_back({child.pidfd, POLLIN, 0});
        owners.emplace_back(i, true);
      }
      // Phase 2 children have no future deadline event — their expired
      // deadline must not drive the poll timeout to 0 (a SIGKILLed child
      // stuck in uninterruptible I/O would busy-spin the loop); the 200 ms
      // cap above covers reaping them.
      if (!child.exited && child.kill_phase < 2) {
        const auto next = child.kill_phase == 1 ? child.kill_deadline
                                                : child.deadline;
        wait_ms = std::min<std::int64_t>(
            wait_ms, std::chrono::duration_cast<std::chrono::milliseconds>(
                         next - Clock::now())
                         .count());
      }
    }
    wait_ms = std::max<std::int64_t>(wait_ms, 0);
    if (inject_fault(FaultSite::PoolPoll)) {
      // Injected poll hiccup (EINTR/EAGAIN shape): skip the multiplexed wait
      // for one iteration. The service pass below still drains pipes and
      // reaps exits, so the loop tolerates a flaky poll without losing
      // children — a brief nap keeps a 100% fault rate from busy-spinning.
      poll(nullptr, 0, 1);
      for (auto& fd : fds) fd.revents = 0;
    } else {
      poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
    }

    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }

    // ---- service: pipe IO, reaping, deadlines ----------------------------
    for (std::size_t k = 1; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const auto [idx, is_pidfd] = owners[k - 1];
      if (is_pidfd) continue;  // exit noticed by the waitpid sweep below
      Child& child = active[idx];
      if (child.out_fd >= 0 &&
          drain_pipe(child.out_fd, child.result.output)) {
        close(child.out_fd);
        child.out_fd = -1;
      }
    }

    const auto tick = Clock::now();
    for (auto& child : active) {
      if (child.exited) continue;
      // Peek with waitid(WNOWAIT) first: a timed-out child may have died of
      // the SIGINT before the SIGKILL escalation fired, leaving
      // grandchildren (shell background jobs ignore SIGINT) — they still
      // need the group sweep, and the group id is only safe to signal while
      // its leader is unreaped (afterwards the kernel may recycle the pid).
      siginfo_t info;
      info.si_pid = 0;
      const bool done = waitid(P_PID, static_cast<id_t>(child.pid), &info,
                               WEXITED | WNOHANG | WNOWAIT) == 0 &&
                        info.si_pid == child.pid;
      if (done) {
        if (child.kill_phase >= 1) kill_child_tree(child.pid, SIGKILL);
        // The state is terminal, so this reap cannot block.
        waitpid(child.pid, &child.wait_status, 0);
        child.exited = true;
        if (child.out_fd >= 0) {
          // Capture what the child wrote before exiting; a grandchild that
          // inherited the write end does not extend the capture window.
          drain_pipe(child.out_fd, child.result.output);
          close(child.out_fd);
          child.out_fd = -1;
        }
        continue;
      }
      if (child.kill_phase == 0 && tick >= child.deadline) {
        child.result.timed_out = true;
        kill_child_tree(child.pid, SIGINT);
        child.kill_phase = 1;
        child.kill_deadline = tick + std::chrono::milliseconds(50);
      } else if (child.kill_phase == 1 && tick >= child.kill_deadline) {
        kill_child_tree(child.pid, SIGKILL);
        child.kill_phase = 2;
      }
    }

    // ---- complete --------------------------------------------------------
    for (std::size_t i = 0; i < active.size();) {
      Child& child = active[i];
      if (!child.exited || child.out_fd >= 0) {
        ++i;
        continue;
      }
      if (child.pidfd >= 0) close(child.pidfd);
      decode_wait_status(child.wait_status, child.result);
      if (child.span_start_ns != 0) {
        std::string args = "\"pid\":" + std::to_string(child.pid) +
                           ",\"exit_code\":" +
                           std::to_string(child.result.exit_code);
        if (child.result.timed_out) args += ",\"timed_out\":true";
        telemetry::Tracer::instance().complete("process", "child",
                                               child.span_start_ns - 1,
                                               telemetry::Tracer::now_ns(),
                                               args);
      }
      CompletionFn on_done = std::move(child.on_done);
      ProcessResult result = std::move(child.result);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      if (on_done) on_done(std::move(result));
    }
  }
}

}  // namespace ompfuzz::harness
