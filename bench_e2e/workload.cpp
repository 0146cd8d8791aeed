#include "workload.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "harness/subprocess_executor.hpp"

namespace bench_e2e {

using namespace ompfuzz;

namespace {

// Campaign sizes. Each is large enough that one repetition averages over the
// seed's program mix and small enough that several repetitions fit one run.
constexpr int kSimPrograms = 800;
constexpr int kGxxPrograms = 24;
constexpr int kStorePrograms = 1000;

/// Interpreter step budget of sim-interp. A paper-config program mix is
/// heavy-tailed (at the 4M default, ten programs in a hundred carry three
/// quarters of the interpreter time), so one seed's triples/s would hinge on
/// a few programs; capping each run at 250K steps (~17 ms) bounds that,
/// while every run still interprets up to the cap.
constexpr std::uint64_t kSimStepBudget = 250'000;

/// Seed of the set-up warm-up campaign. Fixed, so set-up does the same work
/// for every --seed and setup_s tracks set-up cost, not the program mix.
constexpr std::uint64_t kWarmupSeed = 0x5E7;

/// The paper's evaluation shape (Section V-A) at this machine's scale: one
/// process, nproc (4) campaign workers, 2 inputs per program.
CampaignConfig base_config(std::uint64_t seed, int programs) {
  CampaignConfig config;
  config.seed = seed;
  config.num_programs = programs;
  config.inputs_per_program = 2;
  config.threads = 4;
  config.generator.num_threads = 32;
  config.generator.max_loop_trip_count = 100;
  return config;
}

/// FNV-1a over raw bytes: the benchmark's own digest, independent of the
/// hashes the library uses internally.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  void text(const std::string& s) {
    value(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::unique_ptr<harness::Executor> make_executor(const Workload& w,
                                                 const std::string& work_dir) {
  if (w.backend == Backend::Sim) return std::make_unique<harness::SimExecutor>(w.sim);
  ExecutorConfig config = w.executor;
  config.work_dir = work_dir;
  return std::make_unique<harness::SubprocessExecutor>(
      w.compilers, harness::to_subprocess_options(config));
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  if (name == "sim-interp") {
    w.config = base_config(seed, smoke ? 4 : kSimPrograms);
    w.sim.max_interp_steps = kSimStepBudget;
    w.warmup_programs = smoke ? 1 : 8;
  } else if (name == "gxx-compile") {
    w.backend = Backend::Gxx;
    w.config = base_config(seed, smoke ? 1 : kGxxPrograms);
    w.compilers = {{"gxx-O0", "g++ -fopenmp -O0 {src} -o {bin}", ""},
                   {"gxx-O2", "g++ -fopenmp -O2 {src} -o {bin}", ""},
                   {"gxx-O3", "g++ -fopenmp -O3 {src} -o {bin}", ""}};
    w.config.generator.max_loop_trip_count = 10;
    w.executor.max_inflight = 4;
    w.executor.concurrent_runs = false;  // quiet timing: test runs run alone
    w.warmup_programs = 1;
  } else if (name == "store-rerun") {
    w.store_rerun = true;
    w.config = base_config(seed, smoke ? 8 : kStorePrograms);
    w.config.generator.max_loop_trip_count = 10;
    w.config.generator.enable_features("atomic,single,master,schedule,rangeidx");
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.config.validate();
  return w;
}

StoreConfig store_at(const std::string& dir) {
  StoreConfig config;
  config.enabled = true;
  config.dir = dir;
  return config;
}

TempDir::TempDir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  std::filesystem::create_directories(parent);
  path_ = parent + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directory(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

Prepared set_up(const Workload& w, const std::string& work_root) {
  Prepared out;
  const TempDir work(work_root, "setup");
  const auto executor = make_executor(w, work.path());
  if (!w.store_rerun) {
    CampaignConfig warmup = w.config;
    warmup.seed = kWarmupSeed;
    warmup.num_programs = w.warmup_programs;
    (void)run_campaign(warmup, *executor, nullptr);
    return out;
  }
  out.store_dir = std::make_unique<TempDir>(work_root, "store");
  ResultStore store(store_at(out.store_dir->path()));
  const CampaignRun fill = run_campaign(w.config, *executor, &store);
  out.fill_digests = triple_digests(fill.result, w.backend);
  out.fill_failed = failed_triples(fill.result, out.fill_digests, {}) +
                    store.stats().write_failures;
  return out;
}

Repetition::Repetition(const Workload& w, const Prepared& prepared,
                       const std::string& work_root)
    : work(work_root, "rep"), executor(make_executor(w, work.path())) {
  if (w.store_rerun) {
    store = std::make_unique<ResultStore>(store_at(prepared.store_dir->path()));
  }
}

CampaignRun run_campaign(const CampaignConfig& config, harness::Executor& executor,
                         ResultStore* store, const harness::ProgressFn& progress) {
  harness::Campaign campaign(config, executor);
  if (store != nullptr) campaign.set_result_store(store);
  CampaignRun out;
  const double cpu0 = cpu_s();
  out.start = wall_s();
  out.result = campaign.run(progress);
  out.wall = wall_s() - out.start;
  out.cpu = cpu_s() - cpu0;
  out.scheduler = campaign.scheduler_stats();
  return out;
}

std::vector<std::uint64_t> triple_digests(const harness::CampaignResult& result,
                                          Backend backend) {
  std::vector<std::uint64_t> out;
  for (const auto& outcome : result.outcomes) {
    const core::VerdictClass cls =
        core::classify_runs(outcome.runs, outcome.divergence);
    for (std::size_t k = 0; k < outcome.runs.size(); ++k) {
      const core::RunResult& run = outcome.runs[k];
      Fnv h;
      h.text(outcome.program_name);
      h.text(outcome.input_text);
      h.text(run.impl);
      h.value(static_cast<int>(run.status));
      if (backend == Backend::Sim) {
        h.value(run.output);
        h.value(static_cast<int>(cls.per_run[k]));
        h.value(run.time_us);
        h.value(static_cast<int>(outcome.verdict.per_run[k]));
      }
      out.push_back(h.digest());
    }
  }
  return out;
}

std::uint64_t failed_triples(const harness::CampaignResult& result,
                             const std::vector<std::uint64_t>& digests,
                             const std::vector<std::uint64_t>& reference) {
  std::uint64_t failed = 0;
  std::size_t k = 0;
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) {
      const bool mismatch = !reference.empty() &&
                            (k >= reference.size() || digests[k] != reference[k]);
      if (run.harness_failure || mismatch) ++failed;
      ++k;
    }
  }
  return failed;
}

std::uint64_t combine(const std::vector<std::uint64_t>& digests) {
  Fnv h;
  for (const std::uint64_t d : digests) h.value(d);
  return h.digest();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace bench_e2e
