// Fault-tolerance tests: deterministic fault injection across every site,
// retry/backoff absorbing transient faults with byte-identical reports,
// exhausted retries quarantining deterministically, backend death degrading
// to quarantined losses, store write/read degradation, and the short-batch
// downgrade (one bad backend must not abort a campaign).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "emit/codegen.hpp"
#include "harness/async_process.hpp"
#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "runtime/impl_profile.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/result_store.hpp"
#include "test_util.hpp"

namespace ompfuzz {
namespace {

using harness::Campaign;
using harness::CampaignResult;
using harness::Executor;
using harness::SimExecutor;
using harness::SimExecutorOptions;
using harness::TestCase;

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

FaultConfig faults_at(const char* sites, double rate, std::uint64_t seed = 0xFA17) {
  FaultConfig config;
  config.enabled = true;
  config.rate = rate;
  config.seed = seed;
  config.sites = sites;
  return config;
}

CampaignConfig sim_config(int threads = 1) {
  CampaignConfig cfg;
  cfg.generator.max_loop_trip_count = 40;  // keep interpretation fast
  cfg.num_programs = 8;
  cfg.inputs_per_program = 2;
  cfg.seed = 0xFA175;
  cfg.threads = threads;
  cfg.retry.base_ms = 0;  // no real sleeping in tests
  return cfg;
}

CampaignResult run_sim(const CampaignConfig& cfg) {
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor exec(opt);
  Campaign campaign(cfg, exec);
  return campaign.run();
}

// ------------------------------------------------------------- config ------

TEST(FaultConfigTest, ParsesFaultsAndRetrySections) {
  const ConfigFile file = ConfigFile::parse(R"(
[faults]
enabled = true
rate = 0.25
seed = 99
sites = dispatch, store_write

[retry]
max_attempts = 5
base_ms = 1
cap_ms = 64
backend_death_threshold = 2
)");
  const FaultConfig faults = FaultConfig::from_config(file);
  EXPECT_TRUE(faults.enabled);
  EXPECT_DOUBLE_EQ(faults.rate, 0.25);
  EXPECT_EQ(faults.seed, 99u);
  EXPECT_EQ(faults.sites, "dispatch, store_write");
  faults.validate();

  const RetryConfig retry = RetryConfig::from_config(file);
  EXPECT_EQ(retry.max_attempts, 5);
  EXPECT_EQ(retry.base_ms, 1);
  EXPECT_EQ(retry.cap_ms, 64);
  EXPECT_EQ(retry.backend_death_threshold, 2);
  retry.validate();
}

TEST(FaultConfigTest, ValidationRejectsBadValues) {
  FaultConfig faults;
  faults.rate = 1.5;
  EXPECT_THROW(faults.validate(), ConfigError);
  faults.rate = 0.5;
  faults.sites = "dispatch, not_a_site";
  EXPECT_THROW(faults.validate(), ConfigError);

  RetryConfig retry;
  retry.max_attempts = 0;
  EXPECT_THROW(retry.validate(), ConfigError);
  retry = RetryConfig{};
  retry.backend_death_threshold = 0;
  EXPECT_THROW(retry.validate(), ConfigError);
}

// ----------------------------------------------------------- injector ------

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  auto stream = [](std::uint64_t seed) {
    const ScopedFaultInjection scoped(faults_at("dispatch", 0.5, seed));
    std::vector<bool> decisions;
    for (int i = 0; i < 128; ++i) {
      decisions.push_back(inject_fault(FaultSite::Dispatch));
    }
    return decisions;
  };
  const auto a = stream(1);
  EXPECT_EQ(a, stream(1));   // same seed, same ordinal -> same decision
  EXPECT_NE(a, stream(2));   // 2^-128 flake odds
}

TEST(FaultInjectorTest, SiteMaskGatesInjection) {
  const ScopedFaultInjection scoped(faults_at("store_write", 1.0));
  EXPECT_FALSE(inject_fault(FaultSite::Dispatch));
  EXPECT_TRUE(inject_fault(FaultSite::StoreWrite));
  const auto& injector = FaultInjector::instance();
  EXPECT_EQ(injector.site_stats(FaultSite::Dispatch).injected, 0u);
  EXPECT_EQ(injector.site_stats(FaultSite::StoreWrite).injected, 1u);
  EXPECT_EQ(injector.total_injected(), 1u);
}

TEST(FaultInjectorTest, DisabledInjectionIsFree) {
  FaultInjector::instance().disable();
  EXPECT_FALSE(inject_fault(FaultSite::Dispatch));
  EXPECT_EQ(FaultInjector::instance().site_stats(FaultSite::Dispatch).checked, 0u);
}

// ------------------------------------------- transient -> byte-identical ---

TEST(FaultTolerance, TransientDispatchFaultsLeaveReportByteIdentical) {
  const std::string baseline = harness::to_json(run_sim(sim_config()));
  ASSERT_NE(baseline.find("\"robustness\""), std::string::npos);

  CampaignConfig cfg = sim_config();
  cfg.retry.max_attempts = 8;
  const ScopedFaultInjection scoped(faults_at("dispatch", 0.3));
  const CampaignResult faulted = run_sim(cfg);
  EXPECT_EQ(harness::to_json(faulted), baseline);
  EXPECT_TRUE(faulted.robustness.quarantined.empty());
  EXPECT_TRUE(faulted.robustness.lost_backends.empty());
  EXPECT_GE(FaultInjector::instance().site_stats(FaultSite::Dispatch).injected, 1u);
}

TEST(FaultTolerance, ThreadedTransientFaultsLeaveReportByteIdentical) {
  const std::string baseline = harness::to_json(run_sim(sim_config(4)));

  // 16 attempts at rate 0.2: per-triple exhaustion odds ~0.2^16, negligible.
  CampaignConfig cfg = sim_config(4);
  cfg.retry.max_attempts = 16;
  const ScopedFaultInjection scoped(faults_at("dispatch", 0.2));
  EXPECT_EQ(harness::to_json(run_sim(cfg)), baseline);
}

TEST(FaultTolerance, RetryCountersReportOnSideChannelOnly) {
  CampaignConfig cfg = sim_config();
  cfg.retry.max_attempts = 8;
  const ScopedFaultInjection scoped(faults_at("dispatch", 0.3));
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor exec(opt);
  Campaign campaign(cfg, exec);
  const CampaignResult result = campaign.run();
  const auto metrics = campaign.run_metrics();
  EXPECT_GE(metrics.counter("campaign.retried_triples"), 1u);
  EXPECT_GE(metrics.counter("campaign.retry_rounds"), 1u);
  // The counters render to the stdout summary, never into the JSON.
  const std::string summary =
      harness::render_robustness_summary(result, metrics);
  EXPECT_NE(summary.find("triples retried"), std::string::npos);
  EXPECT_NE(summary.find("dispatch:"), std::string::npos);
  EXPECT_EQ(harness::to_json(result).find("retried"), std::string::npos);
}

// -------------------------------------------- exhausted -> quarantined -----

TEST(FaultTolerance, ExhaustedRetriesQuarantineDeterministically) {
  // Rate 1.0 on dispatch: every batch fabricates, retries never help. A huge
  // death threshold keeps the backend alive so this isolates the quarantine
  // path from backend death.
  CampaignConfig cfg = sim_config();
  cfg.num_programs = 3;
  cfg.retry.max_attempts = 2;
  cfg.retry.backend_death_threshold = 1'000'000;

  auto run_quarantined = [&] {
    const ScopedFaultInjection scoped(faults_at("dispatch", 1.0));
    return run_sim(cfg);
  };
  const CampaignResult a = run_quarantined();
  EXPECT_TRUE(a.robustness.lost_backends.empty());
  // Every (program, input, impl) triple is quarantined, in merge order.
  ASSERT_EQ(a.robustness.quarantined.size(),
            static_cast<std::size_t>(a.total_runs));
  EXPECT_EQ(a.robustness.quarantined.front().program_index, 0);
  EXPECT_EQ(a.robustness.quarantined.front().input_index, 0);
  EXPECT_EQ(a.robustness.quarantined.front().impl, a.impl_names.front());
  for (const auto& outcome : a.outcomes) {
    for (const auto& run : outcome.runs) {
      EXPECT_TRUE(run.harness_failure);
      EXPECT_EQ(run.status, core::RunStatus::Crash);
    }
  }
  // Deterministic: the same seed yields the identical report, quarantine
  // records included.
  EXPECT_EQ(harness::to_json(run_quarantined()), harness::to_json(a));
}

// ---------------------------------------------------------- backend death ---

/// Delegates to an inner SimExecutor but fails every run_batch from the
/// `fail_from`-th call on — a backend that dies mid-campaign and stays dead.
class DyingExecutor final : public Executor {
 public:
  DyingExecutor(SimExecutor& inner, int fail_from)
      : inner_(inner), fail_from_(fail_from) {}

  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override {
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    if (calls_++ >= fail_from_) throw Error("backend killed mid-campaign");
    return inner_.run_batch(test, input_indices, impls);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(const std::string& name) const override {
    return inner_.impl_identity(name);
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  SimExecutor& inner_;
  int fail_from_;
  std::atomic<int> calls_{0};
};

TEST(Failover, DeadBackendWithoutSpareDegradesGracefully) {
  CampaignConfig cfg = sim_config();
  cfg.num_programs = 6;
  cfg.retry.max_attempts = 2;
  cfg.retry.backend_death_threshold = 2;
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor inner(opt);
  DyingExecutor dying(inner, 2);  // unit 0 succeeds, everything after fails
  Campaign campaign(cfg, dying);
  const CampaignResult result = campaign.run();

  // The campaign completes with full dimensions; the dead backend's share is
  // fabricated, quarantined, and reported as a lost backend.
  EXPECT_EQ(result.total_tests, cfg.num_programs * cfg.inputs_per_program);
  ASSERT_EQ(result.robustness.lost_backends,
            std::vector<std::string>{"default"});
  EXPECT_FALSE(result.robustness.quarantined.empty());
  EXPECT_GE(campaign.run_metrics().counter("campaign.fabricated_units"), 1u);
  // Program 0 ran before the death: its runs are genuine.
  for (const auto& run : result.outcomes.front().runs) {
    EXPECT_FALSE(run.harness_failure);
  }
  // Fabricated units still account for their program's drafts: the
  // static_analysis block equals a healthy run's.
  SimExecutor healthy_exec(opt);
  const CampaignResult healthy = Campaign(cfg, healthy_exec).run();
  EXPECT_TRUE(result.analysis == healthy.analysis);
  EXPECT_EQ(result.regenerated_programs, healthy.regenerated_programs);
}

// The dead backend is the last one, so most programs are completed — and
// classified — by a fabricated unit. The divergent triples the healthy
// backends still find must carry the program, source and input the campaign
// generates for that index.
TEST(Failover, DivergentTriplesSurviveAFabricatedLastUnit) {
  CampaignConfig cfg = sim_config();
  cfg.num_programs = 6;
  cfg.seed = 51966;
  cfg.generator.max_loop_trip_count = 100;
  cfg.retry.max_attempts = 2;
  cfg.retry.backend_death_threshold = 2;
  SimExecutorOptions opt;
  opt.num_threads = 8;
  for (const int threads : {1, 4}) {
    cfg.threads = threads;
    SimExecutor healthy(std::vector<rt::OmpImplProfile>{rt::gcc_profile(),
                                                        rt::clang_profile()},
                        opt);
    SimExecutor intel(std::vector<rt::OmpImplProfile>{rt::intel_profile()}, opt);
    DyingExecutor dead(intel, 0);
    Campaign campaign(cfg, {{&healthy, "healthy"}, {&dead, "dead"}});
    const CampaignResult result = campaign.run();

    ASSERT_EQ(result.robustness.lost_backends, std::vector<std::string>{"dead"});
    EXPECT_GE(campaign.run_metrics().counter("campaign.fabricated_units"), 1u);
    ASSERT_FALSE(result.divergent.empty()) << "threads=" << threads;
    for (const auto& triple : result.divergent) {
      const TestCase test = campaign.make_test_case(triple.program_index);
      const auto input = static_cast<std::size_t>(triple.input_index);
      EXPECT_EQ(triple.program.fingerprint(), test.program.fingerprint());
      EXPECT_EQ(triple.source, emit::emit_translation_unit(test.program));
      EXPECT_EQ(triple.input_text, test.inputs[input].to_string());
      EXPECT_EQ(triple.program_name, test.program.name());
    }
  }
}

// ------------------------------------------------------ short batches ------

/// Always returns one result fewer than requested — the misbehaving-backend
/// shape that used to abort the whole campaign via OMPFUZZ_CHECK.
class ShortBatchExecutor final : public Executor {
 public:
  [[nodiscard]] core::RunResult run(const TestCase&, std::size_t,
                                    const std::string& impl) override {
    core::RunResult r;
    r.impl = impl;
    return r;
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    auto results = Executor::run_batch(test, input_indices, impls);
    results.pop_back();
    return results;
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return {"short1", "short2"};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }
};

TEST(ShortBatch, DowngradedToQuarantineInsteadOfAbort) {
  CampaignConfig cfg = sim_config();
  cfg.num_programs = 3;
  cfg.retry.max_attempts = 2;
  ShortBatchExecutor exec;
  Campaign campaign(cfg, exec);
  CampaignResult result;
  ASSERT_NO_THROW(result = campaign.run());
  EXPECT_EQ(result.robustness.quarantined.size(),
            static_cast<std::size_t>(result.total_runs));
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) EXPECT_TRUE(run.harness_failure);
  }
}

// ------------------------------------------------------ store degrade ------

StoreConfig store_config(const std::string& dir) {
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  return cfg;
}

TEST(StoreDegrade, WriteFailuresDisableStoreWithoutAborting) {
  const std::string baseline = harness::to_json(run_sim(sim_config()));

  const ScopedFaultInjection scoped(faults_at("store_write", 1.0));
  ResultStore store(store_config(temp_dir() + "/store"));
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor exec(opt);
  Campaign campaign(sim_config(), exec);
  campaign.set_result_store(&store);
  const CampaignResult result = campaign.run();

  EXPECT_EQ(harness::to_json(result), baseline);
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 0u);
  EXPECT_GE(stats.write_failures,
            static_cast<std::uint64_t>(ResultStore::kWriteFailureLimit));
  EXPECT_TRUE(store.writes_disabled());
}

TEST(StoreDegrade, FsyncFailuresAreWriteFailuresToo) {
  const ScopedFaultInjection scoped(faults_at("store_fsync", 1.0));
  ResultStore store(store_config(temp_dir() + "/store"));
  core::RunResult result;
  result.impl = "gcc";
  store.put(RunKey{0x1234, "0x1p+0", "sim;gcc"}, result);
  EXPECT_EQ(store.stats().puts, 0u);
  EXPECT_EQ(store.stats().write_failures, 1u);
  // The put never reached disk, so there is nothing to hit.
  EXPECT_FALSE(store.lookup(RunKey{0x1234, "0x1p+0", "sim;gcc"}).has_value());
}

TEST(StoreDegrade, ReadFaultsAreMissesAndCampaignRecovers) {
  const std::string dir = temp_dir() + "/store";
  const std::string baseline = harness::to_json(run_sim(sim_config()));

  {
    // Populate the store cleanly.
    ResultStore store(store_config(dir));
    SimExecutorOptions opt;
    opt.num_threads = 8;
    SimExecutor exec(opt);
    Campaign campaign(sim_config(), exec);
    campaign.set_result_store(&store);
    EXPECT_EQ(harness::to_json(campaign.run()), baseline);
    EXPECT_GE(store.stats().puts, 1u);
  }

  for (const char* site : {"store_read_short", "store_read_corrupt"}) {
    // A store reading damaged records must treat them as misses and the
    // campaign must re-execute to the identical report.
    const ScopedFaultInjection scoped(faults_at(site, 1.0));
    ResultStore store(store_config(dir));
    SimExecutorOptions opt;
    opt.num_threads = 8;
    SimExecutor exec(opt);
    Campaign campaign(sim_config(), exec);
    campaign.set_result_store(&store);
    EXPECT_EQ(harness::to_json(campaign.run()), baseline) << site;
    EXPECT_EQ(store.stats().hits, 0u) << site;
    EXPECT_GE(store.stats().misses, 1u) << site;
  }
}

// ------------------------------------------------- compile-stage faults ----

TEST(FaultTolerance, TransientCompileFaultsRecoverByteIdentically) {
  const std::string dir = temp_dir();
  const std::string payload = dir + "/payload.sh";
  write_script(payload, "#!/bin/sh\necho 42\necho \"time_us: 2000\"\n");
  const std::string cc = dir + "/cc.sh";
  write_script(cc, "#!/bin/sh\ncp " + payload + " \"$2\"\nchmod +x \"$2\"\n");
  const std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  CampaignConfig cfg = sim_config();
  cfg.num_programs = 3;
  cfg.min_time_us = 0;

  auto run_subprocess = [&](const std::string& work_dir) {
    harness::SubprocessOptions opt;
    opt.work_dir = work_dir;
    opt.concurrent_runs = true;
    opt.max_inflight = 8;
    harness::SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    return campaign.run();
  };

  const std::string baseline = harness::to_json(run_subprocess(dir + "/clean"));

  cfg.retry.max_attempts = 10;
  for (const char* site : {"compile_spawn", "compile_timeout"}) {
    const ScopedFaultInjection scoped(faults_at(site, 0.4));
    const CampaignResult faulted =
        run_subprocess(dir + "/faulted_" + std::string(site));
    EXPECT_EQ(harness::to_json(faulted), baseline) << site;
    EXPECT_TRUE(faulted.robustness.quarantined.empty()) << site;
    EXPECT_GE(FaultInjector::instance()
                  .site_stats(*fault_site_by_name(site))
                  .injected,
              1u)
        << site;
  }
}

// ------------------------------------------------------- site coverage -----

TEST(FaultSiteCoverage, EverySiteCanFire) {
  // Exercise each site through its real component and require >= 1 injection.
  const auto fired = [](FaultSite site) {
    return FaultInjector::instance().site_stats(site).injected >= 1u;
  };

  {
    const ScopedFaultInjection scoped(faults_at("dispatch", 1.0));
    CampaignConfig cfg = sim_config();
    cfg.num_programs = 1;
    cfg.retry.max_attempts = 1;
    (void)run_sim(cfg);
    EXPECT_TRUE(fired(FaultSite::Dispatch));
  }
  for (const char* site : {"pool_pipe", "pool_fork", "pool_exec", "pool_stall"}) {
    const ScopedFaultInjection scoped(faults_at(site, 1.0));
    harness::AsyncProcessPool pool(2);
    const auto r = pool.submit({{"/bin/echo", "x"}, 5'000, false}).get();
    EXPECT_EQ(r.exit_code, 127) << site;
    EXPECT_TRUE(fired(*fault_site_by_name(site))) << site;
  }
  {
    const ScopedFaultInjection scoped(faults_at("pool_poll", 0.5));
    harness::AsyncProcessPool pool(2);
    (void)pool.submit({{"/bin/echo", "x"}, 5'000, false}).get();
    EXPECT_TRUE(fired(FaultSite::PoolPoll));
  }
  {
    const std::string dir = temp_dir();
    write_script(dir + "/cc.sh", "#!/bin/sh\nprintf '#!/bin/sh\\necho 1\\n' > \"$2\"\n"
                                 "chmod +x \"$2\"\n");
    const std::vector<ImplementationSpec> impls = {
        {"only", dir + "/cc.sh {src} {bin}", ""}};
    CampaignConfig cfg = sim_config();
    cfg.num_programs = 1;
    cfg.retry.max_attempts = 1;
    cfg.min_time_us = 0;
    for (const char* site : {"compile_spawn", "compile_timeout"}) {
      const ScopedFaultInjection scoped(faults_at(site, 1.0));
      harness::SubprocessOptions opt;
      opt.work_dir = dir + "/" + site;
      harness::SubprocessExecutor exec(impls, opt);
      Campaign campaign(cfg, exec);
      (void)campaign.run();
      EXPECT_TRUE(fired(*fault_site_by_name(site))) << site;
    }
  }
  {
    const std::string dir = temp_dir() + "/store";
    core::RunResult result;
    result.impl = "gcc";
    const RunKey key{0x77, "0x1p+0", "sim;gcc"};
    for (const char* site : {"store_write", "store_fsync"}) {
      const ScopedFaultInjection scoped(faults_at(site, 1.0));
      ResultStore store(store_config(dir));
      store.put(key, result);
      EXPECT_TRUE(fired(*fault_site_by_name(site))) << site;
    }
    {
      ResultStore store(store_config(dir));
      store.put(key, result);  // durable record for the read faults below
    }
    for (const char* site : {"store_read_short", "store_read_corrupt"}) {
      const ScopedFaultInjection scoped(faults_at(site, 1.0));
      ResultStore store(store_config(dir));
      EXPECT_FALSE(store.lookup(key).has_value()) << site;
      EXPECT_TRUE(fired(*fault_site_by_name(site))) << site;
    }
  }
}

}  // namespace
}  // namespace ompfuzz
