// Unit tests for the telemetry subsystem: metrics registry semantics, span
// tracer output, cross-thread snapshot determinism, and the disabled-path
// zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/campaign_metrics.hpp"
#include "harness/sim_executor.hpp"
#include "support/config.hpp"
#include "support/fault_injection.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz {
namespace {

using telemetry::MetricKind;
using telemetry::MetricsSnapshot;
using telemetry::Registry;
using telemetry::ScopedSpan;
using telemetry::Tracer;

// Global-new instrumentation for the zero-allocation test. Relaxed atomics:
// the test only reads the count from the allocating thread itself.
std::atomic<std::uint64_t> g_allocations{0};

std::string temp_trace_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ----------------------------------------------------------- Registry -----

TEST(TelemetryRegistry, CounterAddReturnsPreviousValue) {
  auto& c = Registry::global().counter("test.ordinal");
  c.reset();
  EXPECT_EQ(c.add(), 0u);  // the returned ordinal is load-bearing: the fault
  EXPECT_EQ(c.add(), 1u);  // injector keys its decision hash on it
  EXPECT_EQ(c.add(3), 2u);
  EXPECT_EQ(c.value(), 5u);
}

TEST(TelemetryRegistry, SameNameReturnsSameMetric) {
  auto& a = Registry::global().counter("test.same");
  auto& b = Registry::global().counter("test.same");
  EXPECT_EQ(&a, &b);
}

TEST(TelemetryRegistry, ReferencesStayStableAcrossRegistrations) {
  auto& first = Registry::global().counter("test.stable");
  first.reset();
  first.add(7);
  // Force registry growth; the earlier reference must keep working.
  for (int i = 0; i < 64; ++i) {
    Registry::global().counter("test.stable.filler" + std::to_string(i));
  }
  EXPECT_EQ(first.value(), 7u);
  EXPECT_EQ(&first, &Registry::global().counter("test.stable"));
}

TEST(TelemetryRegistry, GaugeSetAndAdd) {
  auto& g = Registry::global().gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-1);
  EXPECT_EQ(g.value(), -1);
}

TEST(TelemetryRegistry, HistogramBucketsByBitWidth) {
  auto& h = Registry::global().histogram("test.hist");
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(2);    // bucket 2
  h.record(3);    // bucket 2
  h.record(4);    // bucket 3
  h.record(255);  // bucket 8
  h.record(256);  // bucket 9
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(8), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(TelemetryRegistry, SnapshotSortedAndQueryable) {
  Registry::global().counter("test.snap.b").reset();
  Registry::global().counter("test.snap.a").add(0);
  const MetricsSnapshot snap = Registry::global().snapshot();
  const auto& samples = snap.samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  EXPECT_NE(snap.find("test.snap.a"), nullptr);
  EXPECT_EQ(snap.find("test.snap.nonexistent"), nullptr);
  EXPECT_EQ(snap.counter("test.snap.nonexistent"), 0u);
}

TEST(TelemetryRegistry, DeltaFromSubtractsCountersKeepsGauges) {
  auto& c = Registry::global().counter("test.delta.c");
  auto& g = Registry::global().gauge("test.delta.g");
  auto& h = Registry::global().histogram("test.delta.h");
  c.reset();
  c.add(5);
  g.set(100);
  h.record(8);
  const MetricsSnapshot base = Registry::global().snapshot();
  c.add(3);
  g.set(42);
  h.record(8);
  h.record(9);
  const MetricsSnapshot delta =
      Registry::global().snapshot().delta_from(base);
  EXPECT_EQ(delta.counter("test.delta.c"), 3u);
  EXPECT_EQ(delta.gauge("test.delta.g"), 42);  // gauges stay instantaneous
  const auto* hs = delta.find("test.delta.h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->counter, 2u);
  EXPECT_EQ(hs->sum, 17u);
  ASSERT_GT(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[4], 2u);  // 8 and 9 both have bit width 4
}

// Deterministic counters must reach identical totals regardless of worker
// interleaving — the registry cannot introduce nondeterminism of its own.
TEST(TelemetryRegistry, SnapshotDeltaDeterministicAcrossThreadCounts) {
  const auto run_with_threads = [](int threads) {
    auto& c = Registry::global().counter("test.det.work");
    auto& h = Registry::global().histogram("test.det.lat");
    const MetricsSnapshot base = Registry::global().snapshot();
    constexpr int kItems = 1000;
    std::atomic<int> next{0};
    const auto worker = [&] {
      for (int i = next.fetch_add(1); i < kItems; i = next.fetch_add(1)) {
        c.add(static_cast<std::uint64_t>(i % 7));
        h.record(static_cast<std::uint64_t>(i));
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    return Registry::global().snapshot().delta_from(base);
  };

  const MetricsSnapshot one = run_with_threads(1);
  const MetricsSnapshot four = run_with_threads(4);
  EXPECT_EQ(one.counter("test.det.work"), four.counter("test.det.work"));
  const auto* h1 = one.find("test.det.lat");
  const auto* h4 = four.find("test.det.lat");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h4, nullptr);
  EXPECT_EQ(h1->counter, h4->counter);
  EXPECT_EQ(h1->sum, h4->sum);
  EXPECT_EQ(h1->buckets, h4->buckets);
}

// The ISSUE-level determinism contract: for a seed-fixed campaign, every
// deterministic registry counter lands on the same per-run delta whether the
// campaign ran on one worker or four. Timing metrics (analysis_nanos, the
// unit_micros sum) are wall-clock and excluded; the unit_micros COUNT is one
// record per sub-shard unit and must match.
TEST(TelemetryRegistry, CampaignRunMetricsDeterministicAcrossThreadCounts) {
  const auto run_with_threads = [](int threads) {
    CampaignConfig cfg;
    cfg.generator.max_loop_trip_count = 40;  // keep interpretation fast
    cfg.num_programs = 8;
    cfg.inputs_per_program = 2;
    cfg.seed = 0xDEC0DE;
    cfg.threads = threads;
    harness::SimExecutor exec{harness::SimExecutorOptions{}};
    harness::Campaign campaign(cfg, exec);
    (void)campaign.run();
    return campaign.run_metrics();
  };

  const MetricsSnapshot one = run_with_threads(1);
  const MetricsSnapshot four = run_with_threads(4);
  for (const char* name :
       {"scheduler.units", "scheduler.batches", "scheduler.stolen_units",
        "campaign.retried_triples", "campaign.retry_rounds",
        "campaign.failover_units", "campaign.fabricated_units",
        "store.hits", "store.misses", "store.puts"}) {
    EXPECT_EQ(one.counter(name), four.counter(name)) << name;
  }
  EXPECT_EQ(one.gauge("campaign.units_total"), 8);
  EXPECT_EQ(one.gauge("campaign.units_done"), 8);
  EXPECT_EQ(four.gauge("campaign.units_total"), 8);
  EXPECT_EQ(four.gauge("campaign.units_done"), 8);
  const auto* h1 = one.find("campaign.unit_micros");
  const auto* h4 = four.find("campaign.unit_micros");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h4, nullptr);
  EXPECT_EQ(h1->counter, 8u);
  EXPECT_EQ(h4->counter, 8u);
}

TEST(TelemetryRegistry, MetricsJsonRendersEverySection) {
  Registry::global().counter("test.json.c").add(0);
  Registry::global().gauge("test.json.g").set(5);
  Registry::global().histogram("test.json.h").record(3);
  const std::string json =
      render_metrics_json(Registry::global().snapshot());
  EXPECT_NE(json.find("\"schema\":\"ompfuzz-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.g\":5"), std::string::npos);
}

// -------------------------------------------------------------- Tracer -----

TEST(TelemetryTracer, SpansAndInstantsProduceWellFormedTrace) {
  const std::string path = temp_trace_path("ompfuzz_test_trace.json");
  Tracer::instance().start(path);
  {
    ScopedSpan span("compile", "compile");
    ASSERT_TRUE(span.active());
    span.arg("fingerprint", telemetry::hex_fingerprint(0xabcdef));
    span.arg("backend", 2);
  }
  Tracer::instance().instant("steal", "steal");
  ASSERT_TRUE(Tracer::instance().stop());

  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"compile\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"steal\""), std::string::npos);
  EXPECT_NE(trace.find("\"fingerprint\":\"0000000000abcdef\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"backend\":2"), std::string::npos);
  std::remove(path.c_str());
}

// Tracing must stay well-formed when every fault site is firing: spans around
// injected failures still close, and the file still parses.
TEST(TelemetryTracer, TraceWellFormedUnderFullFaultInjection) {
  const std::string path = temp_trace_path("ompfuzz_test_trace_faults.json");
  FaultConfig config;
  config.enabled = true;
  config.rate = 1.0;
  config.seed = 7;
  Tracer::instance().start(path);
  {
    ScopedFaultInjection faults(config);
    for (int i = 0; i < 100; ++i) {
      ScopedSpan span("store", "store_put");
      if (inject_fault(FaultSite::StoreWrite)) {
        if (span.active()) span.arg("fault", "store_write");
      }
    }
  }
  ASSERT_TRUE(Tracer::instance().stop());
  const std::string trace = slurp(path);
  // Every span closed and carried the injected-fault arg.
  EXPECT_NE(trace.find("\"fault\":\"store_write\""), std::string::npos);
  std::size_t events = 0;
  for (std::size_t at = trace.find("\"ph\":\"X\""); at != std::string::npos;
       at = trace.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 100u);
  // Braces balance — cheap structural well-formedness check; the full JSON
  // schema check lives in tools/trace_summarize.py.
  std::int64_t depth = 0;
  for (char ch : trace) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

// A sim batch shows its shared work: one sim_interpret span per distinct
// FpSemantics naming the implementations that share it, and one sim_run
// span per priced (input, impl).
TEST(TelemetryTracer, SimBatchTracesSharedInterpretation) {
  CampaignConfig cfg;
  cfg.generator.max_loop_trip_count = 40;  // keep interpretation fast
  cfg.num_programs = 1;
  cfg.inputs_per_program = 1;
  harness::SimExecutor exec;
  const harness::TestCase test = harness::Campaign(cfg, exec).make_test_case(0);
  const std::string path = temp_trace_path("ompfuzz_test_trace_sim.json");
  Tracer::instance().start(path);
  (void)exec.run_batch(test, {0}, exec.implementations());
  ASSERT_TRUE(Tracer::instance().stop());

  const std::string trace = slurp(path);
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"sim_interpret\""), 2u);
  EXPECT_EQ(count("\"name\":\"sim_run\""), 3u);
  EXPECT_EQ(count("\"impls\":\"gcc\""), 1u);
  EXPECT_EQ(count("\"impls\":\"clang,intel\""), 1u);
  std::remove(path.c_str());
}

TEST(TelemetryTracer, StopWithoutStartIsNoop) {
  EXPECT_TRUE(Tracer::instance().stop());
}

// ----------------------------------------------------- disabled path -------

// The always-on promise: with tracing off, a hot-path increment plus a span
// construct/destruct performs zero heap allocations.
TEST(TelemetryDisabledPath, HotIncrementAndSpanAllocateNothing) {
  ASSERT_FALSE(Tracer::instance().active());
  auto& c = Registry::global().counter("test.noalloc");  // registration warm
  c.add();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c.add();
    ScopedSpan span("run-batch", "unit");
    if (span.active()) span.arg("never", "rendered");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace ompfuzz

void* operator new(std::size_t size) {
  ompfuzz::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC pairs these replaced deallocators against the implicit built-in new
// and warns about the free(); the pairing is in fact consistent with the
// malloc-backed replacement above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
