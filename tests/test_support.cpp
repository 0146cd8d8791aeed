// Unit tests for the support substrate: RNG, config, stats, tables, JSON.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "support/config.hpp"
#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace ompfuzz {
namespace {

// ---------------------------------------------------------------- RNG -----

TEST(Rng, SplitMix64KnownSequence) {
  // Reference values from the SplitMix64 reference implementation, seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSameSeed) {
  RandomEngine a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  RandomEngine a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  RandomEngine parent1(7), parent2(7);
  (void)parent2.next_u64();  // consuming the parent stream...
  RandomEngine child1 = parent1.fork(3);
  RandomEngine child2 = parent2.fork(3);
  // ...must not change what a forked child produces.
  EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, UniformIntBounds) {
  RandomEngine rng(11);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleton) {
  RandomEngine rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntCoversRange) {
  RandomEngine rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRealInUnitInterval) {
  RandomEngine rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRealMeanIsCentered) {
  RandomEngine rng(19);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform_real();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  RandomEngine rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  RandomEngine rng(29);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PickWeightedRespectsZeroWeights) {
  RandomEngine rng(31);
  const std::array<double, 3> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.pick_weighted(weights), 1u);
  }
}

TEST(Rng, PickWeightedOvershootFallsBackToLastPositiveBucket) {
  // Regression: with this weight vector, the cumulative subtraction in
  // pick_weighted overshoots past every positive bucket when the unit draw
  // is the largest value uniform_real() can produce ((2^53-1) * 2^-53).
  // The old fallback returned `weights.size() - 1` — the zero-weight
  // bucket; the fix must return the last positive-weight index instead.
  constexpr std::array<std::uint64_t, 10> bits = {
      0x3f7a1066f8e31700ULL, 0x3feca3df6e5718aeULL, 0x3fe09fb2cc0fe21cULL,
      0x3fe29b4c98ea5749ULL, 0x3fa7f0baaaef3dafULL, 0x3f3729a4a4189000ULL,
      0x3fd054995b889fe1ULL, 0x3fbf69ed6abed77eULL, 0x3ff25ea8d3b512d0ULL,
      0x0000000000000000ULL};
  std::array<double, 10> weights{};
  for (std::size_t i = 0; i < bits.size(); ++i) {
    weights[i] = std::bit_cast<double>(bits[i]);
  }
  const double unit = std::bit_cast<double>(0x3fefffffffffffffULL);
  ASSERT_LT(unit, 1.0);
  EXPECT_EQ(RandomEngine::pick_weighted_at(unit, weights), 8u);
}

TEST(Rng, PickWeightedAtNeverSelectsZeroWeightBucket) {
  const std::array<double, 5> weights = {0.0, 0.25, 0.0, 0.75, 0.0};
  RandomEngine rng(43);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t picked =
        RandomEngine::pick_weighted_at(rng.uniform_real(), weights);
    EXPECT_TRUE(picked == 1 || picked == 3) << picked;
  }
  // Degenerate inputs keep the documented fallbacks.
  const std::array<double, 3> all_zero = {0.0, 0.0, 0.0};
  EXPECT_EQ(RandomEngine::pick_weighted_at(0.5, all_zero), 0u);
}

TEST(Rng, PickWeightedProportions) {
  RandomEngine rng(37);
  const std::array<double, 2> weights = {1.0, 3.0};
  int count1 = 0;
  constexpr int n = 40000;
  for (int i = 0; i < n; ++i) count1 += (rng.pick_weighted(weights) == 1);
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  RandomEngine rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of "a" is 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// ---------------------------------------------------------------- config ---

TEST(Config, ParsesSectionsAndTypes) {
  const auto cfg = ConfigFile::parse(
      "[generator]\n"
      "max_expression_size = 7  ; comment\n"
      "math_func_allowed = true\n"
      "[campaign]\n"
      "alpha = 0.25\n"
      "name = hello\n");
  EXPECT_EQ(cfg.get_int("generator.max_expression_size", 0), 7);
  EXPECT_TRUE(cfg.get_bool("generator.math_func_allowed", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("campaign.alpha", 0.0), 0.25);
  EXPECT_EQ(cfg.get("campaign.name"), "hello");
}

TEST(Config, MissingKeysFallBack) {
  const auto cfg = ConfigFile::parse("");
  EXPECT_EQ(cfg.get_int("nope", 5), 5);
  EXPECT_FALSE(cfg.get("nope").has_value());
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(ConfigFile::parse("key without equals\n"), ConfigError);
  EXPECT_THROW(ConfigFile::parse("[unclosed\n"), ConfigError);
  EXPECT_THROW(ConfigFile::parse("= value\n"), ConfigError);
}

// A repeated key is rejected, naming the key and both lines, instead of the
// last line silently winning.
TEST(Config, DuplicateKeysThrowNamingKeyAndLines) {
  const auto expect_duplicate = [](const std::string& ini,
                                   const std::string& message) {
    try {
      (void)ConfigFile::parse(ini);
      ADD_FAILURE() << "expected ConfigError for " << message;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_duplicate("[campaign]\nseed = 1\nseed = 2\n",
                   "duplicate key 'campaign.seed' at lines 2 and 3");
  // Two same-named implementations would silently drop one of them.
  expect_duplicate(
      "[implementations]\ngcc = profile: libgomp\n"
      "clang = profile: libomp\n"
      "gcc = g++ -fopenmp -O3 {src} -o {bin}\n",
      "duplicate key 'implementations.gcc' at lines 2 and 4");
  // A section may be reopened, and the same key under two sections is two
  // keys.
  const auto cfg = ConfigFile::parse(
      "[campaign]\nseed = 1\n[generator]\nseed = 2\n[campaign]\nalpha = 0.3\n");
  EXPECT_EQ(cfg.get("campaign.seed"), "1");
  EXPECT_EQ(cfg.get("generator.seed"), "2");
  // set() still overrides: command-line flags go over a parsed file.
  ConfigFile file = ConfigFile::parse("[campaign]\nseed = 1\n");
  file.set("campaign.seed", "2");
  EXPECT_EQ(file.get("campaign.seed"), "2");
}

TEST(Config, BadTypedValuesThrow) {
  const auto cfg = ConfigFile::parse("x = notanumber\nb = maybe\n");
  EXPECT_THROW((void)cfg.get_int("x", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_double("x", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("b", false), ConfigError);
}

TEST(Config, TrailingGarbageIsRejectedNotTruncated) {
  // Regression: "timeout = 1.5x" must be a loud ConfigError, never a silent
  // 1.5 (or 1) — truncating at the first bad character would misread the
  // config.
  const auto cfg = ConfigFile::parse(
      "timeout = 1.5x\n"
      "count = 10x\n"
      "hexish = 0x10\n"
      "pair = 1.5 2.5\n"
      "expo = 1e\n");
  EXPECT_THROW((void)cfg.get_double("timeout", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_int("count", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_int("hexish", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_double("pair", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_double("expo", 0.0), ConfigError);
}

TEST(Config, OutOfRangeValuesThrowWithClearMessage) {
  const auto cfg = ConfigFile::parse(
      "big_int = 99999999999999999999999999\n"
      "big_double = 1e999\n"
      "ok = 42\n");
  try {
    (void)cfg.get_int("big_int", 0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  try {
    (void)cfg.get_double("big_double", 0.0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  // The range-checked overload guards narrowing conversions.
  EXPECT_EQ(cfg.get_int("ok", 0, 0, 100), 42);
  EXPECT_THROW((void)cfg.get_int("ok", 0, 0, 10), ConfigError);
  EXPECT_THROW((void)cfg.get_int("ok", 0, 50, 100), ConfigError);
}

TEST(Config, IntTypedSectionsRejectOversizedValues) {
  // 2^33 fits int64 but not int: from_config must throw, not wrap to a
  // small positive number.
  EXPECT_THROW((void)GeneratorConfig::from_config(ConfigFile::parse(
                   "[generator]\narray_size = 8589934592\n")),
               ConfigError);
  EXPECT_THROW((void)CampaignConfig::from_config(ConfigFile::parse(
                   "[campaign]\nnum_programs = 8589934592\n")),
               ConfigError);
  EXPECT_THROW((void)ExecutorConfig::from_config(ConfigFile::parse(
                   "[executor]\nmax_inflight = 8589934592\n")),
               ConfigError);
}

TEST(Config, StoreSectionParsesAndValidates) {
  const auto defaults = StoreConfig::from_config(ConfigFile::parse(""));
  EXPECT_FALSE(defaults.enabled);
  EXPECT_EQ(defaults.dir, "_store");

  const auto cfg = StoreConfig::from_config(ConfigFile::parse(
      "[store]\nenabled = true\ndir = /tmp/my_store\n"));
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.dir, "/tmp/my_store");

  StoreConfig bad;
  bad.dir.clear();
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(Config, TelemetrySectionParsesAndValidates) {
  const auto defaults = TelemetryConfig::from_config(ConfigFile::parse(""));
  EXPECT_TRUE(defaults.trace_file.empty());
  EXPECT_TRUE(defaults.metrics_file.empty());
  EXPECT_EQ(defaults.interval_ms, 500);
  EXPECT_FALSE(defaults.heartbeat);

  const auto cfg = TelemetryConfig::from_config(ConfigFile::parse(
      "[telemetry]\ntrace_file = /tmp/trace.json\n"
      "metrics_file = /tmp/metrics.json\ninterval_ms = 125\n"
      "heartbeat = true\n"));
  EXPECT_EQ(cfg.trace_file, "/tmp/trace.json");
  EXPECT_EQ(cfg.metrics_file, "/tmp/metrics.json");
  EXPECT_EQ(cfg.interval_ms, 125);
  EXPECT_TRUE(cfg.heartbeat);

  EXPECT_THROW(TelemetryConfig::from_config(
                   ConfigFile::parse("[telemetry]\ninterval_ms = 0\n")),
               ConfigError);
}

TEST(Config, SchedulerSectionParsesAndValidates) {
  const auto defaults = SchedulerConfig::from_config(ConfigFile::parse(""));
  EXPECT_EQ(defaults.backends, 1);

  const auto cfg = SchedulerConfig::from_config(
      ConfigFile::parse("[scheduler]\nbackends = 3\n"));
  EXPECT_EQ(cfg.backends, 3);

  EXPECT_THROW(SchedulerConfig::from_config(
                   ConfigFile::parse("[scheduler]\nbackends = 0\n")),
               ConfigError);
  // batch_size and steal are not keys: a stale config that still sets them
  // fails instead of running silently.
  EXPECT_THROW(SchedulerConfig::from_config(
                   ConfigFile::parse("[scheduler]\nbatch_size = 8\n")),
               ConfigError);
  EXPECT_THROW(SchedulerConfig::from_config(
                   ConfigFile::parse("[scheduler]\nsteal = off\n")),
               ConfigError);
}

TEST(Config, ThreadCountResolution) {
  // One helper for every `threads`-style knob: 0 (and anything negative,
  // should a caller skip validation) resolves to hardware concurrency, at
  // least 1; positive values pass through.
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_EQ(resolve_thread_count(0), hardware_thread_count());
  EXPECT_EQ(resolve_thread_count(-3), hardware_thread_count());
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST(Config, GeneratorConfigFromFileAndValidation) {
  const auto file = ConfigFile::parse(
      "[generator]\nmax_expression_size = 9\narray_size = 64\n");
  const auto gen = GeneratorConfig::from_config(file);
  EXPECT_EQ(gen.max_expression_size, 9);
  EXPECT_EQ(gen.array_size, 64);
  EXPECT_EQ(gen.max_nesting_levels, 3);  // default preserved
}

TEST(Config, GeneratorConfigRejectsBadValues) {
  GeneratorConfig bad;
  bad.max_expression_size = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = GeneratorConfig{};
  bad.math_func_probability = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = GeneratorConfig{};
  bad.p_atomic = -0.1;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = GeneratorConfig{};
  bad.p_schedule = 1.2;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(Config, GeneratorFeatureGatesDefaultOff) {
  const auto gen = GeneratorConfig::from_config(ConfigFile::parse(""));
  EXPECT_FALSE(gen.enable_atomic);
  EXPECT_FALSE(gen.enable_single);
  EXPECT_FALSE(gen.enable_master);
  EXPECT_FALSE(gen.enable_schedule);
}

TEST(Config, GeneratorFeaturesCsvParsing) {
  const auto gen = GeneratorConfig::from_config(ConfigFile::parse(
      "[generator]\nfeatures = atomic, schedule\n"));
  EXPECT_TRUE(gen.enable_atomic);
  EXPECT_FALSE(gen.enable_single);
  EXPECT_FALSE(gen.enable_master);
  EXPECT_TRUE(gen.enable_schedule);

  // Whitespace-tolerant, order-insensitive; every name must be known.
  GeneratorConfig g;
  g.enable_features("  master ,single  ");
  EXPECT_TRUE(g.enable_single);
  EXPECT_TRUE(g.enable_master);
  EXPECT_FALSE(g.enable_atomic);
  EXPECT_THROW(g.enable_features("atomic,tasks"), ConfigError);
}

TEST(Config, GeneratorFeatureBoolKeysAreRejected) {
  // `features` is the one spelling of a gate; the per-gate bool keys are
  // unknown keys, so a config written for them fails instead of running
  // with the gate off.
  try {
    (void)GeneratorConfig::from_config(ConfigFile::parse(
        "[generator]\nenable_single = true\np_single = 0.25\n"));
    FAIL() << "enable_single was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("generator.enable_single"),
              std::string::npos)
        << e.what();
  }
  const auto gen = GeneratorConfig::from_config(ConfigFile::parse(
      "[generator]\nfeatures = single\np_single = 0.25\n"));
  EXPECT_TRUE(gen.enable_single);
  EXPECT_DOUBLE_EQ(gen.p_single, 0.25);
}

TEST(Config, CampaignConfigParsesImplementations) {
  const auto file = ConfigFile::parse(
      "[campaign]\nnum_programs = 10\nalpha = 0.3\n"
      "[implementations]\n"
      "gcc = profile: libgomp\n"
      "real = g++ -fopenmp -O3 {src} -o {bin}\n");
  const auto c = CampaignConfig::from_config(file);
  EXPECT_EQ(c.num_programs, 10);
  EXPECT_DOUBLE_EQ(c.alpha, 0.3);
  ASSERT_EQ(c.implementations.size(), 2u);
  // std::map ordering: "gcc" < "real".
  EXPECT_EQ(c.implementations[0].name, "gcc");
  EXPECT_EQ(c.implementations[0].profile, "libgomp");
  EXPECT_EQ(c.implementations[1].name, "real");
  EXPECT_TRUE(c.implementations[1].profile.empty());
}

TEST(Config, UnknownKeysAndSectionsAreRejected) {
  // A misspelled or retired key must fail loudly, naming the key, instead of
  // silently running a different campaign.
  const auto expect_rejected = [](const std::string& ini,
                                  const std::string& key) {
    try {
      (void)CampaignConfig::from_config(ConfigFile::parse(ini));
      ADD_FAILURE() << "expected ConfigError for " << key;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  expect_rejected("[generator]\nenable_atomc = true\n", "enable_atomc");
  expect_rejected("[campaign]\nnum_progams = 5\n", "num_progams");
  expect_rejected("[sheduler]\nbackends = 2\n", "sheduler.backends");
  expect_rejected("num_programs = 5\n[campaign]\nseed = 1\n", "num_programs");
  expect_rejected("[campaign]\noutput_dir = /nonexistent\n", "output_dir");
  expect_rejected("[campaign]\nhang_timeout_us = 1\n", "hang_timeout_us");
  expect_rejected("[generator]\ninput_samples_per_run = 3\n",
                  "input_samples_per_run");
  // Each section's own from_config rejects its unknown keys too.
  EXPECT_THROW((void)GeneratorConfig::from_config(
                   ConfigFile::parse("[generator]\nenable_atomc = true\n")),
               ConfigError);
  EXPECT_THROW((void)SchedulerConfig::from_config(
                   ConfigFile::parse("[scheduler]\nbakends = 2\n")),
               ConfigError);

  // [implementations] keeps free-form names, and every owned section parses.
  const auto c = CampaignConfig::from_config(ConfigFile::parse(
      "[implementations]\nmy-odd_name.v2 = profile: libgomp\n"
      "anything = g++ -fopenmp {src} -o {bin}\n"
      "[executor]\nmax_inflight = 4\n[scheduler]\nbackends = 2\n"
      "[store]\nenabled = false\n[faults]\nrate = 0.5\n"
      "[telemetry]\nheartbeat = on\n[retry]\ncap_ms = 5\n"));
  ASSERT_EQ(c.implementations.size(), 2u);
  EXPECT_EQ(c.implementations[0].name, "anything");
  EXPECT_EQ(c.implementations[1].name, "my-odd_name.v2");
  EXPECT_EQ(c.retry.cap_ms, 5);
}

TEST(Config, CampaignValidationRejectsBadThresholds) {
  CampaignConfig c;
  c.alpha = 0.0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = CampaignConfig{};
  c.beta = 1.0;
  EXPECT_THROW(c.validate(), ConfigError);
}

// ---------------------------------------------------------------- strings --

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a{x}b{x}", "{x}", "1"), "a1b1");
  EXPECT_EQ(replace_all("abc", "", "z"), "abc");
}

TEST(Strings, FormatDoubleRoundTrips) {
  for (double v : {1.0, -0.0, 3.14159e300, 5e-324, 1976157359951.6069}) {
    // strtod, not std::stod: stod throws out_of_range on subnormal results.
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
}

TEST(Strings, FormatThousands) {
  EXPECT_EQ(format_thousands(0), "0");
  EXPECT_EQ(format_thousands(999), "999");
  EXPECT_EQ(format_thousands(1000), "1,000");
  EXPECT_EQ(format_thousands(85366729), "85,366,729");
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(population_stddev(xs), 2.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> xs = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 20.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Stats, GeomeanAndNonPositiveGuard) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean(std::vector<double>{1.0, 0.0}), 0.0);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Name", "N"});
  t.set_alignment({Align::Left, Align::Right});
  t.add_row({"gcc", "10"});
  t.add_row({"clang", "7"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Name  | "), std::string::npos);
  EXPECT_NE(out.find("gcc   | 10"), std::string::npos);
  EXPECT_NE(out.find("clang |  7"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n");
}

// ---------------------------------------------------------------- json -----

TEST(Json, ObjectsArraysAndEscaping) {
  JsonWriter j;
  j.begin_object();
  j.key("name").value("line\n\"quoted\"");
  j.key("xs").begin_array().value(std::int64_t{1}).value(2.5).value(true).null().end_array();
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"name\":\"line\\n\\\"quoted\\\"\",\"xs\":[1,2.5,true,null]}");
}

TEST(Json, NonFiniteNumbersEncodeAsStrings) {
  JsonWriter j;
  j.begin_array();
  j.value(std::nan(""));
  j.value(HUGE_VAL);
  j.end_array();
  EXPECT_EQ(j.str(), "[\"nan\",\"inf\"]");
}

TEST(Json, NestedObjects) {
  JsonWriter j;
  j.begin_object();
  j.key("a").begin_object().key("b").value(std::int64_t{1}).end_object();
  j.key("c").value(std::int64_t{2});
  j.end_object();
  EXPECT_EQ(j.str(), "{\"a\":{\"b\":1},\"c\":2}");
}

}  // namespace
}  // namespace ompfuzz
