#include "support/fault_injection.hpp"

#include <cmath>

#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

namespace {

constexpr std::array<const char*, kNumFaultSites> kSiteNames = {
    "dispatch",       "pool_pipe",      "pool_fork",  "pool_exec",
    "pool_stall",     "pool_poll",      "compile_spawn", "compile_timeout",
    "store_write",    "store_fsync",    "store_read_short",
    "store_read_corrupt",
};

/// splitmix64 finalizer: full-avalanche integer mix, so consecutive ordinals
/// decide independently (FNV over the raw bytes would correlate them).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(FaultSite site) noexcept {
  const int i = static_cast<int>(site);
  return i >= 0 && i < kNumFaultSites ? kSiteNames[static_cast<std::size_t>(i)]
                                      : "?";
}

std::optional<FaultSite> fault_site_by_name(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[static_cast<std::size_t>(i)]) {
      return static_cast<FaultSite>(i);
    }
  }
  return std::nullopt;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  auto& registry = telemetry::Registry::global();
  for (int i = 0; i < kNumFaultSites; ++i) {
    const std::string prefix =
        std::string("faults.") + kSiteNames[static_cast<std::size_t>(i)];
    checked_[static_cast<std::size_t>(i)] =
        &registry.counter(prefix + ".checked");
    injected_[static_cast<std::size_t>(i)] =
        &registry.counter(prefix + ".injected");
  }
}

void FaultInjector::configure(const FaultConfig& config) {
  config.validate();
  disable();
  if (!config.enabled || config.rate <= 0.0) return;

  std::uint64_t mask = 0;
  if (config.sites.empty()) {
    mask = (std::uint64_t{1} << kNumFaultSites) - 1;
  } else {
    for (const auto& token : split(config.sites, ',')) {
      const auto name = trim(token);
      if (name.empty()) continue;
      mask |= std::uint64_t{1}
              << static_cast<int>(*fault_site_by_name(name));
    }
  }
  // rate scaled to the full 64-bit hash range; rate == 1.0 must fire on
  // every check, so saturate instead of rounding into 2^64 overflow.
  const std::uint64_t threshold =
      config.rate >= 1.0
          ? ~std::uint64_t{0}
          : static_cast<std::uint64_t>(
                std::ldexp(config.rate, 64));
  threshold_.store(threshold, std::memory_order_relaxed);
  seed_.store(config.seed, std::memory_order_relaxed);
  site_mask_.store(mask, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::disable() {
  enabled_.store(false, std::memory_order_release);
  for (auto* c : checked_) c->reset();
  for (auto* c : injected_) c->reset();
}

bool FaultInjector::should_fail(FaultSite site) {
  if (!enabled_.load(std::memory_order_acquire)) return false;
  const auto i = static_cast<std::size_t>(site);
  if ((site_mask_.load(std::memory_order_relaxed) &
       (std::uint64_t{1} << i)) == 0) {
    return false;
  }
  // The ordinal doubles as the check counter: per-site, so one site's
  // decision stream does not shift when another site gains callers.
  const std::uint64_t ordinal = checked_[i]->add();
  const std::uint64_t h =
      mix64(hash_combine(seed_.load(std::memory_order_relaxed),
                         hash_combine(static_cast<std::uint64_t>(i) + 1,
                                      ordinal)));
  const std::uint64_t threshold = threshold_.load(std::memory_order_relaxed);
  const bool fire = threshold == ~std::uint64_t{0} || h < threshold;
  if (fire) injected_[i]->add();
  return fire;
}

FaultInjector::SiteStats FaultInjector::site_stats(FaultSite site) const {
  const auto i = static_cast<std::size_t>(site);
  return {checked_[i]->value(), injected_[i]->value()};
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (const auto* c : injected_) total += c->value();
  return total;
}

}  // namespace ompfuzz
