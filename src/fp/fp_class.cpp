#include "fp/fp_class.hpp"

#include <cfloat>
#include <cmath>
#include <cstdlib>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz::fp {

const char* to_keyword(FpWidth w) noexcept {
  return w == FpWidth::F32 ? "float" : "double";
}

const char* to_string(FpClass c) noexcept {
  switch (c) {
    case FpClass::Normal: return "normal";
    case FpClass::Subnormal: return "subnormal";
    case FpClass::AlmostInfinity: return "almost_infinity";
    case FpClass::AlmostSubnormal: return "almost_subnormal";
    case FpClass::Zero: return "zero";
  }
  return "?";
}

FpClass fp_class_from_index(int i) {
  OMPFUZZ_CHECK(i >= 0 && i < kNumFpClasses, "fp class index out of range");
  return static_cast<FpClass>(i);
}

namespace {

/// Shared classification logic over the magnitude and the type's limits.
FpClass classify_magnitude(double mag, double max_normal, double min_normal,
                           bool is_sub) noexcept {
  if (mag == 0.0) return FpClass::Zero;
  if (is_sub) return FpClass::Subnormal;
  const double band = std::pow(10.0, kAlmostBandDecades);
  if (mag >= max_normal / band) return FpClass::AlmostInfinity;
  if (mag <= min_normal * band) return FpClass::AlmostSubnormal;
  return FpClass::Normal;
}

}  // namespace

FpClass classify(double v) noexcept {
  if (std::isnan(v) || std::isinf(v)) return FpClass::AlmostInfinity;
  return classify_magnitude(std::fabs(v), DBL_MAX, DBL_MIN, is_subnormal(v));
}

FpClass classify(float v) noexcept {
  if (std::isnan(v) || std::isinf(v)) return FpClass::AlmostInfinity;
  return classify_magnitude(std::fabs(v), FLT_MAX, FLT_MIN, is_subnormal(v));
}

namespace {

/// Uniform in sign; magnitude log-uniform in [lo_exp10, hi_exp10] decades.
/// Log-uniform sampling matches Varity: floating-point values are spread
/// evenly over exponents rather than over the real line.
double log_uniform(double lo_exp10, double hi_exp10, RandomEngine& rng) noexcept {
  const double e = rng.uniform_real(lo_exp10, hi_exp10);
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  return sign * std::pow(10.0, e);
}

}  // namespace

double random_double(FpClass c, RandomEngine& rng) noexcept {
  switch (c) {
    case FpClass::Normal:
      // Comfortably inside the normal range, away from the extreme bands.
      return log_uniform(-10.0, 10.0, rng);
    case FpClass::Subnormal: {
      // Random subnormal by drawing a mantissa in [1, 2^52-1], exponent 0.
      const std::uint64_t mantissa = (rng.next_u64() % ((1ULL << 52) - 1)) + 1;
      const std::uint64_t sign = rng.bernoulli(0.5) ? (1ULL << 63) : 0;
      const std::uint64_t bits = sign | mantissa;
      double out;
      static_assert(sizeof(out) == sizeof(bits));
      __builtin_memcpy(&out, &bits, sizeof(out));
      return out;
    }
    case FpClass::AlmostInfinity: {
      // Inside the band [DBL_MAX / 10^band, DBL_MAX]; log10(DBL_MAX)=308.2547.
      const double hi = 308.25;
      return log_uniform(hi - kAlmostBandDecades + 0.02, hi, rng);
    }
    case FpClass::AlmostSubnormal: {
      // Inside [DBL_MIN, DBL_MIN * 10^band]; log10(DBL_MIN) = -307.6527.
      const double lo = -307.64;
      return log_uniform(lo, lo + kAlmostBandDecades - 0.02, rng);
    }
    case FpClass::Zero:
      return rng.bernoulli(0.5) ? 0.0 : -0.0;
  }
  return 0.0;
}

float random_float(FpClass c, RandomEngine& rng) noexcept {
  switch (c) {
    case FpClass::Normal:
      return static_cast<float>(log_uniform(-10.0, 10.0, rng));
    case FpClass::Subnormal: {
      const std::uint32_t mantissa =
          static_cast<std::uint32_t>(rng.next_u64() % ((1U << 23) - 1)) + 1;
      const std::uint32_t sign = rng.bernoulli(0.5) ? (1U << 31) : 0;
      const std::uint32_t bits = sign | mantissa;
      float out;
      static_assert(sizeof(out) == sizeof(bits));
      __builtin_memcpy(&out, &bits, sizeof(out));
      return out;
    }
    case FpClass::AlmostInfinity: {
      // Inside [FLT_MAX / 10^band, FLT_MAX]; log10(FLT_MAX) = 38.5318.
      const double hi = 38.53;
      return static_cast<float>(
          log_uniform(hi - kAlmostBandDecades + 0.02, hi, rng));
    }
    case FpClass::AlmostSubnormal: {
      // Inside [FLT_MIN, FLT_MIN * 10^band]; log10(FLT_MIN) = -37.9298.
      const double lo = -37.92;
      return static_cast<float>(
          log_uniform(lo, lo + kAlmostBandDecades - 0.02, rng));
    }
    case FpClass::Zero:
      return rng.bernoulli(0.5) ? 0.0f : -0.0f;
  }
  return 0.0f;
}

std::string to_exact_string(double v) {
  // Hex float representation round-trips bit exactly through strtod.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double from_exact_string(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

}  // namespace ompfuzz::fp
