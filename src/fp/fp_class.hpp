// Floating-point input classes (paper Section III-D, inherited from Varity).
//
// The input generator produces five kinds of IEEE-754 values:
//   - Normal          : ordinary normalized numbers,
//   - Subnormal       : denormalized numbers (gradual underflow range),
//   - AlmostInfinity  : normal numbers close to +/-inf (near DBL_MAX),
//   - AlmostSubnormal : normal numbers close to the subnormal boundary
//                       (near DBL_MIN, but still normal),
//   - Zero            : +0.0 or -0.0.
// Normal/Subnormal/Zero are IEEE 754-2008 categories; AlmostInfinity and
// AlmostSubnormal are the paper's extreme-but-still-normal extensions.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace ompfuzz {
class RandomEngine;  // support/rng.hpp; by reference only, keeps this header light
}

namespace ompfuzz::fp {

/// Floating-point width of a generated variable. Lives here (not in
/// input_gen.hpp) so AST headers can name widths without pulling in the
/// input-generation machinery.
enum class FpWidth : std::uint8_t { F32, F64 };

[[nodiscard]] const char* to_keyword(FpWidth w) noexcept;  // "float" / "double"

enum class FpClass : std::uint8_t {
  Normal,
  Subnormal,
  AlmostInfinity,
  AlmostSubnormal,
  Zero,
};

inline constexpr int kNumFpClasses = 5;

/// All five classes, for uniform sampling and parameterized tests.
[[nodiscard]] const char* to_string(FpClass c) noexcept;
[[nodiscard]] FpClass fp_class_from_index(int i);

/// Exact IEEE-754 subnormal test (zero exponent field, nonzero mantissa):
/// the same answer as `std::fpclassify(v) == FP_SUBNORMAL` without the
/// library call. Subtracting one from the magnitude bits wraps zero to the
/// top, so one unsigned compare checks both fields.
[[nodiscard]] inline bool is_subnormal(double v) noexcept {
  const std::uint64_t magnitude = std::bit_cast<std::uint64_t>(v) & ~(1ULL << 63);
  return magnitude - 1 < (1ULL << 52) - 1;
}
[[nodiscard]] inline bool is_subnormal(float v) noexcept {
  const std::uint32_t magnitude = std::bit_cast<std::uint32_t>(v) & ~(1U << 31);
  return magnitude - 1 < (1U << 23) - 1;
}

/// Classifies a finite double into the paper's five categories. The
/// "almost" bands are defined as within `kAlmostBandDecades` decades of the
/// respective boundary (DBL_MAX / DBL_MIN). NaN/Inf map onto AlmostInfinity
/// for classification purposes (the generator never emits them).
[[nodiscard]] FpClass classify(double v) noexcept;
[[nodiscard]] FpClass classify(float v) noexcept;

/// Width of the "almost" bands, in powers of ten.
inline constexpr double kAlmostBandDecades = 3.0;

/// Draws one double of the requested class. Zero draws +/-0 with equal
/// probability; other classes draw a random sign.
[[nodiscard]] double random_double(FpClass c, RandomEngine& rng) noexcept;

/// Float variant (used when a program declares float inputs).
[[nodiscard]] float random_float(FpClass c, RandomEngine& rng) noexcept;

/// Round-trip helpers for writing inputs to test command lines and reading
/// them back bit-exactly.
[[nodiscard]] std::string to_exact_string(double v);
[[nodiscard]] double from_exact_string(const std::string& s);

}  // namespace ompfuzz::fp
