// Unit tests for floating-point input generation (paper Section III-D).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>

#include "fp/fp_class.hpp"
#include "fp/input_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::fp {
namespace {

// --------------------------------------------------------- classification --

TEST(FpClass, ClassifiesIeeeCategories) {
  EXPECT_EQ(classify(0.0), FpClass::Zero);
  EXPECT_EQ(classify(-0.0), FpClass::Zero);
  EXPECT_EQ(classify(1.0), FpClass::Normal);
  EXPECT_EQ(classify(5e-324), FpClass::Subnormal);        // min subnormal
  EXPECT_EQ(classify(DBL_MIN / 2.0), FpClass::Subnormal);
  EXPECT_EQ(classify(DBL_MAX), FpClass::AlmostInfinity);
  EXPECT_EQ(classify(1e307), FpClass::AlmostInfinity);
  EXPECT_EQ(classify(DBL_MIN * 2.0), FpClass::AlmostSubnormal);
}

TEST(FpClass, FloatClassification) {
  EXPECT_EQ(classify(0.0f), FpClass::Zero);
  EXPECT_EQ(classify(1.0f), FpClass::Normal);
  EXPECT_EQ(classify(FLT_MIN / 4.0f), FpClass::Subnormal);
  EXPECT_EQ(classify(FLT_MAX), FpClass::AlmostInfinity);
  EXPECT_EQ(classify(FLT_MIN * 2.0f), FpClass::AlmostSubnormal);
}

TEST(FpClass, NamesAreStable) {
  EXPECT_STREQ(to_string(FpClass::Normal), "normal");
  EXPECT_STREQ(to_string(FpClass::AlmostSubnormal), "almost_subnormal");
}

TEST(FpClass, IndexRoundTrip) {
  for (int i = 0; i < kNumFpClasses; ++i) {
    EXPECT_EQ(static_cast<int>(fp_class_from_index(i)), i);
  }
  EXPECT_THROW((void)fp_class_from_index(kNumFpClasses), Error);
  EXPECT_THROW((void)fp_class_from_index(-1), Error);
}

// Property: every generated value classifies back into the class it was
// drawn from — for all five classes, both widths, across many draws.
class FpClassRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FpClassRoundTrip, DoubleGenerationMatchesClassification) {
  const FpClass c = fp_class_from_index(GetParam());
  RandomEngine rng(1000 + GetParam());
  for (int i = 0; i < 500; ++i) {
    const double v = random_double(c, rng);
    EXPECT_EQ(classify(v), c) << "value " << v;
    EXPECT_FALSE(std::isnan(v));
    EXPECT_FALSE(std::isinf(v));
  }
}

TEST_P(FpClassRoundTrip, FloatGenerationMatchesClassification) {
  const FpClass c = fp_class_from_index(GetParam());
  RandomEngine rng(2000 + GetParam());
  for (int i = 0; i < 500; ++i) {
    const float v = random_float(c, rng);
    EXPECT_EQ(classify(v), c) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, FpClassRoundTrip,
                         ::testing::Range(0, kNumFpClasses),
                         [](const auto& info) {
                           return to_string(fp_class_from_index(info.param));
                         });

TEST(FpClass, IsSubnormalMatchesFpclassify) {
  const auto check64 = [](double v) {
    EXPECT_EQ(is_subnormal(v), std::fpclassify(v) == FP_SUBNORMAL)
        << std::bit_cast<std::uint64_t>(v);
  };
  const auto check32 = [](float v) {
    EXPECT_EQ(is_subnormal(v), std::fpclassify(v) == FP_SUBNORMAL)
        << std::bit_cast<std::uint32_t>(v);
  };
  const double d_min_sub = std::numeric_limits<double>::denorm_min();
  const double d_max_sub = std::nextafter(DBL_MIN, 0.0);
  const float f_min_sub = std::numeric_limits<float>::denorm_min();
  const float f_max_sub = std::nextafter(FLT_MIN, 0.0f);
  for (const double sign : {1.0, -1.0}) {
    for (const double v : {0.0, d_min_sub, d_max_sub, DBL_MIN, DBL_MAX,
                           std::numeric_limits<double>::infinity()}) {
      check64(sign * v);
    }
    for (const float v : {0.0f, f_min_sub, f_max_sub, FLT_MIN, FLT_MAX,
                          std::numeric_limits<float>::infinity()}) {
      check32(static_cast<float>(sign) * v);
    }
  }
  EXPECT_TRUE(is_subnormal(d_min_sub) && is_subnormal(-d_max_sub));
  EXPECT_TRUE(is_subnormal(f_min_sub) && is_subnormal(-f_max_sub));
  check64(std::numeric_limits<double>::quiet_NaN());
  check32(std::numeric_limits<float>::quiet_NaN());
  RandomEngine rng(8);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    check64(std::bit_cast<double>(bits));
    check32(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
    // Random bits are almost never subnormal: check each draw again with
    // its exponent field cleared so the subnormal side is exercised too.
    check64(std::bit_cast<double>(bits & 0x800F'FFFF'FFFF'FFFFULL));
    check32(std::bit_cast<float>(static_cast<std::uint32_t>(bits) & 0x807F'FFFFU));
  }
}

TEST(FpClass, ZeroDrawsBothSigns) {
  RandomEngine rng(5);
  bool pos = false, neg = false;
  for (int i = 0; i < 200; ++i) {
    const double v = random_double(FpClass::Zero, rng);
    (std::signbit(v) ? neg : pos) = true;
  }
  EXPECT_TRUE(pos);
  EXPECT_TRUE(neg);
}

TEST(FpClass, ExactStringRoundTripsBits) {
  RandomEngine rng(6);
  for (int c = 0; c < kNumFpClasses; ++c) {
    for (int i = 0; i < 100; ++i) {
      const double v = random_double(fp_class_from_index(c), rng);
      const double back = from_exact_string(to_exact_string(v));
      EXPECT_EQ(std::signbit(back), std::signbit(v));
      EXPECT_EQ(back, v);
    }
  }
}

// --------------------------------------------------------- input gen ------

std::vector<ParamSpec> sample_signature() {
  return {
      {"n", ParamKind::Int, FpWidth::F64, 0},
      {"x", ParamKind::Scalar, FpWidth::F64, 0},
      {"y", ParamKind::Scalar, FpWidth::F32, 0},
      {"arr", ParamKind::Array, FpWidth::F32, 100},
  };
}

TEST(InputGen, GeneratesOneValuePerParam) {
  RandomEngine rng(7);
  const InputGenerator gen;
  const auto sig = sample_signature();
  const InputSet set = gen.generate(sig, rng);
  ASSERT_EQ(set.values.size(), sig.size());
  EXPECT_EQ(set.values[0].kind, ParamKind::Int);
  EXPECT_GE(set.values[0].int_value, 1);
  EXPECT_LE(set.values[0].int_value, 1000);
}

TEST(InputGen, FloatParamsHoldExactFloats) {
  RandomEngine rng(8);
  const InputGenerator gen;
  const auto sig = sample_signature();
  for (int i = 0; i < 50; ++i) {
    const InputSet set = gen.generate(sig, rng);
    const double y = set.values[2].fp_value;
    EXPECT_EQ(static_cast<double>(static_cast<float>(y)), y)
        << "float param value must be exactly representable as float";
  }
}

TEST(InputGen, ArgvRoundTripIsBitExact) {
  RandomEngine rng(9);
  const InputGenerator gen;
  const auto sig = sample_signature();
  for (int i = 0; i < 100; ++i) {
    const InputSet set = gen.generate(sig, rng);
    const auto argv = set.to_argv();
    const InputSet back = InputGenerator::parse(sig, argv);
    ASSERT_EQ(back.values.size(), set.values.size());
    for (std::size_t k = 0; k < set.values.size(); ++k) {
      EXPECT_EQ(back.values[k].int_value, set.values[k].int_value);
      EXPECT_EQ(back.values[k].fp_value, set.values[k].fp_value)
          << "param " << k;
      EXPECT_EQ(std::signbit(back.values[k].fp_value),
                std::signbit(set.values[k].fp_value));
    }
    EXPECT_EQ(back.hash(), set.hash());
  }
}

TEST(InputGen, ParseRejectsWrongArity) {
  const auto sig = sample_signature();
  const std::vector<std::string> argv = {"1"};
  EXPECT_THROW((void)InputGenerator::parse(sig, argv), Error);
}

TEST(InputGen, ParseRejectsBadIntegers) {
  const std::vector<ParamSpec> sig = {{"n", ParamKind::Int, FpWidth::F64, 0}};
  const std::vector<std::string> argv = {"12x"};
  EXPECT_THROW((void)InputGenerator::parse(sig, argv), Error);
}

TEST(InputGen, TripCountBoundsRespected) {
  InputGenOptions opt;
  opt.min_trip_count = 10;
  opt.max_trip_count = 20;
  const InputGenerator gen(opt);
  const std::vector<ParamSpec> sig = {{"n", ParamKind::Int, FpWidth::F64, 0}};
  RandomEngine rng(10);
  for (int i = 0; i < 200; ++i) {
    const auto set = gen.generate(sig, rng);
    EXPECT_GE(set.values[0].int_value, 10);
    EXPECT_LE(set.values[0].int_value, 20);
  }
}

TEST(InputGen, BadOptionsThrow) {
  InputGenOptions opt;
  opt.min_trip_count = 0;
  EXPECT_THROW(InputGenerator{opt}, Error);
  opt = InputGenOptions{};
  opt.max_trip_count = 0;
  EXPECT_THROW(InputGenerator{opt}, Error);
}

TEST(InputGen, ClassWeightsSteerGeneration) {
  InputGenOptions opt;
  opt.class_weights = {0.0, 1.0, 0.0, 0.0, 0.0};  // subnormal only
  const InputGenerator gen(opt);
  const std::vector<ParamSpec> sig = {{"x", ParamKind::Scalar, FpWidth::F64, 0}};
  RandomEngine rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto set = gen.generate(sig, rng);
    EXPECT_EQ(set.values[0].fp_class, FpClass::Subnormal);
    EXPECT_EQ(classify(set.values[0].fp_value), FpClass::Subnormal);
  }
}

TEST(InputGen, HashDistinguishesInputs) {
  RandomEngine rng(12);
  const InputGenerator gen;
  const auto sig = sample_signature();
  const auto a = gen.generate(sig, rng);
  const auto b = gen.generate(sig, rng);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(InputGen, WidthKeywords) {
  EXPECT_STREQ(to_keyword(FpWidth::F32), "float");
  EXPECT_STREQ(to_keyword(FpWidth::F64), "double");
}

}  // namespace
}  // namespace ompfuzz::fp
