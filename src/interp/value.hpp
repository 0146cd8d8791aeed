// Runtime values of the interpreted test language.
//
// The interpreter mirrors C++ arithmetic semantics exactly (see
// emit/codegen.hpp): an operation is performed in float only when both
// operands are float; everything else is double. Value keeps the native
// representation per width so float operations round exactly like the
// compiled binary does on the same hardware.
#pragma once

#include <cstdint>

#include "ast/types.hpp"
#include "support/error.hpp"

namespace ompfuzz::interp {

/// A 16-byte tag plus union. Invariant: the union member that is live is
/// the one `tag()` names, because only the make_* factories write it, and
/// every read goes through a tag switch (as_double/as_int) or the checked
/// f32() accessor.
class Value {
 public:
  enum class Tag : std::uint8_t { Int, F32, F64 };

  static Value make_int(std::int64_t v) noexcept {
    Value out;
    out.tag_ = Tag::Int;
    out.i_ = v;
    return out;
  }
  static Value make_f32(float v) noexcept {
    Value out;
    out.tag_ = Tag::F32;
    out.f_ = v;
    return out;
  }
  static Value make_f64(double v) noexcept {
    Value out;
    out.d_ = v;
    return out;
  }

  [[nodiscard]] Tag tag() const noexcept { return tag_; }

  /// Usual arithmetic conversion to double (ints convert exactly for the
  /// magnitudes the generator produces).
  [[nodiscard]] double as_double() const noexcept {
    switch (tag_) {
      case Tag::Int: return static_cast<double>(i_);
      case Tag::F32: return static_cast<double>(f_);
      case Tag::F64: return d_;
    }
    return 0.0;
  }

  [[nodiscard]] std::int64_t as_int() const noexcept {
    switch (tag_) {
      case Tag::Int: return i_;
      case Tag::F32: return static_cast<std::int64_t>(f_);
      case Tag::F64: return static_cast<std::int64_t>(d_);
    }
    return 0;
  }

  /// The float payload; valid only for an F32 value (checked).
  [[nodiscard]] float f32() const {
    OMPFUZZ_CHECK(tag_ == Tag::F32, "f32 read of a non-float value");
    return f_;
  }

  /// Zero of the given variable width (the deterministic placeholder for
  /// never-initialized privates; generated programs never read one).
  static Value zero_of(ast::FpWidth w) noexcept {
    return w == ast::FpWidth::F32 ? make_f32(0.0f) : make_f64(0.0);
  }

 private:
  Tag tag_ = Tag::F64;
  union {
    std::int64_t i_;
    float f_;
    double d_ = 0.0;
  };
};

static_assert(sizeof(Value) == 16);

}  // namespace ompfuzz::interp
