// Expression trees of the generated language.
//
// <expression> ::= <term> | "(" <expression> ")" | <expression> <op> <expression>
// <term>       ::= <identifier> | <fp-numeral> | array element | math call
// plus omp_get_thread_num(), which the generator uses as a race-free array
// subscript (Section III-G).
//
// Expr is a tagged tree node owned through std::unique_ptr. Factories keep
// construction terse; clone/equals/hash support program fingerprinting.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "ast/types.hpp"
#include "support/error.hpp"

namespace ompfuzz::ast {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
 public:
  enum class Kind : std::uint8_t {
    FpConst,   ///< floating-point literal, e.g. 1.23e+4
    IntConst,  ///< integer literal (array subscripts, loop bounds)
    VarRef,    ///< scalar variable reference
    ArrayRef,  ///< array element: var[index-expr]
    ThreadId,  ///< omp_get_thread_num()
    Binary,    ///< lhs op rhs, optionally parenthesized in the source
    Call,      ///< single-argument math function call
  };

  // -- Factories ------------------------------------------------------------
  [[nodiscard]] static ExprPtr fp_const(double v, FpWidth width = FpWidth::F64);
  [[nodiscard]] static ExprPtr int_const(std::int64_t v);
  [[nodiscard]] static ExprPtr var(VarId id);
  [[nodiscard]] static ExprPtr array(VarId id, ExprPtr index);
  [[nodiscard]] static ExprPtr thread_id();
  [[nodiscard]] static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs,
                                      bool parenthesized = false);
  [[nodiscard]] static ExprPtr call(MathFunc func, ExprPtr arg);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  // -- Accessors (valid only for the matching kind; checked) ---------------
  // Inline: the interpreter calls these several times per evaluated node.
  [[nodiscard]] double fp_value() const {
    OMPFUZZ_CHECK(kind_ == Kind::FpConst, "fp_value on non-FpConst");
    return fp_value_;
  }
  [[nodiscard]] FpWidth fp_width() const {
    OMPFUZZ_CHECK(kind_ == Kind::FpConst, "fp_width on non-FpConst");
    return width_;
  }
  [[nodiscard]] std::int64_t int_value() const {
    OMPFUZZ_CHECK(kind_ == Kind::IntConst, "int_value on non-IntConst");
    return int_value_;
  }
  /// VarRef and ArrayRef.
  [[nodiscard]] VarId var_id() const {
    OMPFUZZ_CHECK(kind_ == Kind::VarRef || kind_ == Kind::ArrayRef,
                  "var_id on non-variable expr");
    return var_;
  }
  /// ArrayRef.
  [[nodiscard]] const Expr& index() const {
    OMPFUZZ_CHECK(kind_ == Kind::ArrayRef, "index on non-ArrayRef");
    return *index_;
  }
  [[nodiscard]] BinOp bin_op() const {
    OMPFUZZ_CHECK(kind_ == Kind::Binary, "bin_op on non-Binary");
    return bin_op_;
  }
  [[nodiscard]] bool parenthesized() const {
    OMPFUZZ_CHECK(kind_ == Kind::Binary, "parenthesized on non-Binary");
    return paren_;
  }
  [[nodiscard]] const Expr& lhs() const {
    OMPFUZZ_CHECK(kind_ == Kind::Binary, "lhs on non-Binary");
    return *lhs_;
  }
  [[nodiscard]] const Expr& rhs() const {
    OMPFUZZ_CHECK(kind_ == Kind::Binary, "rhs on non-Binary");
    return *rhs_;
  }
  [[nodiscard]] MathFunc func() const {
    OMPFUZZ_CHECK(kind_ == Kind::Call, "func on non-Call");
    return func_;
  }
  [[nodiscard]] const Expr& arg() const {
    OMPFUZZ_CHECK(kind_ == Kind::Call, "arg on non-Call");
    return *lhs_;
  }

  [[nodiscard]] ExprPtr clone() const;
  /// Deep copy with every variable reference translated through `map`
  /// (`map[old_id]` is the new id; entries must be valid for every id this
  /// subtree references). Used when the reducer drops unused variables from
  /// a program's symbol table, which renumbers the survivors.
  [[nodiscard]] ExprPtr clone_remap(std::span<const VarId> map) const;
  [[nodiscard]] bool equals(const Expr& other) const noexcept;
  /// Structural hash (stable across processes).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Number of nodes in this subtree.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Calls fn on every node of the subtree (pre-order).
  template <typename Fn>
  void walk(Fn&& fn) const {
    fn(*this);
    if (index_) index_->walk(fn);
    if (lhs_) lhs_->walk(fn);
    if (rhs_) rhs_->walk(fn);
  }

 private:
  explicit Expr(Kind kind) noexcept : kind_(kind) {}

  Kind kind_;
  FpWidth width_ = FpWidth::F64;
  bool paren_ = false;
  BinOp bin_op_ = BinOp::Add;
  MathFunc func_ = MathFunc::Sin;
  double fp_value_ = 0.0;
  std::int64_t int_value_ = 0;
  VarId var_ = kInvalidVar;
  ExprPtr index_;  // ArrayRef subscript
  ExprPtr lhs_;    // Binary left / Call argument
  ExprPtr rhs_;    // Binary right
};

/// A boolean guard: <bool-expression> ::= <id> <bool-op> <expression>.
struct BoolExpr {
  VarId lhs = kInvalidVar;
  BoolOp op = BoolOp::Lt;
  ExprPtr rhs;

  [[nodiscard]] BoolExpr clone() const;
  [[nodiscard]] BoolExpr clone_remap(std::span<const VarId> map) const;
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

}  // namespace ompfuzz::ast
