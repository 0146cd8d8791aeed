#include "ast/expr.hpp"

#include <bit>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::ast {

ExprPtr Expr::fp_const(double v, FpWidth width) {
  auto e = ExprPtr(new Expr(Kind::FpConst));
  e->fp_value_ = v;
  e->width_ = width;
  return e;
}

ExprPtr Expr::int_const(std::int64_t v) {
  auto e = ExprPtr(new Expr(Kind::IntConst));
  e->int_value_ = v;
  return e;
}

ExprPtr Expr::var(VarId id) {
  OMPFUZZ_CHECK(id != kInvalidVar, "var ref needs a valid id");
  auto e = ExprPtr(new Expr(Kind::VarRef));
  e->var_ = id;
  return e;
}

ExprPtr Expr::array(VarId id, ExprPtr index) {
  OMPFUZZ_CHECK(id != kInvalidVar, "array ref needs a valid id");
  OMPFUZZ_CHECK(index != nullptr, "array ref needs an index");
  auto e = ExprPtr(new Expr(Kind::ArrayRef));
  e->var_ = id;
  e->index_ = std::move(index);
  return e;
}

ExprPtr Expr::thread_id() {
  return ExprPtr(new Expr(Kind::ThreadId));
}

ExprPtr Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs, bool parenthesized) {
  OMPFUZZ_CHECK(lhs != nullptr && rhs != nullptr, "binary needs two operands");
  auto e = ExprPtr(new Expr(Kind::Binary));
  e->bin_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  e->paren_ = parenthesized;
  return e;
}

ExprPtr Expr::call(MathFunc func, ExprPtr arg) {
  OMPFUZZ_CHECK(arg != nullptr, "call needs an argument");
  auto e = ExprPtr(new Expr(Kind::Call));
  e->func_ = func;
  e->lhs_ = std::move(arg);
  return e;
}

ExprPtr Expr::clone() const {
  switch (kind_) {
    case Kind::FpConst: return fp_const(fp_value_, width_);
    case Kind::IntConst: return int_const(int_value_);
    case Kind::VarRef: return var(var_);
    case Kind::ArrayRef: return array(var_, index_->clone());
    case Kind::ThreadId: return thread_id();
    case Kind::Binary:
      return binary(bin_op_, lhs_->clone(), rhs_->clone(), paren_);
    case Kind::Call: return call(func_, lhs_->clone());
  }
  throw Error("unreachable expr kind in clone");
}

ExprPtr Expr::clone_remap(std::span<const VarId> map) const {
  const auto remap = [&map](VarId id) {
    OMPFUZZ_CHECK(id < map.size() && map[id] != kInvalidVar,
                  "clone_remap: variable has no mapping");
    return map[id];
  };
  switch (kind_) {
    case Kind::FpConst: return fp_const(fp_value_, width_);
    case Kind::IntConst: return int_const(int_value_);
    case Kind::VarRef: return var(remap(var_));
    case Kind::ArrayRef: return array(remap(var_), index_->clone_remap(map));
    case Kind::ThreadId: return thread_id();
    case Kind::Binary:
      return binary(bin_op_, lhs_->clone_remap(map), rhs_->clone_remap(map),
                    paren_);
    case Kind::Call: return call(func_, lhs_->clone_remap(map));
  }
  throw Error("unreachable expr kind in clone_remap");
}

bool Expr::equals(const Expr& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::FpConst:
      return std::bit_cast<std::uint64_t>(fp_value_) ==
                 std::bit_cast<std::uint64_t>(other.fp_value_) &&
             width_ == other.width_;
    case Kind::IntConst: return int_value_ == other.int_value_;
    case Kind::VarRef: return var_ == other.var_;
    case Kind::ArrayRef:
      return var_ == other.var_ && index_->equals(*other.index_);
    case Kind::ThreadId: return true;
    case Kind::Binary:
      return bin_op_ == other.bin_op_ && paren_ == other.paren_ &&
             lhs_->equals(*other.lhs_) && rhs_->equals(*other.rhs_);
    case Kind::Call:
      return func_ == other.func_ && lhs_->equals(*other.lhs_);
  }
  return false;
}

std::uint64_t Expr::hash() const noexcept {
  std::uint64_t h = hash_combine(0x9e37, static_cast<std::uint64_t>(kind_));
  switch (kind_) {
    case Kind::FpConst:
      h = hash_combine(h, std::bit_cast<std::uint64_t>(fp_value_));
      h = hash_combine(h, static_cast<std::uint64_t>(width_));
      break;
    case Kind::IntConst:
      h = hash_combine(h, static_cast<std::uint64_t>(int_value_));
      break;
    case Kind::VarRef:
      h = hash_combine(h, var_);
      break;
    case Kind::ArrayRef:
      h = hash_combine(h, var_);
      h = hash_combine(h, index_->hash());
      break;
    case Kind::ThreadId:
      break;
    case Kind::Binary:
      h = hash_combine(h, static_cast<std::uint64_t>(bin_op_));
      // paren_ is emitted (explicit grammar parentheses) — skipping it here
      // would fingerprint two differently-emitted programs identically and
      // silently share their cached results.
      h = hash_combine(h, paren_ ? 1u : 0u);
      h = hash_combine(h, lhs_->hash());
      h = hash_combine(h, rhs_->hash());
      break;
    case Kind::Call:
      h = hash_combine(h, static_cast<std::uint64_t>(func_));
      h = hash_combine(h, lhs_->hash());
      break;
  }
  return h;
}

std::size_t Expr::size() const noexcept {
  std::size_t n = 0;
  walk([&n](const Expr&) { ++n; });
  return n;
}

BoolExpr BoolExpr::clone() const {
  BoolExpr out;
  out.lhs = lhs;
  out.op = op;
  out.rhs = rhs ? rhs->clone() : nullptr;
  return out;
}

BoolExpr BoolExpr::clone_remap(std::span<const VarId> map) const {
  OMPFUZZ_CHECK(lhs < map.size() && map[lhs] != kInvalidVar,
                "clone_remap: bool guard variable has no mapping");
  BoolExpr out;
  out.lhs = map[lhs];
  out.op = op;
  out.rhs = rhs ? rhs->clone_remap(map) : nullptr;
  return out;
}

std::uint64_t BoolExpr::hash() const noexcept {
  std::uint64_t h = hash_combine(0xb001, lhs);
  h = hash_combine(h, static_cast<std::uint64_t>(op));
  if (rhs) h = hash_combine(h, rhs->hash());
  return h;
}

}  // namespace ompfuzz::ast
