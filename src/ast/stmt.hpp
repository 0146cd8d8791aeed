// Statements and blocks of the generated language (paper Listing 2).
//
// <block> ::= {<assignment>}+ | <if-block> <block> | <for-loop-block> <block>
//           | <openmp-block>
// plus the OpenMP statement forms of Section III-E:
//   <openmp-block>    — parallel region with data-sharing clauses,
//   <for-loop-block>  — for loop, optionally preceded by "#pragma omp for"
//                       (with an optional schedule(static|dynamic[,chunk])),
//   <openmp-critical> — critical section inside a loop body,
// and the feature-gated construct families (default-off in the generator):
//   <omp-atomic>      — "#pragma omp atomic" update on a scalar or element,
//   <omp-single>      — "#pragma omp single nowait { block }",
//   <omp-master>      — "#pragma omp master { block }".
//
// Stmt nodes are plain tagged data owned through std::unique_ptr; static
// factories establish the per-kind invariants, and Program::validate()
// re-checks them over whole trees.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ast/expr.hpp"

namespace ompfuzz::ast {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// An ordered sequence of statements.
struct Block {
  std::vector<StmtPtr> stmts;

  [[nodiscard]] Block clone() const;
  /// Deep copy with every VarId (targets, refs, loop vars, clause lists)
  /// translated through `map`; see Expr::clone_remap. A clause-list entry
  /// that maps to kInvalidVar is dropped; any other unmapped id throws.
  [[nodiscard]] Block clone_remap(std::span<const VarId> map) const;
  [[nodiscard]] bool empty() const noexcept { return stmts.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return stmts.size(); }
};

/// Clauses of "#pragma omp parallel" (paper <openmp-head>): always
/// default(shared), plus random private/firstprivate lists, an optional
/// reduction on comp, and a fixed num_threads (Section V-A).
struct OmpClauses {
  std::vector<VarId> privates;
  std::vector<VarId> firstprivates;
  std::optional<ReductionOp> reduction;  ///< reduction(<op>: comp)
  int num_threads = 32;
};

/// schedule(...) clause on an "omp for" loop. None emits no clause and keeps
/// the implementation-default (contiguous static) partition.
enum class ScheduleKind : std::uint8_t { None, Static, Dynamic };

/// Assignment target: a scalar variable or an array element.
struct LValue {
  VarId var = kInvalidVar;
  ExprPtr index;  ///< null for scalars

  [[nodiscard]] bool is_array_element() const noexcept { return index != nullptr; }
  [[nodiscard]] LValue clone() const;
};

class Stmt {
 public:
  enum class Kind : std::uint8_t {
    Assign,       ///< lvalue <assign-op> expression ;
    Decl,         ///< <fp-type> var = expression ;
    If,           ///< if (<bool-expression>) { block }
    For,          ///< for (int i = 0; i < bound; ++i) { block }, maybe omp for
    OmpParallel,  ///< #pragma omp parallel <clauses> { block }
    OmpCritical,  ///< #pragma omp critical { block }
    OmpAtomic,    ///< #pragma omp atomic — one update statement, no body
    OmpSingle,    ///< #pragma omp single nowait { block }
    OmpMaster,    ///< #pragma omp master { block }
  };

  Kind kind;

  // Assign / OmpAtomic (an atomic is one indivisible update of `target`)
  LValue target;
  AssignOp assign_op = AssignOp::Assign;
  ExprPtr value;

  // Decl (declares `target.var`, initialized with `value`)

  // If
  BoolExpr cond;

  // For
  VarId loop_var = kInvalidVar;
  ExprPtr loop_bound;   ///< IntConst or VarRef to an int parameter
  bool omp_for = false; ///< preceded by "#pragma omp for"
  ScheduleKind schedule = ScheduleKind::None;  ///< schedule(...) clause
  int schedule_chunk = 0;  ///< 0 = no explicit chunk size

  // OmpParallel
  OmpClauses clauses;

  // If / For / OmpParallel / OmpCritical / OmpSingle / OmpMaster body
  Block body;

  // -- Factories ------------------------------------------------------------
  [[nodiscard]] static StmtPtr assign(LValue target, AssignOp op, ExprPtr value);
  [[nodiscard]] static StmtPtr decl(VarId var, ExprPtr init);
  [[nodiscard]] static StmtPtr if_block(BoolExpr cond, Block then_block);
  [[nodiscard]] static StmtPtr for_loop(VarId loop_var, ExprPtr bound, Block body,
                                        bool omp_for,
                                        ScheduleKind schedule = ScheduleKind::None,
                                        int schedule_chunk = 0);
  [[nodiscard]] static StmtPtr omp_parallel(OmpClauses clauses, Block body);
  [[nodiscard]] static StmtPtr omp_critical(Block body);
  [[nodiscard]] static StmtPtr omp_atomic(LValue target, AssignOp op,
                                          ExprPtr value);
  [[nodiscard]] static StmtPtr omp_single(Block body);
  [[nodiscard]] static StmtPtr omp_master(Block body);

  [[nodiscard]] StmtPtr clone() const;
  /// See Block::clone_remap.
  [[nodiscard]] StmtPtr clone_remap(std::span<const VarId> map) const;

 private:
  explicit Stmt(Kind k) noexcept : kind(k) {}
};

/// Pre-order walk over every statement in a block (including nested bodies).
void walk_stmts(const Block& block, const std::function<void(const Stmt&)>& fn);

/// Number of statements in the block, nested bodies included — the size
/// metric the test-case reducer minimizes and reports.
[[nodiscard]] std::size_t count_stmts(const Block& block);

/// Walks every expression appearing anywhere in a block (assignment values,
/// lvalue subscripts, bool guards, loop bounds, decl initializers).
void walk_exprs(const Block& block, const std::function<void(const Expr&)>& fn);

}  // namespace ompfuzz::ast
