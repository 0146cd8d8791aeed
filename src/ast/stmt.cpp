#include "ast/stmt.hpp"

#include <functional>

#include "support/error.hpp"

namespace ompfuzz::ast {

Block Block::clone() const {
  Block out;
  out.stmts.reserve(stmts.size());
  for (const auto& s : stmts) out.stmts.push_back(s->clone());
  return out;
}

LValue LValue::clone() const {
  LValue out;
  out.var = var;
  out.index = index ? index->clone() : nullptr;
  return out;
}

StmtPtr Stmt::assign(LValue target, AssignOp op, ExprPtr value) {
  OMPFUZZ_CHECK(target.var != kInvalidVar, "assign target needs a variable");
  OMPFUZZ_CHECK(value != nullptr, "assign needs a value");
  auto s = StmtPtr(new Stmt(Kind::Assign));
  s->target = std::move(target);
  s->assign_op = op;
  s->value = std::move(value);
  return s;
}

StmtPtr Stmt::decl(VarId var, ExprPtr init) {
  OMPFUZZ_CHECK(var != kInvalidVar, "decl needs a variable");
  OMPFUZZ_CHECK(init != nullptr, "decl needs an initializer");
  auto s = StmtPtr(new Stmt(Kind::Decl));
  s->target.var = var;
  s->value = std::move(init);
  return s;
}

StmtPtr Stmt::if_block(BoolExpr cond, Block then_block) {
  OMPFUZZ_CHECK(cond.rhs != nullptr, "if needs a complete bool expression");
  auto s = StmtPtr(new Stmt(Kind::If));
  s->cond = std::move(cond);
  s->body = std::move(then_block);
  return s;
}

StmtPtr Stmt::for_loop(VarId loop_var, ExprPtr bound, Block body, bool omp_for,
                       ScheduleKind schedule, int schedule_chunk) {
  OMPFUZZ_CHECK(loop_var != kInvalidVar, "for needs an induction variable");
  OMPFUZZ_CHECK(bound != nullptr, "for needs a bound");
  OMPFUZZ_CHECK(schedule == ScheduleKind::None || omp_for,
                "schedule clause needs an omp for loop");
  OMPFUZZ_CHECK(schedule_chunk >= 0, "schedule chunk must be >= 0");
  auto s = StmtPtr(new Stmt(Kind::For));
  s->loop_var = loop_var;
  s->loop_bound = std::move(bound);
  s->body = std::move(body);
  s->omp_for = omp_for;
  s->schedule = schedule;
  s->schedule_chunk = schedule == ScheduleKind::None ? 0 : schedule_chunk;
  return s;
}

StmtPtr Stmt::omp_parallel(OmpClauses clauses, Block body) {
  OMPFUZZ_CHECK(clauses.num_threads >= 1, "parallel region needs >= 1 thread");
  auto s = StmtPtr(new Stmt(Kind::OmpParallel));
  s->clauses = std::move(clauses);
  s->body = std::move(body);
  return s;
}

StmtPtr Stmt::omp_critical(Block body) {
  auto s = StmtPtr(new Stmt(Kind::OmpCritical));
  s->body = std::move(body);
  return s;
}

StmtPtr Stmt::omp_atomic(LValue target, AssignOp op, ExprPtr value) {
  OMPFUZZ_CHECK(target.var != kInvalidVar, "atomic target needs a variable");
  OMPFUZZ_CHECK(value != nullptr, "atomic needs a value");
  auto s = StmtPtr(new Stmt(Kind::OmpAtomic));
  s->target = std::move(target);
  s->assign_op = op;
  s->value = std::move(value);
  return s;
}

StmtPtr Stmt::omp_single(Block body) {
  auto s = StmtPtr(new Stmt(Kind::OmpSingle));
  s->body = std::move(body);
  return s;
}

StmtPtr Stmt::omp_master(Block body) {
  auto s = StmtPtr(new Stmt(Kind::OmpMaster));
  s->body = std::move(body);
  return s;
}

Block Block::clone_remap(std::span<const VarId> map) const {
  Block out;
  out.stmts.reserve(stmts.size());
  for (const auto& s : stmts) out.stmts.push_back(s->clone_remap(map));
  return out;
}

namespace {

VarId remap_var(std::span<const VarId> map, VarId id) {
  OMPFUZZ_CHECK(id < map.size() && map[id] != kInvalidVar,
                "clone_remap: statement variable has no mapping");
  return map[id];
}

/// A clause names a variable without using it, so an entry whose variable
/// maps to kInvalidVar is dropped instead of rejected.
std::vector<VarId> remap_clause_vars(std::span<const VarId> map,
                                     const std::vector<VarId>& ids) {
  std::vector<VarId> out;
  out.reserve(ids.size());
  for (VarId id : ids) {
    OMPFUZZ_CHECK(id < map.size(), "clone_remap: clause variable out of range");
    if (map[id] != kInvalidVar) out.push_back(map[id]);
  }
  return out;
}

}  // namespace

StmtPtr Stmt::clone_remap(std::span<const VarId> map) const {
  switch (kind) {
    case Kind::Assign: {
      LValue t;
      t.var = remap_var(map, target.var);
      t.index = target.index ? target.index->clone_remap(map) : nullptr;
      return assign(std::move(t), assign_op, value->clone_remap(map));
    }
    case Kind::Decl:
      return decl(remap_var(map, target.var), value->clone_remap(map));
    case Kind::If:
      return if_block(cond.clone_remap(map), body.clone_remap(map));
    case Kind::For:
      return for_loop(remap_var(map, loop_var), loop_bound->clone_remap(map),
                      body.clone_remap(map), omp_for, schedule, schedule_chunk);
    case Kind::OmpParallel: {
      OmpClauses c;
      c.privates = remap_clause_vars(map, clauses.privates);
      c.firstprivates = remap_clause_vars(map, clauses.firstprivates);
      c.reduction = clauses.reduction;
      c.num_threads = clauses.num_threads;
      return omp_parallel(std::move(c), body.clone_remap(map));
    }
    case Kind::OmpCritical:
      return omp_critical(body.clone_remap(map));
    case Kind::OmpAtomic: {
      LValue t;
      t.var = remap_var(map, target.var);
      t.index = target.index ? target.index->clone_remap(map) : nullptr;
      return omp_atomic(std::move(t), assign_op, value->clone_remap(map));
    }
    case Kind::OmpSingle:
      return omp_single(body.clone_remap(map));
    case Kind::OmpMaster:
      return omp_master(body.clone_remap(map));
  }
  throw Error("unreachable stmt kind in clone_remap");
}

StmtPtr Stmt::clone() const {
  switch (kind) {
    case Kind::Assign:
      return assign(target.clone(), assign_op, value->clone());
    case Kind::Decl:
      return decl(target.var, value->clone());
    case Kind::If:
      return if_block(cond.clone(), body.clone());
    case Kind::For:
      return for_loop(loop_var, loop_bound->clone(), body.clone(), omp_for,
                      schedule, schedule_chunk);
    case Kind::OmpParallel: {
      OmpClauses c;
      c.privates = clauses.privates;
      c.firstprivates = clauses.firstprivates;
      c.reduction = clauses.reduction;
      c.num_threads = clauses.num_threads;
      return omp_parallel(std::move(c), body.clone());
    }
    case Kind::OmpCritical:
      return omp_critical(body.clone());
    case Kind::OmpAtomic:
      return omp_atomic(target.clone(), assign_op, value->clone());
    case Kind::OmpSingle:
      return omp_single(body.clone());
    case Kind::OmpMaster:
      return omp_master(body.clone());
  }
  throw Error("unreachable stmt kind in clone");
}

void walk_stmts(const Block& block, const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : block.stmts) {
    fn(*s);
    switch (s->kind) {
      case Stmt::Kind::If:
      case Stmt::Kind::For:
      case Stmt::Kind::OmpParallel:
      case Stmt::Kind::OmpCritical:
      case Stmt::Kind::OmpSingle:
      case Stmt::Kind::OmpMaster:
        walk_stmts(s->body, fn);
        break;
      case Stmt::Kind::Assign:
      case Stmt::Kind::Decl:
      case Stmt::Kind::OmpAtomic:
        break;
    }
  }
}

std::size_t count_stmts(const Block& block) {
  std::size_t n = 0;
  walk_stmts(block, [&n](const Stmt&) { ++n; });
  return n;
}

void walk_exprs(const Block& block, const std::function<void(const Expr&)>& fn) {
  walk_stmts(block, [&fn](const Stmt& s) {
    if (s.value) s.value->walk(fn);
    if (s.target.index) s.target.index->walk(fn);
    if (s.kind == Stmt::Kind::If && s.cond.rhs) s.cond.rhs->walk(fn);
    if (s.loop_bound) s.loop_bound->walk(fn);
  });
}

}  // namespace ompfuzz::ast
