#include "ast/program.hpp"

#include <algorithm>
#include <functional>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::ast {

Program Program::clone() const {
  Program out;
  out.vars_ = vars_;
  out.params_ = params_;
  out.comp_ = comp_;
  out.body_ = body_.clone();
  out.name_ = name_;
  return out;
}

VarId Program::add_var(VarDecl decl) {
  OMPFUZZ_CHECK(!decl.name.empty(), "variable needs a name");
  for (const auto& existing : vars_) {
    OMPFUZZ_CHECK(existing.name != decl.name,
                  "duplicate variable name: " + decl.name);
  }
  vars_.push_back(std::move(decl));
  return static_cast<VarId>(vars_.size() - 1);
}

const VarDecl& Program::var(VarId id) const {
  OMPFUZZ_CHECK(id < vars_.size(), "variable id out of range");
  return vars_[id];
}

void Program::add_param(VarId id) {
  OMPFUZZ_CHECK(id < vars_.size(), "param id out of range");
  OMPFUZZ_CHECK(std::find(params_.begin(), params_.end(), id) == params_.end(),
                "variable already a param");
  params_.push_back(id);
}

std::vector<fp::ParamSpec> Program::signature() const {
  std::vector<fp::ParamSpec> out;
  out.reserve(params_.size());
  for (VarId id : params_) {
    const VarDecl& d = var(id);
    fp::ParamSpec spec;
    spec.name = d.name;
    spec.width = d.width;
    switch (d.kind) {
      case VarKind::IntScalar: spec.kind = fp::ParamKind::Int; break;
      case VarKind::FpScalar: spec.kind = fp::ParamKind::Scalar; break;
      case VarKind::FpArray:
        spec.kind = fp::ParamKind::Array;
        spec.array_size = d.array_size;
        break;
    }
    out.push_back(std::move(spec));
  }
  return out;
}

namespace {

std::uint64_t hash_block(const Block& block);

std::uint64_t hash_stmt(const Stmt& s) {
  std::uint64_t h = hash_combine(0x57a7, static_cast<std::uint64_t>(s.kind));
  switch (s.kind) {
    case Stmt::Kind::Assign:
      h = hash_combine(h, s.target.var);
      if (s.target.index) h = hash_combine(h, s.target.index->hash());
      h = hash_combine(h, static_cast<std::uint64_t>(s.assign_op));
      h = hash_combine(h, s.value->hash());
      break;
    case Stmt::Kind::Decl:
      h = hash_combine(h, s.target.var);
      h = hash_combine(h, s.value->hash());
      break;
    case Stmt::Kind::If:
      h = hash_combine(h, s.cond.hash());
      h = hash_combine(h, hash_block(s.body));
      break;
    case Stmt::Kind::For:
      h = hash_combine(h, s.loop_var);
      h = hash_combine(h, s.loop_bound->hash());
      h = hash_combine(h, static_cast<std::uint64_t>(s.omp_for));
      // Mixed in only when a clause is present: default-schedule loops keep
      // the hashes (and the pinned golden fingerprints) they had before the
      // field existed.
      if (s.schedule != ScheduleKind::None) {
        h = hash_combine(h, static_cast<std::uint64_t>(s.schedule) + 0x5c4ed);
        h = hash_combine(h, static_cast<std::uint64_t>(s.schedule_chunk));
      }
      h = hash_combine(h, hash_block(s.body));
      break;
    case Stmt::Kind::OmpParallel: {
      for (VarId v : s.clauses.privates) h = hash_combine(h, v + 1);
      for (VarId v : s.clauses.firstprivates) h = hash_combine(h, v + 101);
      h = hash_combine(h, s.clauses.reduction
                              ? static_cast<std::uint64_t>(*s.clauses.reduction) + 1
                              : 0);
      h = hash_combine(h, static_cast<std::uint64_t>(s.clauses.num_threads));
      h = hash_combine(h, hash_block(s.body));
      break;
    }
    case Stmt::Kind::OmpCritical:
    case Stmt::Kind::OmpSingle:
    case Stmt::Kind::OmpMaster:
      h = hash_combine(h, hash_block(s.body));
      break;
    case Stmt::Kind::OmpAtomic:
      h = hash_combine(h, s.target.var);
      if (s.target.index) h = hash_combine(h, s.target.index->hash());
      h = hash_combine(h, static_cast<std::uint64_t>(s.assign_op));
      h = hash_combine(h, s.value->hash());
      break;
  }
  return h;
}

std::uint64_t hash_block(const Block& block) {
  std::uint64_t h = 0xb10c;
  for (const auto& s : block.stmts) h = hash_combine(h, hash_stmt(*s));
  return h;
}

}  // namespace

std::uint64_t Program::fingerprint() const {
  std::uint64_t h = fnv1a64(name_);
  for (const auto& d : vars_) {
    h = hash_combine(h, fnv1a64(d.name));
    h = hash_combine(h, static_cast<std::uint64_t>(d.kind));
    h = hash_combine(h, static_cast<std::uint64_t>(d.width));
    h = hash_combine(h, static_cast<std::uint64_t>(d.array_size));
  }
  // The parameter list (order included) shapes the emitted compute()
  // signature and main()'s argv parsing, and comp selects the accumulator —
  // both must invalidate cached results when they change.
  h = hash_combine(h, params_.size());
  for (VarId id : params_) h = hash_combine(h, id + 1);
  h = hash_combine(h, comp_ == kInvalidVar ? 0 : comp_ + 1);
  return hash_combine(h, hash_block(body_));
}

void Program::validate() const {
  OMPFUZZ_CHECK(comp_ != kInvalidVar, "program has no comp variable");
  OMPFUZZ_CHECK(comp_ < vars_.size(), "comp id out of range");
  OMPFUZZ_CHECK(vars_[comp_].kind == VarKind::FpScalar, "comp must be an fp scalar");
  OMPFUZZ_CHECK(vars_[comp_].role == VarRole::Comp, "comp must have Comp role");

  const auto check_expr = [this](const Expr& e) {
    e.walk([this](const Expr& node) {
      switch (node.kind()) {
        case Expr::Kind::VarRef: {
          const VarDecl& d = var(node.var_id());
          OMPFUZZ_CHECK(d.kind != VarKind::FpArray,
                        "array used as scalar: " + d.name);
          break;
        }
        case Expr::Kind::ArrayRef: {
          const VarDecl& d = var(node.var_id());
          OMPFUZZ_CHECK(d.kind == VarKind::FpArray,
                        "scalar subscripted: " + d.name);
          break;
        }
        default:
          break;
      }
    });
  };

  walk_stmts(body_, [&](const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        const VarDecl& d = var(s.target.var);
        OMPFUZZ_CHECK(d.role != VarRole::LoopIndex,
                      "assignment to loop index: " + d.name);
        if (s.target.is_array_element()) {
          OMPFUZZ_CHECK(d.kind == VarKind::FpArray,
                        "subscripted assignment to scalar: " + d.name);
          check_expr(*s.target.index);
        } else {
          OMPFUZZ_CHECK(d.kind == VarKind::FpScalar || d.kind == VarKind::IntScalar,
                        "scalar assignment to array: " + d.name);
        }
        check_expr(*s.value);
        break;
      }
      case Stmt::Kind::Decl: {
        const VarDecl& d = var(s.target.var);
        OMPFUZZ_CHECK(d.role == VarRole::Temp, "decl of non-temp: " + d.name);
        check_expr(*s.value);
        break;
      }
      case Stmt::Kind::If: {
        OMPFUZZ_CHECK(s.cond.lhs != kInvalidVar && s.cond.rhs != nullptr,
                      "incomplete if condition");
        const VarDecl& d = var(s.cond.lhs);
        OMPFUZZ_CHECK(d.kind != VarKind::FpArray, "if guard on array: " + d.name);
        check_expr(*s.cond.rhs);
        break;
      }
      case Stmt::Kind::For: {
        const VarDecl& d = var(s.loop_var);
        OMPFUZZ_CHECK(d.kind == VarKind::IntScalar && d.role == VarRole::LoopIndex,
                      "loop var must be an int loop index: " + d.name);
        const auto k = s.loop_bound->kind();
        OMPFUZZ_CHECK(k == Expr::Kind::IntConst || k == Expr::Kind::VarRef,
                      "loop bound must be a constant or an int variable");
        if (k == Expr::Kind::VarRef) {
          OMPFUZZ_CHECK(var(s.loop_bound->var_id()).kind == VarKind::IntScalar,
                        "loop bound variable must be int");
        }
        break;
      }
      case Stmt::Kind::OmpParallel: {
        for (VarId v : s.clauses.privates) {
          OMPFUZZ_CHECK(v < vars_.size(), "private clause var out of range");
          OMPFUZZ_CHECK(v != comp_, "comp must not be private");
        }
        for (VarId v : s.clauses.firstprivates) {
          OMPFUZZ_CHECK(v < vars_.size(), "firstprivate clause var out of range");
          OMPFUZZ_CHECK(v != comp_, "comp must not be firstprivate");
        }
        break;
      }
      case Stmt::Kind::OmpAtomic: {
        const VarDecl& d = var(s.target.var);
        OMPFUZZ_CHECK(d.role != VarRole::LoopIndex,
                      "atomic update of loop index: " + d.name);
        if (s.target.is_array_element()) {
          OMPFUZZ_CHECK(d.kind == VarKind::FpArray,
                        "subscripted atomic on scalar: " + d.name);
          check_expr(*s.target.index);
        } else {
          OMPFUZZ_CHECK(d.kind == VarKind::FpScalar,
                        "atomic scalar target must be an fp scalar: " + d.name);
        }
        check_expr(*s.value);
        break;
      }
      case Stmt::Kind::OmpCritical:
      case Stmt::Kind::OmpSingle:
      case Stmt::Kind::OmpMaster:
        break;
    }
  });
}

PruneResult prune_unused_vars(const Program& program) {
  const std::size_t n = program.var_count();
  std::vector<char> used(n, 0);
  used[program.comp()] = 1;  // validate() requires comp even if unassigned
  walk_stmts(program.body(), [&](const Stmt& s) {
    if (s.target.var != kInvalidVar) used[s.target.var] = 1;
    if (s.loop_var != kInvalidVar) used[s.loop_var] = 1;
    if (s.kind == Stmt::Kind::If) used[s.cond.lhs] = 1;
  });
  walk_exprs(program.body(), [&](const Expr& e) {
    if (e.kind() == Expr::Kind::VarRef || e.kind() == Expr::Kind::ArrayRef) {
      used[e.var_id()] = 1;
    }
  });

  PruneResult out;
  if (std::find(used.begin(), used.end(), 0) == used.end()) {
    out.program = program.clone();
    out.kept_params.resize(program.params().size());
    for (std::size_t i = 0; i < out.kept_params.size(); ++i) out.kept_params[i] = i;
    return out;
  }
  out.changed = true;

  std::vector<VarId> map(n, kInvalidVar);
  for (std::size_t id = 0; id < n; ++id) {
    if (used[id]) map[id] = out.program.add_var(program.var(static_cast<VarId>(id)));
  }
  for (std::size_t i = 0; i < program.params().size(); ++i) {
    const VarId id = program.params()[i];
    if (used[id]) {
      out.program.add_param(map[id]);
      out.kept_params.push_back(i);
    }
  }
  out.program.set_comp(map[program.comp()]);
  out.program.set_name(program.name());

  // clone_remap drops the clause entries of pruned variables: a clause is a
  // mention, not a use, so a variable only named there goes away with it.
  out.program.body() = program.body().clone_remap(map);
  return out;
}

ProgramFeatures analyze(const Program& program) {
  ProgramFeatures f;
  for (const auto& d : program.vars()) {
    if (d.kind == VarKind::FpArray) {
      ++f.num_arrays;
    } else if (d.kind == VarKind::FpScalar) {
      (d.width == FpWidth::F32 ? f.num_float_vars : f.num_double_vars) += 1;
    }
  }

  // Recursive walk tracking nesting depth and enclosing-construct context.
  std::function<void(const Block&, int, bool, bool)> visit =
      [&](const Block& block, int depth, bool in_serial_loop, bool in_omp_for) {
        f.max_nesting_depth = std::max(f.max_nesting_depth, depth);
        for (const auto& s : block.stmts) {
          switch (s->kind) {
            case Stmt::Kind::Assign:
            case Stmt::Kind::Decl:
              break;
            case Stmt::Kind::If:
              ++f.num_if_blocks;
              visit(s->body, depth + 1, in_serial_loop, in_omp_for);
              break;
            case Stmt::Kind::For: {
              if (s->omp_for) {
                ++f.num_omp_for_loops;
                if (s->schedule != ScheduleKind::None) ++f.num_scheduled_loops;
              } else {
                ++f.num_serial_loops;
              }
              if (s->loop_bound->kind() == Expr::Kind::IntConst) {
                f.static_loop_iterations += s->loop_bound->int_value();
              }
              visit(s->body, depth + 1, in_serial_loop || !s->omp_for,
                    in_omp_for || s->omp_for);
              break;
            }
            case Stmt::Kind::OmpParallel:
              ++f.num_parallel_regions;
              if (s->clauses.reduction) ++f.num_reductions;
              if (in_serial_loop) f.has_parallel_inside_serial_loop = true;
              // A region resets the serial-loop context for its body.
              visit(s->body, depth + 1, false, false);
              break;
            case Stmt::Kind::OmpCritical:
              ++f.num_critical_sections;
              if (in_omp_for) f.has_critical_in_parallel_loop = true;
              visit(s->body, depth + 1, in_serial_loop, in_omp_for);
              break;
            case Stmt::Kind::OmpAtomic:
              ++f.num_atomics;
              break;
            case Stmt::Kind::OmpSingle:
              ++f.num_singles;
              visit(s->body, depth + 1, in_serial_loop, in_omp_for);
              break;
            case Stmt::Kind::OmpMaster:
              ++f.num_masters;
              visit(s->body, depth + 1, in_serial_loop, in_omp_for);
              break;
          }
        }
      };
  visit(program.body(), 0, false, false);

  walk_exprs(program.body(), [&f](const Expr& e) {
    if (e.kind() == Expr::Kind::Call) ++f.num_math_calls;
  });
  return f;
}

}  // namespace ompfuzz::ast
