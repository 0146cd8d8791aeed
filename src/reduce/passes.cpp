#include "reduce/passes.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "analysis/race_analyzer.hpp"
#include "support/error.hpp"

namespace ompfuzz::reduce {

using ast::Block;
using ast::Expr;
using ast::ExprPtr;
using ast::Program;
using ast::Stmt;
using ast::StmtPtr;
using ast::VarId;

namespace {

// ------------------------------------------------------------ navigation ---

Block& block_at(Program& program, const StmtPath& path, std::size_t levels) {
  Block* block = &program.body();
  for (std::size_t d = 0; d < levels; ++d) {
    OMPFUZZ_CHECK(path[d] < block->stmts.size(), "stmt path out of range");
    block = &block->stmts[path[d]]->body;
  }
  return *block;
}

Stmt& stmt_at(Program& program, const StmtPath& path) {
  OMPFUZZ_CHECK(!path.empty(), "stmt path must not be empty");
  Block& parent = block_at(program, path, path.size() - 1);
  OMPFUZZ_CHECK(path.back() < parent.stmts.size(), "stmt path out of range");
  return *parent.stmts[path.back()];
}

/// Pre-order walk yielding each statement with its path.
void walk_paths(const Block& block, StmtPath& prefix,
                const std::function<void(const Stmt&, const StmtPath&)>& fn) {
  for (std::size_t i = 0; i < block.stmts.size(); ++i) {
    prefix.push_back(i);
    fn(*block.stmts[i], prefix);
    walk_paths(block.stmts[i]->body, prefix, fn);
    prefix.pop_back();
  }
}

void walk_paths(const Program& program,
                const std::function<void(const Stmt&, const StmtPath&)>& fn) {
  StmtPath prefix;
  walk_paths(program.body(), prefix, fn);
}

// ------------------------------------------------------- lexical scoping ---

void collect_expr_uses(const Expr& e, std::vector<VarId>& out) {
  e.walk([&out](const Expr& node) {
    if (node.kind() == Expr::Kind::VarRef || node.kind() == Expr::Kind::ArrayRef) {
      out.push_back(node.var_id());
    }
  });
}

/// Checks that every use of a temp or loop index is lexically inside the
/// scope of its declaration in the *emitted* C++ (Decl statements and for
/// headers declare; block ends un-declare). Program::validate() does not
/// check this — the generator satisfies it by construction, but statement
/// removal can strand a use behind a deleted Decl, which would emit
/// uncompilable code (and trip the interpreter).
bool scopes_ok(const Program& program) {
  std::vector<char> declared(program.var_count(), 0);
  for (std::size_t id = 0; id < program.var_count(); ++id) {
    const ast::VarRole role = program.var(static_cast<VarId>(id)).role;
    // Comp and params are declared by the emitted compute()/main(); temps
    // and loop indices only by their Decl statement / for header.
    declared[id] =
        role != ast::VarRole::Temp && role != ast::VarRole::LoopIndex ? 1 : 0;
  }

  const std::function<bool(const Block&)> block_ok = [&](const Block& block) {
    const std::vector<char> snapshot = declared;
    for (const StmtPtr& s : block.stmts) {
      std::vector<VarId> uses;
      switch (s->kind) {
        case Stmt::Kind::Assign:
          uses.push_back(s->target.var);
          if (s->target.index) collect_expr_uses(*s->target.index, uses);
          collect_expr_uses(*s->value, uses);
          break;
        case Stmt::Kind::Decl:
          collect_expr_uses(*s->value, uses);
          break;
        case Stmt::Kind::If:
          uses.push_back(s->cond.lhs);
          collect_expr_uses(*s->cond.rhs, uses);
          break;
        case Stmt::Kind::For:
          collect_expr_uses(*s->loop_bound, uses);
          break;
        case Stmt::Kind::OmpParallel:
          // Data-sharing clauses name the variable in the pragma: a use.
          uses.insert(uses.end(), s->clauses.privates.begin(),
                      s->clauses.privates.end());
          uses.insert(uses.end(), s->clauses.firstprivates.begin(),
                      s->clauses.firstprivates.end());
          break;
        case Stmt::Kind::OmpCritical:
          break;
        case Stmt::Kind::OmpAtomic:
          uses.push_back(s->target.var);
          if (s->target.index) collect_expr_uses(*s->target.index, uses);
          collect_expr_uses(*s->value, uses);
          break;
        case Stmt::Kind::OmpSingle:
        case Stmt::Kind::OmpMaster:
          break;
      }
      for (const VarId id : uses) {
        if (!declared[id]) {
          declared = snapshot;
          return false;
        }
      }
      bool ok = true;
      switch (s->kind) {
        case Stmt::Kind::Decl:
          declared[s->target.var] = 1;  // visible for the rest of this block
          break;
        case Stmt::Kind::For: {
          const char prev = declared[s->loop_var];
          declared[s->loop_var] = 1;
          ok = block_ok(s->body);
          declared[s->loop_var] = prev;
          break;
        }
        case Stmt::Kind::If:
        case Stmt::Kind::OmpParallel:
        case Stmt::Kind::OmpCritical:
        case Stmt::Kind::OmpSingle:
        case Stmt::Kind::OmpMaster:
          ok = block_ok(s->body);
          break;
        case Stmt::Kind::Assign:
        case Stmt::Kind::OmpAtomic:
          break;
      }
      if (!ok) {
        declared = snapshot;
        return false;
      }
    }
    declared = snapshot;
    return true;
  };
  return block_ok(program.body());
}

/// The interpreter supports one level of parallelism (as the generator
/// guarantees); a candidate must not create nested regions.
bool no_nested_parallel(const Program& program) {
  bool ok = true;
  const std::function<void(const Block&, bool)> visit = [&](const Block& block,
                                                            bool inside) {
    for (const StmtPtr& s : block.stmts) {
      if (s->kind == Stmt::Kind::OmpParallel) {
        if (inside) ok = false;
        visit(s->body, true);
      } else {
        visit(s->body, inside);
      }
    }
  };
  visit(program.body(), false);
  return ok;
}

// -------------------------------------------------------- candidate glue ---

Candidate make_candidate(Program program, const fp::InputSet& input,
                         std::string edit) {
  Candidate c;
  c.program = std::move(program);
  c.input = input;
  c.edit = std::move(edit);
  return c;
}

std::string path_text(const StmtPath& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += '.';
    out += std::to_string(path[i]);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- queries ---

bool structurally_valid(const Program& program) {
  try {
    program.validate();
  } catch (const Error&) {
    return false;
  }
  if (!scopes_ok(program)) return false;
  if (!no_nested_parallel(program)) return false;
  return analysis::analyze_races(program).race_free();
}

std::size_t max_stmt_depth(const Program& program) {
  std::size_t depth = 0;
  walk_paths(program, [&depth](const Stmt&, const StmtPath& path) {
    depth = std::max(depth, path.size());
  });
  return depth;
}

std::vector<StmtPath> paths_at_depth(const Program& program, std::size_t depth) {
  std::vector<StmtPath> out;
  walk_paths(program, [&out, depth](const Stmt&, const StmtPath& path) {
    if (path.size() == depth) out.push_back(path);
  });
  return out;
}

Program remove_paths(const Program& program, std::vector<StmtPath> remove) {
  Program out = program.clone();
  // Reverse lexicographic order: later siblings are erased first, so earlier
  // indices stay valid. (All paths share one depth, so none contains another.)
  std::sort(remove.begin(), remove.end(),
            [](const StmtPath& a, const StmtPath& b) { return b < a; });
  for (const StmtPath& path : remove) {
    Block& parent = block_at(out, path, path.size() - 1);
    OMPFUZZ_CHECK(path.back() < parent.stmts.size(), "stmt path out of range");
    parent.stmts.erase(parent.stmts.begin() +
                       static_cast<std::ptrdiff_t>(path.back()));
  }
  return out;
}

// ---------------------------------------------------------------- collapse ---

std::vector<Candidate> collapse_candidates(const Program& program,
                                           const fp::InputSet& input) {
  std::vector<Candidate> out;
  walk_paths(program, [&](const Stmt& s, const StmtPath& path) {
    // Atomics are leaf statements, not wrappers: collapsing one would just
    // delete it, which the depth-removal passes already cover.
    if (s.kind == Stmt::Kind::Assign || s.kind == Stmt::Kind::Decl ||
        s.kind == Stmt::Kind::OmpAtomic) {
      return;
    }
    Program candidate = program.clone();
    Block& parent = block_at(candidate, path, path.size() - 1);
    const std::size_t i = path.back();
    Block body = std::move(parent.stmts[i]->body);
    parent.stmts.erase(parent.stmts.begin() + static_cast<std::ptrdiff_t>(i));
    parent.stmts.insert(parent.stmts.begin() + static_cast<std::ptrdiff_t>(i),
                        std::make_move_iterator(body.stmts.begin()),
                        std::make_move_iterator(body.stmts.end()));
    out.push_back(make_candidate(std::move(candidate), input,
                                 "collapse " + path_text(path)));
  });
  return out;
}

// ----------------------------------------------------------------- clauses ---

std::vector<Candidate> clause_candidates(const Program& program,
                                         const fp::InputSet& input) {
  std::vector<Candidate> out;
  walk_paths(program, [&](const Stmt& s, const StmtPath& path) {
    if (s.kind == Stmt::Kind::For && s.omp_for) {
      if (s.schedule != ast::ScheduleKind::None) {
        // Drop the schedule clause first — a smaller pragma that keeps the
        // work-sharing semantics.
        Program candidate = program.clone();
        Stmt& loop = stmt_at(candidate, path);
        loop.schedule = ast::ScheduleKind::None;
        loop.schedule_chunk = 0;
        out.push_back(make_candidate(std::move(candidate), input,
                                     "drop schedule " + path_text(path)));
      }
      Program candidate = program.clone();
      Stmt& loop = stmt_at(candidate, path);
      loop.omp_for = false;
      loop.schedule = ast::ScheduleKind::None;
      loop.schedule_chunk = 0;
      out.push_back(make_candidate(std::move(candidate), input,
                                   "drop omp-for " + path_text(path)));
    }
    if (s.kind == Stmt::Kind::OmpAtomic) {
      // Demote to a plain assignment; structurally_valid re-runs the race
      // checker, so the candidate survives only where the atomicity was
      // not load-bearing.
      Program candidate = program.clone();
      stmt_at(candidate, path).kind = Stmt::Kind::Assign;
      out.push_back(make_candidate(std::move(candidate), input,
                                   "demote atomic " + path_text(path)));
    }
    if (s.kind != Stmt::Kind::OmpParallel) return;
    for (std::size_t k = 0; k < s.clauses.privates.size(); ++k) {
      Program candidate = program.clone();
      auto& privates = stmt_at(candidate, path).clauses.privates;
      privates.erase(privates.begin() + static_cast<std::ptrdiff_t>(k));
      out.push_back(make_candidate(std::move(candidate), input,
                                   "drop private " + path_text(path)));
    }
    for (std::size_t k = 0; k < s.clauses.firstprivates.size(); ++k) {
      Program candidate = program.clone();
      auto& firstprivates = stmt_at(candidate, path).clauses.firstprivates;
      firstprivates.erase(firstprivates.begin() +
                          static_cast<std::ptrdiff_t>(k));
      out.push_back(make_candidate(std::move(candidate), input,
                                   "drop firstprivate " + path_text(path)));
    }
    if (s.clauses.reduction) {
      Program candidate = program.clone();
      stmt_at(candidate, path).clauses.reduction.reset();
      out.push_back(make_candidate(std::move(candidate), input,
                                   "drop reduction " + path_text(path)));
    }
  });
  return out;
}

// ------------------------------------------------------------- expressions ---

namespace {

double apply_math_fold(ast::MathFunc func, double x) {
  switch (func) {
    case ast::MathFunc::Sin: return std::sin(x);
    case ast::MathFunc::Cos: return std::cos(x);
    case ast::MathFunc::Tan: return std::tan(x);
    case ast::MathFunc::Exp: return std::exp(x);
    case ast::MathFunc::Log: return std::log(x);
    case ast::MathFunc::Sqrt: return std::sqrt(x);
    case ast::MathFunc::Fabs: return std::fabs(x);
    case ast::MathFunc::Floor: return std::floor(x);
    case ast::MathFunc::Ceil: return std::ceil(x);
    case ast::MathFunc::Atan: return std::atan(x);
  }
  return x;
}

/// One proposed replacement of pre-order node `node_index` within a site.
struct ExprProposal {
  std::size_t node_index = 0;
  ExprPtr replacement;
  const char* what = "";
};

/// Enumerates shrinking replacements over a site's expression tree in
/// pre-order. Subscript subtrees get the whole-index->0 pin plus the full
/// set of partial edits: an edit that pushes a subscript out of bounds is
/// caught by the oracle's value-range gate before any child is spawned
/// (see OracleOptions), so unsafe candidates classify untrusted
/// without executing — and never as UB in emitted C++.
void enumerate_proposals(const Expr& e, std::size_t& counter,
                         std::vector<ExprProposal>& out) {
  const std::size_t me = counter++;
  switch (e.kind()) {
    case Expr::Kind::FpConst:
    case Expr::Kind::IntConst:
    case Expr::Kind::VarRef:
      break;
    case Expr::Kind::ThreadId:
      out.push_back({me, Expr::int_const(0), "thread-id->0"});
      break;
    case Expr::Kind::ArrayRef: {
      const std::size_t index_node = counter;
      if (e.index().kind() != Expr::Kind::IntConst ||
          e.index().int_value() != 0) {
        out.push_back({index_node, Expr::int_const(0), "index->0"});
      }
      // Recursing advances `counter` by the index subtree size, keeping
      // pre-order numbering aligned with rebuild_with.
      enumerate_proposals(e.index(), counter, out);
      break;
    }
    case Expr::Kind::Binary: {
      const Expr& lhs = e.lhs();
      const Expr& rhs = e.rhs();
      if (lhs.kind() == Expr::Kind::FpConst &&
          rhs.kind() == Expr::Kind::FpConst &&
          lhs.fp_width() == ast::FpWidth::F64 &&
          rhs.fp_width() == ast::FpWidth::F64 && e.bin_op() != ast::BinOp::Mod) {
        // Constant fold in double, exactly as the emitted code computes
        // (fp literals are always double; see emit/codegen.hpp).
        const double a = lhs.fp_value();
        const double b = rhs.fp_value();
        double v = 0.0;
        switch (e.bin_op()) {
          case ast::BinOp::Add: v = a + b; break;
          case ast::BinOp::Sub: v = a - b; break;
          case ast::BinOp::Mul: v = a * b; break;
          case ast::BinOp::Div: v = a / b; break;
          case ast::BinOp::Mod: break;  // excluded above
        }
        out.push_back({me, Expr::fp_const(v), "fold"});
      }
      if (lhs.kind() == Expr::Kind::IntConst &&
          rhs.kind() == Expr::Kind::IntConst) {
        const std::int64_t a = lhs.int_value();
        const std::int64_t b = rhs.int_value();
        bool foldable = true;
        std::int64_t v = 0;
        switch (e.bin_op()) {
          case ast::BinOp::Add: v = a + b; break;
          case ast::BinOp::Sub: v = a - b; break;
          case ast::BinOp::Mul: v = a * b; break;
          case ast::BinOp::Div:
            foldable = b != 0;
            if (foldable) v = a / b;
            break;
          case ast::BinOp::Mod:
            foldable = b != 0;
            if (foldable) v = a % b;
            break;
        }
        if (foldable) out.push_back({me, Expr::int_const(v), "fold"});
      }
      out.push_back({me, lhs.clone(), "binary->lhs"});
      out.push_back({me, rhs.clone(), "binary->rhs"});
      enumerate_proposals(lhs, counter, out);
      enumerate_proposals(rhs, counter, out);
      break;
    }
    case Expr::Kind::Call: {
      const Expr& arg = e.arg();
      if (arg.kind() == Expr::Kind::FpConst &&
          arg.fp_width() == ast::FpWidth::F64) {
        // Math calls always compute in double (C semantics).
        out.push_back(
            {me, Expr::fp_const(apply_math_fold(e.func(), arg.fp_value())),
             "fold-call"});
      }
      out.push_back({me, arg.clone(), "call->arg"});
      enumerate_proposals(arg, counter, out);
      break;
    }
  }
}

/// Rebuilds `e` with pre-order node `target` replaced by `replacement`.
/// Numbering matches enumerate_proposals (node, then children left to
/// right, index subtrees counted).
ExprPtr rebuild_with(const Expr& e, std::size_t target, std::size_t& counter,
                     ExprPtr& replacement) {
  const std::size_t me = counter++;
  if (me == target) {
    OMPFUZZ_CHECK(replacement != nullptr, "expr proposal consumed twice");
    return std::move(replacement);
  }
  switch (e.kind()) {
    case Expr::Kind::FpConst:
    case Expr::Kind::IntConst:
    case Expr::Kind::VarRef:
    case Expr::Kind::ThreadId:
      return e.clone();
    case Expr::Kind::ArrayRef: {
      ExprPtr index = rebuild_with(e.index(), target, counter, replacement);
      return Expr::array(e.var_id(), std::move(index));
    }
    case Expr::Kind::Binary: {
      ExprPtr lhs = rebuild_with(e.lhs(), target, counter, replacement);
      ExprPtr rhs = rebuild_with(e.rhs(), target, counter, replacement);
      return Expr::binary(e.bin_op(), std::move(lhs), std::move(rhs),
                          e.parenthesized());
    }
    case Expr::Kind::Call: {
      ExprPtr arg = rebuild_with(e.arg(), target, counter, replacement);
      return Expr::call(e.func(), std::move(arg));
    }
  }
  throw Error("unreachable expr kind in rebuild_with");
}

/// Expression sites of one statement that expression candidates may edit.
enum class ExprSiteKind { AssignValue, TargetIndex, CondRhs };

ExprPtr& site_ref(Stmt& s, ExprSiteKind site) {
  switch (site) {
    case ExprSiteKind::AssignValue: return s.value;
    case ExprSiteKind::TargetIndex: return s.target.index;
    case ExprSiteKind::CondRhs: return s.cond.rhs;
  }
  throw Error("unreachable expr site");
}

}  // namespace

std::vector<Candidate> expr_candidates(const Program& program,
                                       const fp::InputSet& input) {
  std::vector<Candidate> out;

  const auto propose_site = [&](const StmtPath& path, ExprSiteKind site,
                                const Expr& root, bool whole_tree_is_index) {
    std::vector<ExprProposal> proposals;
    std::size_t counter = 0;
    if (whole_tree_is_index) {
      // The site *is* a subscript (an lvalue's index): pin it to 0, then
      // enumerate partial edits like any other tree — the oracle's
      // value-range gate rejects any edit that could leave bounds.
      if (root.kind() != Expr::Kind::IntConst || root.int_value() != 0) {
        proposals.push_back({0, Expr::int_const(0), "index->0"});
      }
      enumerate_proposals(root, counter, proposals);
    } else {
      enumerate_proposals(root, counter, proposals);
    }
    for (ExprProposal& proposal : proposals) {
      Program candidate = program.clone();
      Stmt& stmt = stmt_at(candidate, path);
      ExprPtr& ref = site_ref(stmt, site);
      std::size_t rebuild_counter = 0;
      if (proposal.node_index == 0) {
        // Root replacement of the site (always the case for subscripts).
        ref = std::move(proposal.replacement);
      } else {
        ref = rebuild_with(root, proposal.node_index, rebuild_counter,
                           proposal.replacement);
      }
      out.push_back(make_candidate(std::move(candidate), input,
                                   std::string(proposal.what) + " " +
                                       path_text(path)));
    }
  };

  walk_paths(program, [&](const Stmt& s, const StmtPath& path) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        if (s.target.index) {
          propose_site(path, ExprSiteKind::TargetIndex, *s.target.index, true);
        }
        propose_site(path, ExprSiteKind::AssignValue, *s.value, false);
        break;
      case Stmt::Kind::Decl:
        propose_site(path, ExprSiteKind::AssignValue, *s.value, false);
        break;
      case Stmt::Kind::If:
        propose_site(path, ExprSiteKind::CondRhs, *s.cond.rhs, false);
        break;
      case Stmt::Kind::For: {
        // Loop bounds are atomic (IntConst or VarRef, by validate()); the
        // only shrink is pinning to a single iteration.
        const bool already_one = s.loop_bound->kind() == Expr::Kind::IntConst &&
                                 s.loop_bound->int_value() <= 1;
        if (!already_one) {
          Program candidate = program.clone();
          stmt_at(candidate, path).loop_bound = Expr::int_const(1);
          out.push_back(make_candidate(std::move(candidate), input,
                                       "bound->1 " + path_text(path)));
        }
        break;
      }
      case Stmt::Kind::OmpAtomic:
        if (s.target.index) {
          propose_site(path, ExprSiteKind::TargetIndex, *s.target.index, true);
        }
        propose_site(path, ExprSiteKind::AssignValue, *s.value, false);
        break;
      case Stmt::Kind::OmpParallel:
      case Stmt::Kind::OmpCritical:
      case Stmt::Kind::OmpSingle:
      case Stmt::Kind::OmpMaster:
        break;
    }
  });
  return out;
}

// ------------------------------------------------------------------ prune ---

std::optional<Candidate> prune_candidate(const Program& program,
                                         const fp::InputSet& input) {
  ast::PruneResult pruned = ast::prune_unused_vars(program);
  if (!pruned.changed) return std::nullopt;
  // kept_params entries index the original parameter list, so the input
  // must match the original signature exactly.
  OMPFUZZ_CHECK(input.values.size() == program.params().size(),
                "input does not match the program signature");
  Candidate c;
  c.program = std::move(pruned.program);
  for (const std::size_t original : pruned.kept_params) {
    c.input.values.push_back(input.values[original]);
  }
  c.edit = "prune unused vars";
  return c;
}

}  // namespace ompfuzz::reduce
