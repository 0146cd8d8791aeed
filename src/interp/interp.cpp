#include "interp/interp.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "fp/fp_class.hpp"
#include "support/error.hpp"

namespace ompfuzz::interp {

double apply_math(ast::MathFunc f, double x) noexcept {
  using ast::MathFunc;
  switch (f) {
    case MathFunc::Sin: return std::sin(x);
    case MathFunc::Cos: return std::cos(x);
    case MathFunc::Tan: return std::tan(x);
    case MathFunc::Exp: return std::exp(x);
    case MathFunc::Log: return std::log(x);
    case MathFunc::Sqrt: return std::sqrt(x);
    case MathFunc::Fabs: return std::fabs(x);
    case MathFunc::Floor: return std::floor(x);
    case MathFunc::Ceil: return std::ceil(x);
    case MathFunc::Atan: return std::atan(x);
  }
  return x;
}

namespace {

using ast::AssignOp;
using ast::BinOp;
using ast::Block;
using ast::Expr;
using ast::FpWidth;
using ast::Program;
using ast::ReductionOp;
using ast::Stmt;
using ast::VarDecl;
using ast::VarId;
using ast::VarKind;

/// Internal signal for budget exhaustion; converted to a result flag.
struct BudgetExceeded {};

template <typename T>
T apply_bin(BinOp op, T a, T b) noexcept {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div: return a / b;
    case BinOp::Mod: return a;  // never reached for fp (checked by caller)
  }
  return a;
}

/// One tree-walking interpreter, instantiated twice: kObserved = true feeds
/// the access and value traces (whichever of them is set), false compiles
/// every observer hook away. execute() picks the instantiation once per run.
template <bool kObserved>
class Engine {
 public:
  Engine(const Program& program, const fp::InputSet& input,
         const InterpOptions& options)
      : prog_(program), decls_(program.vars()), opt_(options) {
    const std::size_t n = program.var_count();
    globals_.assign(n, Value{});
    arrays_.assign(n, {});
    if (kObserved && opt_.values != nullptr) opt_.values->reset(n);
    bind_inputs(input);
  }

  InterpResult run() {
    InterpResult result;
    try {
      exec_block(prog_.body());
      result.ok = true;
    } catch (const BudgetExceeded&) {
      // The unwind may have skipped exec_parallel's epilogue; frame_ would
      // dangle into the unwound stack frame.
      frame_ = nullptr;
      result.over_budget = true;
    }
    result.comp = globals_[prog_.comp()].as_double();
    result.events = ev_;
    result.steps = steps_;
    return result;
  }

 private:
  // -- storage -----------------------------------------------------------------
  struct Frame {
    std::vector<std::uint8_t> is_private;  ///< per VarId
    std::vector<Value> locals;             ///< per VarId
    int tid = 0;
    int team_size = 1;
  };

  void bind_inputs(const fp::InputSet& input) {
    const auto params = prog_.params();
    OMPFUZZ_CHECK(input.values.size() == params.size(),
                  "input arity does not match program signature");
    for (std::size_t k = 0; k < params.size(); ++k) {
      const VarId id = params[k];
      const VarDecl& decl = decls_[id];
      const auto& v = input.values[k];
      switch (decl.kind) {
        case VarKind::IntScalar:
          globals_[id] = Value::make_int(v.int_value);
          note_value(id, globals_[id]);
          break;
        case VarKind::FpScalar:
          globals_[id] = decl.width == FpWidth::F32
                             ? Value::make_f32(flush32(static_cast<float>(v.fp_value)))
                             : Value::make_f64(flush64(v.fp_value));
          break;
        case VarKind::FpArray: {
          const double fill = decl.width == FpWidth::F32
                                  ? static_cast<double>(flush32(static_cast<float>(v.fp_value)))
                                  : flush64(v.fp_value);
          arrays_[id].assign(static_cast<std::size_t>(decl.array_size), fill);
          break;
        }
      }
    }
    globals_[prog_.comp()] = Value::make_f64(0.0);
  }

  // -- fp semantics -------------------------------------------------------------
  [[nodiscard]] double flush64(double v) const noexcept {
    if (opt_.fp.flush_subnormals && fp::is_subnormal(v)) {
      return std::signbit(v) ? -0.0 : 0.0;
    }
    return v;
  }
  [[nodiscard]] float flush32(float v) const noexcept {
    if (opt_.fp.flush_subnormals && fp::is_subnormal(v)) {
      return std::signbit(v) ? -0.0f : 0.0f;
    }
    return v;
  }

  // -- budget ---------------------------------------------------------------------
  void step() {
    if (++steps_ > opt_.max_steps) throw BudgetExceeded{};
  }

  // -- variable access --------------------------------------------------------------
  [[nodiscard]] bool frame_private(VarId id) const {
    return frame_ != nullptr && frame_->is_private[id] != 0;
  }

  /// Feeds the observed-value trace: every integer value a scalar is bound
  /// to (fp bindings carry no range information and are skipped).
  void note_value(VarId id, const Value& v) {
    if constexpr (kObserved) {
      if (opt_.values != nullptr && v.tag() == Value::Tag::Int) {
        opt_.values->scalars[id].note(v.as_int());
      }
    }
  }

  /// Appends to the shared-access trace (trace.hpp); a no-op outside
  /// parallel regions or when tracing is off.
  void record_access(VarId id, std::int32_t elem, bool is_write,
                     bool is_atomic = false) {
    if constexpr (kObserved) {
      if (opt_.trace == nullptr || frame_ == nullptr) return;
      opt_.trace->accesses.push_back({trace_region_, trace_phase_, id, elem,
                                      static_cast<std::uint16_t>(frame_->tid),
                                      is_write, in_critical_, is_atomic});
    }
  }

  Value read_scalar(VarId id) {
    ++ev_.scalar_loads;
    if (frame_private(id)) return frame_->locals[id];
    record_access(id, /*elem=*/-1, /*is_write=*/false);
    return globals_[id];
  }

  void write_scalar(VarId id, Value v) {
    ++ev_.scalar_stores;
    note_value(id, v);
    if (frame_private(id)) {
      frame_->locals[id] = v;
    } else {
      record_access(id, /*elem=*/-1, /*is_write=*/true);
      globals_[id] = v;
    }
  }

  /// Marks a variable thread-private from this point on (Decl / loop index
  /// inside a region).
  void make_frame_local(VarId id, Value v) {
    note_value(id, v);
    if (frame_ != nullptr) {
      frame_->is_private[id] = 1;
      frame_->locals[id] = v;
    } else {
      globals_[id] = v;
    }
  }

  std::vector<double>& array_storage(VarId id) {
    auto& storage = arrays_[id];
    OMPFUZZ_CHECK(!storage.empty(), "array never bound: " + decls_[id].name);
    return storage;
  }

  std::size_t eval_index(const Expr& idx, VarId array, int array_size) {
    const Value v = eval(idx);
    const std::int64_t raw = v.as_int();
    // Observed before the bounds check: a subscript that is about to abort
    // the run is exactly the observation the soundness sweep must not miss.
    if (kObserved && opt_.values != nullptr) {
      opt_.values->subscripts[array].note(raw);
    }
    if (raw < 0 || raw >= array_size) {
      throw InterpError("array subscript out of bounds: " + std::to_string(raw) +
                        " (size " + std::to_string(array_size) + ")");
    }
    return static_cast<std::size_t>(raw);
  }

  // -- expression evaluation -----------------------------------------------------------
  Value eval(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::FpConst:
        return Value::make_f64(e.fp_value());
      case Expr::Kind::IntConst:
        return Value::make_int(e.int_value());
      case Expr::Kind::VarRef:
        return read_scalar(e.var_id());
      case Expr::Kind::ArrayRef: {
        const VarDecl& decl = decls_[e.var_id()];
        const std::size_t i = eval_index(e.index(), e.var_id(), decl.array_size);
        ++ev_.array_loads;
        record_access(e.var_id(), static_cast<std::int32_t>(i),
                      /*is_write=*/false);
        const double stored = array_storage(e.var_id())[i];
        return decl.width == FpWidth::F32
                   ? Value::make_f32(static_cast<float>(stored))
                   : Value::make_f64(stored);
      }
      case Expr::Kind::ThreadId:
        return Value::make_int(frame_ != nullptr ? frame_->tid : 0);
      case Expr::Kind::Binary:
        return eval_binary(e);
      case Expr::Kind::Call: {
        const double arg = eval(e.arg()).as_double();
        ++ev_.math_calls;
        return Value::make_f64(flush64(apply_math(e.func(), arg)));
      }
    }
    throw InterpError("unreachable expr kind");
  }

  Value eval_binary(const Expr& e) {
    const BinOp op = e.bin_op();
    if (op == BinOp::Mod) {
      const std::int64_t a = eval(e.lhs()).as_int();
      const std::int64_t b = eval(e.rhs()).as_int();
      if (b == 0) throw InterpError("modulo by zero");
      ++ev_.int_ops;
      return Value::make_int(a % b);
    }
    // FMA contraction (Intel-style -fp-model fast): (x * y) +/- z evaluated
    // with a single rounding. Only double chains contract; the event stream
    // still records both the multiply and the add.
    if (opt_.fp.contract_fma && (op == BinOp::Add || op == BinOp::Sub) &&
        e.lhs().kind() == Expr::Kind::Binary &&
        e.lhs().bin_op() == BinOp::Mul) {
      const Value x = eval(e.lhs().lhs());
      const Value y = eval(e.lhs().rhs());
      const Value z = eval(e.rhs());
      const bool all_float = x.tag() == Value::Tag::F32 &&
                             y.tag() == Value::Tag::F32 &&
                             z.tag() == Value::Tag::F32;
      ++ev_.fp_mul;
      ++ev_.fp_add_sub;
      if (all_float) {
        const float r = std::fmaf(x.f32(), y.f32(),
                                  op == BinOp::Add ? z.f32() : -z.f32());
        return Value::make_f32(flush32(r));
      }
      const double r = std::fma(x.as_double(), y.as_double(),
                                op == BinOp::Add ? z.as_double() : -z.as_double());
      return Value::make_f64(flush64(r));
    }
    const Value a = eval(e.lhs());
    const Value b = eval(e.rhs());
    switch (op) {
      case BinOp::Add:
      case BinOp::Sub: ++ev_.fp_add_sub; break;
      case BinOp::Mul: ++ev_.fp_mul; break;
      case BinOp::Div: ++ev_.fp_div; break;
      case BinOp::Mod: break;
    }
    // C++ usual arithmetic conversions: float only if both sides are float.
    if (a.tag() == Value::Tag::F32 && b.tag() == Value::Tag::F32) {
      const float af = a.f32();
      const float bf = b.f32();
      const float r = flush32(apply_bin<float>(op, af, bf));
      if (fp::is_subnormal(af) || fp::is_subnormal(bf) || fp::is_subnormal(r)) {
        ++ev_.subnormal_fp_ops;
      }
      return Value::make_f32(r);
    }
    const double ad = a.as_double();
    const double bd = b.as_double();
    const double r = flush64(apply_bin<double>(op, ad, bd));
    if (fp::is_subnormal(ad) || fp::is_subnormal(bd) || fp::is_subnormal(r)) {
      ++ev_.subnormal_fp_ops;
    }
    return Value::make_f64(r);
  }

  bool eval_bool(const ast::BoolExpr& b) {
    const double lhs = read_scalar(b.lhs).as_double();
    const double rhs = eval(*b.rhs).as_double();
    ++ev_.branches;
    switch (b.op) {
      case ast::BoolOp::Lt: return lhs < rhs;
      case ast::BoolOp::Gt: return lhs > rhs;
      case ast::BoolOp::Eq: return lhs == rhs;
      case ast::BoolOp::Ne: return lhs != rhs;
      case ast::BoolOp::Ge: return lhs >= rhs;
      case ast::BoolOp::Le: return lhs <= rhs;
    }
    return false;
  }

  // -- assignment ------------------------------------------------------------------------
  template <typename T>
  [[nodiscard]] static T combine(AssignOp op, T old_value, T rhs) noexcept {
    switch (op) {
      case AssignOp::Assign: return rhs;
      case AssignOp::AddAssign: return old_value + rhs;
      case AssignOp::SubAssign: return old_value - rhs;
      case AssignOp::MulAssign: return old_value * rhs;
      case AssignOp::DivAssign: return old_value / rhs;
    }
    return rhs;
  }

  /// `target op= rhs` with C++ compound-assignment typing: the computation
  /// runs in float only when both the target and the rhs expression are
  /// float; otherwise in double with a narrowing store for float targets.
  [[nodiscard]] float combine_f32(AssignOp op, float old_value, Value rhs) const {
    if (rhs.tag() == Value::Tag::F32) {
      return flush32(combine<float>(op, old_value, rhs.f32()));
    }
    return flush32(static_cast<float>(
        combine<double>(op, static_cast<double>(old_value), rhs.as_double())));
  }

  void exec_assign(const Stmt& s) {
    const VarDecl& decl = decls_[s.target.var];
    if (s.target.is_array_element()) {
      const std::size_t i =
          eval_index(*s.target.index, s.target.var, decl.array_size);
      auto& storage = array_storage(s.target.var);
      const Value rhs = eval(*s.value);
      double result;
      if (decl.width == FpWidth::F32) {
        const float old_value =
            s.assign_op == AssignOp::Assign ? 0.0f : static_cast<float>(storage[i]);
        result = static_cast<double>(combine_f32(s.assign_op, old_value, rhs));
      } else {
        const double old_value = s.assign_op == AssignOp::Assign ? 0.0 : storage[i];
        result = flush64(combine<double>(s.assign_op, old_value, rhs.as_double()));
      }
      ++ev_.array_stores;
      record_access(s.target.var, static_cast<std::int32_t>(i),
                    /*is_write=*/true);
      storage[i] = result;
      return;
    }
    if (decl.kind == VarKind::IntScalar) {
      write_scalar(s.target.var, Value::make_int(eval(*s.value).as_int()));
      return;
    }
    const Value rhs = eval(*s.value);
    if (decl.width == FpWidth::F32) {
      const float old_value = s.assign_op == AssignOp::Assign
                                  ? 0.0f
                                  : read_scalar(s.target.var).f32();
      write_scalar(s.target.var,
                   Value::make_f32(combine_f32(s.assign_op, old_value, rhs)));
    } else {
      const double old_value = s.assign_op == AssignOp::Assign
                                   ? 0.0
                                   : read_scalar(s.target.var).as_double();
      write_scalar(s.target.var, Value::make_f64(flush64(combine<double>(
                                     s.assign_op, old_value, rhs.as_double()))));
    }
  }

  // -- statements -------------------------------------------------------------------------
  void exec_block(const Block& block) {
    for (const auto& s : block.stmts) exec_stmt(*s);
  }

  void exec_stmt(const Stmt& s) {
    step();
    if (in_critical_) ++ev_.critical_stmts;
    switch (s.kind) {
      case Stmt::Kind::Assign:
        exec_assign(s);
        break;
      case Stmt::Kind::Decl: {
        const VarDecl& decl = decls_[s.target.var];
        const double init = eval(*s.value).as_double();
        const Value v = decl.width == FpWidth::F32
                            ? Value::make_f32(flush32(static_cast<float>(init)))
                            : Value::make_f64(flush64(init));
        make_frame_local(s.target.var, v);
        ++ev_.scalar_stores;
        break;
      }
      case Stmt::Kind::If:
        if (eval_bool(s.cond)) exec_block(s.body);
        break;
      case Stmt::Kind::For:
        exec_for(s);
        break;
      case Stmt::Kind::OmpParallel:
        exec_parallel(s);
        break;
      case Stmt::Kind::OmpCritical: {
        ++ev_.critical_entries;
        const bool saved = in_critical_;
        in_critical_ = true;
        exec_block(s.body);
        in_critical_ = saved;
        break;
      }
      case Stmt::Kind::OmpAtomic:
        exec_atomic(s);
        break;
      case Stmt::Kind::OmpSingle: {
        if (frame_ == nullptr) {  // serial context: the one thread executes
          exec_block(s.body);
          break;
        }
        // Deterministic stand-in for "first thread to arrive": encounter k
        // within a region execution is taken by thread k mod team, rotating
        // the executor across blocks. Emitted nowait — no barrier, no phase
        // advance.
        const std::uint32_t k = single_counter_++;
        if (static_cast<int>(
                k % static_cast<std::uint32_t>(frame_->team_size)) ==
            frame_->tid) {
          exec_block(s.body);
        }
        break;
      }
      case Stmt::Kind::OmpMaster:
        if (frame_ == nullptr || frame_->tid == 0) exec_block(s.body);
        break;
    }
  }

  void exec_atomic(const Stmt& s) {
    const VarDecl& decl = decls_[s.target.var];
    if (s.target.is_array_element()) {
      const std::size_t i =
          eval_index(*s.target.index, s.target.var, decl.array_size);
      const Value rhs = eval(*s.value);
      auto& storage = array_storage(s.target.var);
      double result;
      if (decl.width == FpWidth::F32) {
        const float old_value = s.assign_op == AssignOp::Assign
                                    ? 0.0f
                                    : static_cast<float>(storage[i]);
        result = static_cast<double>(combine_f32(s.assign_op, old_value, rhs));
      } else {
        const double old_value =
            s.assign_op == AssignOp::Assign ? 0.0 : storage[i];
        result = flush64(combine<double>(s.assign_op, old_value, rhs.as_double()));
      }
      ++ev_.array_loads;
      ++ev_.array_stores;
      // One indivisible read-modify-write: a single atomic-classed access,
      // not a plain read plus a plain write.
      record_access(s.target.var, static_cast<std::int32_t>(i),
                    /*is_write=*/true, /*is_atomic=*/true);
      storage[i] = result;
      return;
    }
    const Value rhs = eval(*s.value);
    ++ev_.scalar_loads;
    ++ev_.scalar_stores;
    const VarId id = s.target.var;
    const auto update = [&](const Value& old_value) {
      if (decl.width == FpWidth::F32) {
        const float old_f =
            s.assign_op == AssignOp::Assign ? 0.0f : old_value.f32();
        return Value::make_f32(combine_f32(s.assign_op, old_f, rhs));
      }
      const double old_d =
          s.assign_op == AssignOp::Assign ? 0.0 : old_value.as_double();
      return Value::make_f64(
          flush64(combine<double>(s.assign_op, old_d, rhs.as_double())));
    };
    if (frame_private(id)) {  // atomic on a private copy degenerates
      frame_->locals[id] = update(frame_->locals[id]);
      return;
    }
    record_access(id, /*elem=*/-1, /*is_write=*/true, /*is_atomic=*/true);
    globals_[id] = update(globals_[id]);
  }

  void run_iters(const Stmt& s, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      step();
      ++ev_.loop_iterations;
      ++ev_.branches;  // loop condition check
      make_frame_local(s.loop_var, Value::make_int(i));
      exec_block(s.body);
    }
  }

  void exec_for(const Stmt& s) {
    const std::int64_t n = eval(*s.loop_bound).as_int();
    if (s.omp_for && frame_ != nullptr) {
      ++ev_.omp_for_loops;
      if (s.schedule == ast::ScheduleKind::None ||
          (s.schedule == ast::ScheduleKind::Static && s.schedule_chunk == 0)) {
        // Default partition: contiguous near-equal chunks.
        const IterRange r = static_chunk(n, frame_->team_size, frame_->tid);
        run_iters(s, r.begin, r.end);
      } else {
        // Round-robin chunks: models schedule(static, c) exactly and stands
        // in deterministically for schedule(dynamic[, c]) — every iteration
        // still runs on exactly one thread, which is all the race model and
        // the result's reproducibility need.
        const std::int64_t c = s.schedule_chunk > 0 ? s.schedule_chunk : 1;
        const auto team = static_cast<std::int64_t>(frame_->team_size);
        for (std::int64_t base = c * frame_->tid; base < n; base += c * team) {
          run_iters(s, base, std::min(base + c, n));
        }
      }
      ++ev_.barriers;  // this thread arriving at the work-shared loop barrier
      ++trace_phase_;
      return;
    }
    run_iters(s, 0, n);
  }

  void exec_parallel(const Stmt& s) {
    OMPFUZZ_CHECK(frame_ == nullptr, "nested parallel regions are not supported");
    ++ev_.parallel_regions;
    ++trace_region_;  // each execution of a region is its own trace instance
    const int team = opt_.num_threads_override > 0 ? opt_.num_threads_override
                                                   : s.clauses.num_threads;

    const VarId comp = prog_.comp();
    const bool has_reduction = s.clauses.reduction.has_value();
    std::vector<double> contributions;  // per-thread reduction contributions

    Frame frame;
    frame.is_private.assign(prog_.var_count(), 0);
    frame.locals.assign(prog_.var_count(), Value{});
    frame.team_size = team;

    for (int tid = 0; tid < team; ++tid) {
      ++ev_.thread_starts;
      // Rebuild the thread's private environment.
      std::fill(frame.is_private.begin(), frame.is_private.end(), 0);
      for (VarId v : s.clauses.privates) {
        frame.is_private[v] = 1;
        const VarDecl& d = decls_[v];
        frame.locals[v] = d.kind == VarKind::IntScalar ? Value::make_int(0)
                                                       : Value::zero_of(d.width);
        note_value(v, frame.locals[v]);
      }
      for (VarId v : s.clauses.firstprivates) {
        frame.is_private[v] = 1;
        frame.locals[v] = globals_[v];
      }
      if (has_reduction) {
        frame.is_private[comp] = 1;
        frame.locals[comp] = Value::make_f64(
            *s.clauses.reduction == ReductionOp::Sum ? 0.0 : 1.0);
      }
      frame.tid = tid;
      frame_ = &frame;
      trace_phase_ = 0;  // per-thread barrier count within this region
      single_counter_ = 0;  // per-thread single-encounter count
      exec_block(s.body);
      frame_ = nullptr;
      if (has_reduction) {
        ++ev_.reduction_combines;
        contributions.push_back(frame.locals[comp].as_double());
      }
    }
    if (has_reduction) {
      const bool is_sum = *s.clauses.reduction == ReductionOp::Sum;
      const auto combine2 = [&](double a, double b) {
        return flush64(is_sum ? a + b : a * b);
      };
      if (opt_.fp.reassociate_reductions) {
        // Pairwise tree combine, as a vectorized reduction produces.
        while (contributions.size() > 1) {
          std::vector<double> next;
          next.reserve((contributions.size() + 1) / 2);
          for (std::size_t k = 0; k + 1 < contributions.size(); k += 2) {
            next.push_back(combine2(contributions[k], contributions[k + 1]));
          }
          if (contributions.size() % 2 == 1) next.push_back(contributions.back());
          contributions.swap(next);
        }
      } else {
        // Thread-order left fold.
        for (std::size_t k = 1; k < contributions.size(); ++k) {
          contributions[0] = combine2(contributions[0], contributions[k]);
        }
        contributions.resize(1);
      }
      const double total = contributions.empty()
                               ? (is_sum ? 0.0 : 1.0)
                               : contributions[0];
      globals_[comp] =
          Value::make_f64(combine2(globals_[comp].as_double(), total));
    }
    // Implicit join barrier: one arrival per team member (ev_.barriers counts
    // arrivals so the cost models can charge per-thread synchronization).
    ev_.barriers += static_cast<std::uint64_t>(team);
  }

  const Program& prog_;
  std::span<const VarDecl> decls_;  ///< prog_'s symbol table, indexed by VarId
  const InterpOptions& opt_;
  std::vector<Value> globals_;
  std::vector<std::vector<double>> arrays_;
  Frame* frame_ = nullptr;
  bool in_critical_ = false;
  std::uint32_t trace_region_ = 0;  ///< parallel-region execution counter
  std::uint32_t trace_phase_ = 0;   ///< current thread's barrier count
  std::uint32_t single_counter_ = 0;  ///< single blocks this thread has met
  EventCounts ev_;
  std::uint64_t steps_ = 0;
};

}  // namespace

IterRange static_chunk(std::int64_t n, int num_threads, int tid) noexcept {
  if (n <= 0 || num_threads <= 0 || tid < 0 || tid >= num_threads) return {0, 0};
  const std::int64_t base = n / num_threads;
  const std::int64_t extra = n % num_threads;
  const std::int64_t begin =
      tid < extra ? tid * (base + 1) : extra * (base + 1) + (tid - extra) * base;
  const std::int64_t len = base + (tid < extra ? 1 : 0);
  return {begin, begin + len};
}

InterpResult execute(const ast::Program& program, const fp::InputSet& input,
                     const InterpOptions& options) {
  if (options.trace != nullptr || options.values != nullptr) {
    return Engine<true>(program, input, options).run();
  }
  return Engine<false>(program, input, options).run();
}

}  // namespace ompfuzz::interp
