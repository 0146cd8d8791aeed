#include "emit/codegen.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz::emit {

namespace {

using ast::AssignOp;
using ast::BinOp;
using ast::Block;
using ast::Expr;
using ast::FpWidth;
using ast::Program;
using ast::Stmt;
using ast::VarId;
using ast::VarKind;

class Emitter {
 public:
  Emitter(const Program& program, const EmitOptions& options)
      : prog_(program), opt_(options) {}

  std::string translation_unit() {
    line("// Auto-generated OpenMP differential test: " + prog_.name());
    if (!opt_.header_comment.empty()) {
      for (const auto& text : split(opt_.header_comment, '\n')) {
        line("// " + text);
      }
    }
    out_ += prelude();
    blank();
    emit_compute();
    if (opt_.include_main) {
      blank();
      emit_main();
    }
    return std::move(out_);
  }

  std::string expr_text(const Expr& e) { return expr(e); }

 private:
  // -- low-level writer -------------------------------------------------------
  void line(const std::string& text) {
    out_.append(static_cast<std::size_t>(indent_) *
                    static_cast<std::size_t>(opt_.indent_width),
                ' ');
    out_ += text;
    out_ += '\n';
  }
  void blank() { out_ += '\n'; }
  void open_brace() { line("{"); ++indent_; }
  void close_brace() { --indent_; line("}"); }

  // -- names ------------------------------------------------------------------
  const std::string& name(VarId id) const { return prog_.var(id).name; }

  static const char* width_keyword(FpWidth w) {
    return w == FpWidth::F32 ? "float" : "double";
  }

  static int precedence(BinOp op) {
    switch (op) {
      case BinOp::Mul:
      case BinOp::Div:
      case BinOp::Mod:
        return 5;
      case BinOp::Add:
      case BinOp::Sub:
        return 4;
    }
    return 0;
  }

  // -- expressions --------------------------------------------------------------
  std::string expr(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::FpConst:
        return emit_fp_literal(e.fp_value());
      case Expr::Kind::IntConst:
        return std::to_string(e.int_value());
      case Expr::Kind::VarRef:
        return name(e.var_id());
      case Expr::Kind::ArrayRef:
        return name(e.var_id()) + "[" + expr(e.index()) + "]";
      case Expr::Kind::ThreadId:
        return "omp_get_thread_num()";
      case Expr::Kind::Binary: {
        // Parenthesize children exactly where C++ precedence would otherwise
        // reassociate the tree: lower-precedence children always, and a
        // same-precedence right child (all our operators are left
        // associative). The grammar's explicit parentheses are kept on top.
        const int p = precedence(e.bin_op());
        std::string lhs = expr(e.lhs());
        if (e.lhs().kind() == Expr::Kind::Binary && !e.lhs().parenthesized() &&
            precedence(e.lhs().bin_op()) < p) {
          lhs = "(" + lhs + ")";
        }
        std::string rhs = expr(e.rhs());
        if (e.rhs().kind() == Expr::Kind::Binary && !e.rhs().parenthesized() &&
            precedence(e.rhs().bin_op()) <= p) {
          rhs = "(" + rhs + ")";
        }
        std::string text = lhs + " " + ast::to_string(e.bin_op()) + " " + rhs;
        if (e.parenthesized()) return "(" + text + ")";
        return text;
      }
      case Expr::Kind::Call:
        return std::string(ast::to_string(e.func())) + "(" + expr(e.arg()) + ")";
    }
    throw Error("unreachable expr kind in emitter");
  }

  std::string bool_expr(const ast::BoolExpr& b) {
    return name(b.lhs) + " " + ast::to_string(b.op) + " " + expr(*b.rhs);
  }

  // -- statements ----------------------------------------------------------------
  void stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        std::string target = name(s.target.var);
        if (s.target.is_array_element()) {
          target += "[" + expr(*s.target.index) + "]";
        }
        line(target + " " + ast::to_string(s.assign_op) + " " + expr(*s.value) + ";");
        break;
      }
      case Stmt::Kind::Decl: {
        const auto& d = prog_.var(s.target.var);
        line(std::string(width_keyword(d.width)) + " " + d.name + " = " +
             expr(*s.value) + ";");
        break;
      }
      case Stmt::Kind::If:
        line("if (" + bool_expr(s.cond) + ")");
        open_brace();
        block(s.body);
        close_brace();
        break;
      case Stmt::Kind::For: {
        if (s.omp_for) {
          std::string head = "#pragma omp for";
          if (s.schedule != ast::ScheduleKind::None) {
            head += s.schedule == ast::ScheduleKind::Static
                        ? " schedule(static"
                        : " schedule(dynamic";
            if (s.schedule_chunk > 0) {
              head += ", " + std::to_string(s.schedule_chunk);
            }
            head += ")";
          }
          line(head);
        }
        const std::string i = name(s.loop_var);
        line("for (int " + i + " = 0; " + i + " < " + expr(*s.loop_bound) +
             "; ++" + i + ")");
        open_brace();
        block(s.body);
        close_brace();
        break;
      }
      case Stmt::Kind::OmpParallel: {
        std::string head = "#pragma omp parallel default(shared)";
        if (!s.clauses.privates.empty()) {
          head += " private(" + name_list(s.clauses.privates) + ")";
        }
        if (!s.clauses.firstprivates.empty()) {
          head += " firstprivate(" + name_list(s.clauses.firstprivates) + ")";
        }
        if (s.clauses.reduction) {
          head += std::string(" reduction(") + ast::to_string(*s.clauses.reduction) +
                  ": comp)";
        }
        head += " num_threads(" + std::to_string(s.clauses.num_threads) + ")";
        line(head);
        open_brace();
        block(s.body);
        close_brace();
        break;
      }
      case Stmt::Kind::OmpCritical:
        line("#pragma omp critical");
        open_brace();
        block(s.body);
        close_brace();
        break;
      case Stmt::Kind::OmpAtomic: {
        // Update form for compound operators, "atomic write" for plain '='.
        line(s.assign_op == ast::AssignOp::Assign ? "#pragma omp atomic write"
                                                  : "#pragma omp atomic");
        std::string target = name(s.target.var);
        if (s.target.is_array_element()) {
          target += "[" + expr(*s.target.index) + "]";
        }
        line(target + " " + ast::to_string(s.assign_op) + " " + expr(*s.value) + ";");
        break;
      }
      case Stmt::Kind::OmpSingle:
        // nowait: the generated grammar never relies on single's implied
        // barrier, and the analyzer's phase model does not introduce one.
        line("#pragma omp single nowait");
        open_brace();
        block(s.body);
        close_brace();
        break;
      case Stmt::Kind::OmpMaster:
        line("#pragma omp master");
        open_brace();
        block(s.body);
        close_brace();
        break;
    }
  }

  std::string name_list(const std::vector<VarId>& ids) {
    std::vector<std::string> names;
    names.reserve(ids.size());
    for (VarId id : ids) names.push_back(name(id));
    return join(names, ", ");
  }

  void block(const Block& b) {
    for (const auto& s : b.stmts) stmt(*s);
  }

  // -- compute() -------------------------------------------------------------------
  std::string param_decl(VarId id) {
    const auto& d = prog_.var(id);
    switch (d.kind) {
      case VarKind::IntScalar: return "int " + d.name;
      case VarKind::FpScalar:
        return std::string(width_keyword(d.width)) + " " + d.name;
      case VarKind::FpArray:
        return std::string(width_keyword(d.width)) + "* " + d.name;
    }
    throw Error("unreachable var kind");
  }

  void emit_compute() {
    std::vector<std::string> params = {"double* comp_result"};
    for (VarId id : prog_.params()) params.push_back(param_decl(id));
    line("void compute(" + join(params, ", ") + ")");
    open_brace();
    line("double comp = 0.0;");
    block(prog_.body());
    line("*comp_result = comp;");
    close_brace();
  }

  // -- main() ----------------------------------------------------------------------
  void emit_main() {
    const auto params = prog_.params();
    line("int main(int argc, char** argv)");
    open_brace();
    line("if (argc != " + std::to_string(params.size() + 1) + ")");
    open_brace();
    line(R"(std::fprintf(stderr, "usage: %s <)" +
         [this, &params] {
           std::vector<std::string> names;
           for (VarId id : params) names.push_back(name(id));
           return join(names, "> <");
         }() +
         R"(>\n", argv[0]);)");
    line("return 2;");
    close_brace();
    int arg_index = 1;
    for (VarId id : params) {
      const auto& d = prog_.var(id);
      const std::string arg = "argv[" + std::to_string(arg_index++) + "]";
      switch (d.kind) {
        case VarKind::IntScalar:
          line("int " + d.name + " = (int)std::strtol(" + arg + ", nullptr, 10);");
          break;
        case VarKind::FpScalar:
          if (d.width == FpWidth::F32) {
            line("float " + d.name + " = std::strtof(" + arg + ", nullptr);");
          } else {
            line("double " + d.name + " = std::strtod(" + arg + ", nullptr);");
          }
          break;
        case VarKind::FpArray: {
          const char* kw = width_keyword(d.width);
          const std::string parse = d.width == FpWidth::F32
                                        ? "std::strtof(" + arg + ", nullptr)"
                                        : "std::strtod(" + arg + ", nullptr)";
          line(std::string(kw) + " " + d.name + "_fill = " + parse + ";");
          line(std::string(kw) + "* " + d.name + " = (" + kw +
               "*)std::malloc(sizeof(" + kw + ") * " +
               std::to_string(d.array_size) + ");");
          line("for (int _i = 0; _i < " + std::to_string(d.array_size) +
               "; ++_i) " + d.name + "[_i] = " + d.name + "_fill;");
          break;
        }
      }
    }
    blank();
    line("double comp = 0.0;");
    // clock_gettime, not std::chrono: main() stays libstdc++-free (codegen.hpp).
    line("timespec _t0, _t1;");
    line("clock_gettime(CLOCK_MONOTONIC, &_t0);");
    {
      std::vector<std::string> args = {"&comp"};
      for (VarId id : params) args.push_back(name(id));
      line("compute(" + join(args, ", ") + ");");
    }
    line("clock_gettime(CLOCK_MONOTONIC, &_t1);");
    // Whole nanoseconds first, then truncate: the same value as
    // duration_cast<microseconds>, also when tv_nsec borrows.
    line("long long _us = (((long long)_t1.tv_sec - _t0.tv_sec) * 1000000000LL"
         " + (_t1.tv_nsec - _t0.tv_nsec)) / 1000;");
    line(R"(std::printf("%.17g\n", comp);)");
    line(R"(std::printf("time_us: %lld\n", _us);)");
    for (VarId id : params) {
      if (prog_.var(id).kind == VarKind::FpArray) {
        line("std::free(" + name(id) + ");");
      }
    }
    line("return 0;");
    close_brace();
  }

  const Program& prog_;
  const EmitOptions& opt_;
  std::string out_;
  int indent_ = 0;
};

}  // namespace

std::string emit_fp_literal(double v) {
  if (std::isnan(v)) return "(0.0/0.0)";
  if (std::isinf(v)) return v > 0 ? "(1.0/0.0)" : "(-1.0/0.0)";
  std::string text = format_double(v);
  // Guarantee the literal lexes as a double (e.g. "2" -> "2.0").
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

const std::string& prelude() {
  static const std::string text =
      "#include <cmath>\n"
      "#include <cstdio>\n"
      "#include <cstdlib>\n"
      "#include <ctime>\n"
      "#include <omp.h>\n";
  return text;
}

std::string emit_translation_unit(const ast::Program& program,
                                  const EmitOptions& options) {
  Emitter emitter(program, options);
  return emitter.translation_unit();
}

std::string emit_expr(const ast::Program& program, const ast::Expr& expr) {
  EmitOptions options;
  Emitter emitter(program, options);
  return emitter.expr_text(expr);
}

}  // namespace ompfuzz::emit
