// C++ source emission for generated test programs (Sections III-B, III-H).
//
// emit_translation_unit() produces a standalone, compilable OpenMP C++ file:
//
//   void compute(double* comp_result, <params...>)   — the kernel; declares
//       `double comp = 0.0;`, runs the generated body, stores comp.
//   int main(int argc, char** argv)                  — parses one input value
//       per parameter from argv (hex-float format round-trips exactly),
//       allocates and fill-initializes arrays, times compute() with
//       clock_gettime(CLOCK_MONOTONIC) at microsecond granularity, prints
//       the comp value (%.17g) and "time_us: <n>".
//
// The driver references nothing in libstdc++.so, so a binary links only
// libc, libm and libgomp: loading libstdc++'s symbol table used to be most
// of each program's link. Keep main() that way (no std::chrono, iostreams
// or containers); a test checks the binary's NEEDED entries.
//
// Typing discipline (mirrored exactly by the interpreter so in-process and
// compiled executions agree bit for bit):
//   - fp literals are always double (emitted with a decimal point/exponent),
//   - math calls always compute in double (C semantics),
//   - a binary op is float only when both operands are float,
//   - assignment converts to the declared width of the target.
#pragma once

#include <string>

#include "ast/program.hpp"

namespace ompfuzz::emit {

/// Version of the emitted text: what prelude() and emit_translation_unit()
/// produce for a given Program. SubprocessExecutor::impl_identity names it,
/// so results stored under another emitter's text only miss. Bump it with
/// every change to the emitted text; `UnitEmit.HarnessVersionPinsTheText`
/// pins it together with a hash of that text and fails until it is bumped.
inline constexpr int kHarnessVersion = 2;

struct EmitOptions {
  bool include_main = true;      ///< emit the driver main() around compute()
  bool emit_line_comments = false;  ///< annotate OpenMP constructs
  int indent_width = 2;
  /// Extra provenance lines prepended as a `//` comment block (after the
  /// auto-generated banner). The reducer records the preserved verdict class
  /// and the shrink ratio here, so a reduced artifact is self-describing.
  /// Newlines split into multiple comment lines.
  std::string header_comment;
};

/// The #include block every translation unit opens with (after its banner
/// comment). The subprocess backend precompiles exactly this text, so the
/// emitted file and its precompiled header cannot drift apart.
[[nodiscard]] const std::string& prelude();

/// Renders the full .cpp translation unit.
[[nodiscard]] std::string emit_translation_unit(const ast::Program& program,
                                                const EmitOptions& options = {});

/// Renders one expression (used in tests and reports).
[[nodiscard]] std::string emit_expr(const ast::Program& program,
                                    const ast::Expr& expr);

/// Renders an fp literal so it always parses as a double literal.
[[nodiscard]] std::string emit_fp_literal(double v);

}  // namespace ompfuzz::emit
