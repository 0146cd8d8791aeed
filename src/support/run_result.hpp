// The run-result vocabulary: what one (program, input, implementation)
// execution terminated as, and what it produced.
//
// This lives in support — the bottom layer — because it is the one value
// type shared by every layer that touches executions: the result store
// persists it, executors produce it, the outlier detector and the campaign
// consume it. It stays in namespace ompfuzz::core, where it has always
// been: the vocabulary moved down a layer (so support/result_store no
// longer includes core/outlier.hpp upward), not to a new name — every
// consumer spells core::RunResult exactly as before.
#pragma once

#include <cstdint>
#include <string>

namespace ompfuzz::core {

/// Terminal state of one test execution by one implementation.
enum class RunStatus : std::uint8_t {
  Ok,       ///< produced an output and an execution time
  Crash,    ///< terminated abnormally (signal / nonzero exit) before output
  Hang,     ///< exceeded the hang timeout and was stopped (SIGINT semantics)
  Skipped,  ///< not executed (e.g. interpreter budget exceeded); excluded
};

[[nodiscard]] constexpr const char* to_string(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::Ok: return "OK";
    case RunStatus::Crash: return "CRASH";
    case RunStatus::Hang: return "HANG";
    case RunStatus::Skipped: return "SKIPPED";
  }
  return "?";
}

/// Result of one (program, input, implementation) execution.
struct RunResult {
  std::string impl;              ///< implementation name, e.g. "gcc"
  RunStatus status = RunStatus::Ok;
  double time_us = 0.0;          ///< valid when status == Ok
  double output = 0.0;           ///< comp value; valid when status == Ok
  /// True when the harness fabricated this result because its own
  /// infrastructure failed (compile/spawn failure: fork or pipe exhaustion,
  /// compile timeout on a loaded machine), rather than observing the
  /// implementation. Such results are analyzed like any Crash within the
  /// current campaign but are never persisted to the result store — a
  /// transient hiccup must not be replayed as "this implementation crashes
  /// here" forever.
  bool harness_failure = false;
};

}  // namespace ompfuzz::core
