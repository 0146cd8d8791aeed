// Error handling for the ompfuzz framework.
//
// Internal invariant violations throw ompfuzz::Error (they indicate a bug in
// the framework, not in a tested OpenMP implementation). Expected failures of
// tested implementations never throw — they are represented as RunStatus
// values (CRASH / HANG) in the differential-testing result types.
#pragma once

#include <stdexcept>
#include <string>

namespace ompfuzz {

/// Base exception for all framework errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a configuration file or value is malformed.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what)
      : Error("config error: " + what) {}
};

/// Raised when generated-program construction violates a grammar invariant.
class GenerationError : public Error {
 public:
  explicit GenerationError(const std::string& what) : Error("generator: " + what) {}
};

/// Raised when the interpreter encounters an ill-formed program (a framework
/// bug: the generator must only produce interpretable programs).
class InterpError : public Error {
 public:
  explicit InterpError(const std::string& what) : Error("interp: " + what) {}
};

namespace detail {

/// The throw of OMPFUZZ_CHECK, kept out of line and cold so a check costs
/// its caller one compare-and-branch and does not block inlining.
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const std::string& msg, const char* cond) {
  throw Error("invariant failed: " + msg + " [" + cond + "]");
}
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const char* msg, const char* cond) {
  check_failed(std::string(msg), cond);
}

}  // namespace detail

}  // namespace ompfuzz

/// Checks an invariant that must hold unless the framework itself is buggy.
#define OMPFUZZ_CHECK(cond, msg)                                    \
  do {                                                              \
    if (!(cond)) [[unlikely]] {                                     \
      ::ompfuzz::detail::check_failed((msg), #cond);                \
    }                                                               \
  } while (false)
