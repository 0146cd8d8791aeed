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

}  // namespace ompfuzz

/// Checks an invariant that must hold unless the framework itself is buggy.
#define OMPFUZZ_CHECK(cond, msg)                                    \
  do {                                                              \
    if (!(cond)) {                                                  \
      throw ::ompfuzz::Error(std::string("invariant failed: ") +    \
                             (msg) + " [" #cond "]");               \
    }                                                               \
  } while (false)
