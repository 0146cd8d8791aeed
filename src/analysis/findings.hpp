// Finding vocabulary of the static race analysis (paper Section III-G).
//
// The kinds are kept stable because campaign reports, the reducer's
// rejection messages, and the golden-finding corpus all key off them.
#pragma once

#include <string>
#include <vector>

namespace ompfuzz::analysis {

enum class RaceKind {
  CompUnprotected,       ///< comp accessed without reduction or critical
  SharedScalarWrite,     ///< shared scalar written outside a critical
  SharedScalarMixed,     ///< critical writes mixed with uncritical accesses
  ArrayUnsafeWrite,      ///< shared array written with a non-partitioning index
  ArrayMixedAccess,      ///< inconsistent subscript discipline on a shared array
  UninitializedPrivate,  ///< private read before initialization
  AtomicMixedAccess,     ///< atomic update conflicts with a plain access
};

inline constexpr int kNumRaceKinds = 7;

[[nodiscard]] const char* to_string(RaceKind k) noexcept;

struct RaceFinding {
  RaceKind kind;
  std::string variable;  ///< name of the racing variable
  std::string detail;
};

struct RaceReport {
  std::vector<RaceFinding> findings;
  [[nodiscard]] bool race_free() const noexcept { return findings.empty(); }
};

}  // namespace ompfuzz::analysis
