// MHP-based static race analyzer (tentpole of the analysis subsystem).
//
// Pipeline per parallel region:
//   1. reaching-definitions pass  → UninitializedPrivate findings
//   2. access-set dataflow pass   → per-variable accesses with phase,
//      mutex set, and classified subscript (access_set.hpp)
//   3. dependence test: every pair of accesses to the same variable
//      (unordered, self-pairs included — one site executed by many threads
//      races with itself) conflicts when at least one side writes, the two
//      may happen in parallel (phase_model.hpp), and — for arrays — the
//      subscripts are not provably disjoint.
// Conflicts are then folded into the stable RaceKind vocabulary
// (findings.hpp), one report shape for every consumer of analyze_races.
//
// Finding order is deterministic: regions in pre-order; per region the
// uninitialized-private findings (first-read order), then scalar conflicts
// by VarId, then array conflicts by VarId.
#pragma once

#include "analysis/access_set.hpp"
#include "analysis/findings.hpp"
#include "ast/program.hpp"

namespace ompfuzz::analysis {

/// One conflicting access pair surfaced by the dependence test.
struct Conflict {
  Access first;
  Access second;
};

/// Dependence test between two accesses to the same variable.
[[nodiscard]] bool accesses_conflict(const Access& a, const Access& b) noexcept;

/// As above, counting interval-proved disjoint pairs into `stats` (may be
/// null): when the affine table cannot separate two array accesses but
/// their element ranges are disjoint, the pair is race-free.
[[nodiscard]] bool accesses_conflict(const Access& a, const Access& b,
                                     AnalyzerStats* stats) noexcept;

/// All conflicts of one region's access set, per-variable in VarId order.
[[nodiscard]] std::vector<Conflict> find_region_conflicts(
    const RegionAccessSet& accesses, AnalyzerStats* stats = nullptr);

/// Full static analysis of a program: every parallel region through the
/// reaching-defs + access-set + dependence-test pipeline.
[[nodiscard]] RaceReport analyze_races(const ast::Program& program);

/// As above with explicit analyzer knobs (interval precision on/off, team
/// size override) and optional precision counters.
[[nodiscard]] RaceReport analyze_races(const ast::Program& program,
                                       const AnalyzeOptions& options,
                                       AnalyzerStats* stats = nullptr);

}  // namespace ompfuzz::analysis
