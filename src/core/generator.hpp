// Random OpenMP test-program generation (paper Sections III-C..III-G).
//
// ProgramGenerator constructively samples the grammar of Listing 2 under the
// GeneratorConfig bounds, with the OpenMP-specific rules of the paper:
//
//   * parallel regions carry default(shared) plus randomized private /
//     firstprivate partitions and an optional reduction(+|*: comp);
//   * every private variable is initialized by the region's preamble
//     assignments before any use (the "{<assignment>}+" of <openmp-block>);
//   * the region body ends in one for loop, optionally work-shared
//     ("#pragma omp for"), whose body may contain critical sections;
//   * race freedom by construction (Section III-G):
//       - shared arrays in a region are used in one of three modes, chosen
//         per region: read-only, thread-local (subscript omp_get_thread_num()),
//         or loop-partitioned (subscript is the omp-for induction variable
//         with a trip count clamped to the array size);
//       - comp is updated inside a region only through the reduction clause
//         (with the matching operator) or inside an omp critical;
//       - all other shared scalars are read-only inside the region, except a
//         designated "critical-only" set accessed exclusively inside
//         critical sections.
//
// The same rules are validated independently by analysis::analyze_races
// (checked against dynamic access traces by the differential sweep) and
// check_conformance, which the property tests run over many seeds.
#pragma once

#include <cstdint>
#include <string>

#include "ast/program.hpp"
#include "support/config.hpp"

namespace ompfuzz::core {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(GeneratorConfig config);

  /// Generates one random program. Deterministic in (name, seed) and the
  /// configuration; independent of any other generate() call.
  [[nodiscard]] ast::Program generate(const std::string& name,
                                      std::uint64_t seed) const;

  [[nodiscard]] const GeneratorConfig& config() const noexcept { return config_; }

 private:
  GeneratorConfig config_;
};

}  // namespace ompfuzz::core
