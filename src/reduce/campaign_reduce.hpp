// Campaign integration of the test-case reducer.
//
// A finished campaign retains its divergent triples (CampaignResult::
// divergent: AST + input + emitted source); reduce_campaign() minimizes each
// one through a shared InterestingnessOracle — so overlapping candidates
// across triples of the same program hit the same result-store entries — and
// returns reportable artifacts: the reduced source (with a provenance
// banner), statement counts, and the preserved verdict class. The reduction
// table and JSON renderers mirror harness/report's style so campaign_demo
// --reduce and reduce_demo print one coherent report.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "reduce/reducer.hpp"

namespace ompfuzz::reduce {

/// One reduced divergent triple, ready for reports.
struct CampaignReduction {
  int program_index = 0;
  int input_index = 0;
  std::string program_name;
  std::string verdict_text;   ///< core::to_string of the preserved class
  bool reproduced = false;    ///< original still showed the divergent class
  std::size_t original_statements = 0;
  std::size_t reduced_statements = 0;
  std::string reduced_source;  ///< emitted minimal program, with banner
  std::string input_text;      ///< argv text of the (possibly pruned) input
  ReduceStats stats;
};

struct ReduceCampaignOptions {
  ReduceOptions reducer;
  OracleOptions oracle;
};

struct CampaignReductionReport {
  std::vector<CampaignReduction> reductions;  ///< campaign triple order
  OracleStats oracle_stats;                   ///< aggregated over all triples
};

/// Progress callback: (triples done, total triples).
using ReduceProgressFn = std::function<void(int, int)>;

/// Reduces every divergent triple of `result` against `backends` (the
/// campaign's, so a candidate runs under every implementation the campaign
/// compared), consulting/populating `store` (nullptr = no caching).
/// Deterministic in triple order and within each reduction, and the same for
/// every backend split.
[[nodiscard]] CampaignReductionReport reduce_campaign(
    const harness::CampaignResult& result,
    const std::vector<harness::CampaignBackend>& backends,
    ResultStore* store, const ReduceCampaignOptions& options = {},
    const ReduceProgressFn& progress = nullptr);

/// One row per divergent triple: statements before/after, shrink ratio,
/// verdict class, candidate counts.
[[nodiscard]] std::string render_reduction_table(
    std::span<const CampaignReduction> reductions);

/// JSON array of the reductions (reduced source included), embeddable next
/// to harness::to_json's campaign report.
[[nodiscard]] std::string reductions_to_json(
    std::span<const CampaignReduction> reductions);

}  // namespace ompfuzz::reduce
