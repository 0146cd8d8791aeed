#include "reduce/campaign_reduce.hpp"

#include "emit/codegen.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace ompfuzz::reduce {

CampaignReductionReport reduce_campaign(
    const harness::CampaignResult& result,
    const std::vector<harness::CampaignBackend>& backends, ResultStore* store,
    const ReduceCampaignOptions& options, const ReduceProgressFn& progress) {
  CampaignReductionReport report;
  if (result.divergent.empty()) return report;

  InterestingnessOracle oracle(backends, options.oracle);
  oracle.set_result_store(store);
  Reducer reducer(oracle, options.reducer);

  const int total = static_cast<int>(result.divergent.size());
  int done = 0;
  for (const harness::DivergentTriple& triple : result.divergent) {
    ReduceResult reduced = reducer.reduce(triple.program, triple.input);

    CampaignReduction row;
    row.program_index = triple.program_index;
    row.input_index = triple.input_index;
    row.program_name = triple.program_name;
    row.verdict_text = core::to_string(reduced.verdict);
    row.reproduced = reduced.reproduced;
    row.original_statements = reduced.stats.initial_statements;
    row.reduced_statements = reduced.stats.final_statements;
    row.input_text = reduced.input.to_string();
    row.stats = reduced.stats;

    emit::EmitOptions emit_opt;
    emit_opt.header_comment =
        "reduced by ompfuzz: " + std::to_string(row.original_statements) +
        " -> " + std::to_string(row.reduced_statements) + " statements (" +
        format_fixed(100.0 * reduced.stats.shrink_ratio(), 1) +
        "% removed)\npreserved verdict class: " + row.verdict_text +
        "\ninput: " + row.input_text;
    row.reduced_source = emit::emit_translation_unit(reduced.program, emit_opt);

    report.reductions.push_back(std::move(row));
    if (progress) progress(++done, total);
  }
  report.oracle_stats = oracle.stats();
  return report;
}

std::string render_reduction_table(
    std::span<const CampaignReduction> reductions) {
  TextTable table({"Test", "Input", "Verdict class", "Stmts", "Reduced",
                   "Shrink", "Candidates"});
  table.set_alignment({Align::Left, Align::Right, Align::Left, Align::Right,
                       Align::Right, Align::Right, Align::Right});
  for (const CampaignReduction& row : reductions) {
    table.add_row({row.program_name, std::to_string(row.input_index),
                   row.verdict_text, std::to_string(row.original_statements),
                   row.reproduced ? std::to_string(row.reduced_statements)
                                  : "(not reproduced)",
                   row.reproduced
                       ? format_fixed(100.0 * row.stats.shrink_ratio(), 1) + "%"
                       : "-",
                   std::to_string(row.stats.candidates_tried)});
  }
  return table.render();
}

std::string reductions_to_json(std::span<const CampaignReduction> reductions) {
  JsonWriter json;
  json.begin_array();
  for (const CampaignReduction& row : reductions) {
    json.begin_object();
    json.key("program").value(row.program_name);
    json.key("program_index").value(static_cast<std::int64_t>(row.program_index));
    json.key("input_index").value(static_cast<std::int64_t>(row.input_index));
    json.key("verdict_class").value(row.verdict_text);
    json.key("reproduced").value(row.reproduced);
    json.key("original_statements")
        .value(static_cast<std::int64_t>(row.original_statements));
    json.key("reduced_statements")
        .value(static_cast<std::int64_t>(row.reduced_statements));
    json.key("shrink_ratio").value(row.stats.shrink_ratio());
    json.key("candidates_tried")
        .value(static_cast<std::int64_t>(row.stats.candidates_tried));
    json.key("candidates_interesting")
        .value(static_cast<std::int64_t>(row.stats.candidates_interesting));
    json.key("edits_applied")
        .value(static_cast<std::int64_t>(row.stats.edits_applied));
    json.key("input").value(row.input_text);
    json.key("reduced_source").value(row.reduced_source);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

}  // namespace ompfuzz::reduce
