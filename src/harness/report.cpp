#include "harness/report.hpp"

#include <algorithm>

#include "support/fault_injection.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace ompfuzz::harness {

std::string render_table1(const CampaignResult& result) {
  TextTable table({"Implementation", "Slow", "Fast", "Crash", "Hang"});
  table.set_alignment({Align::Left, Align::Right, Align::Right, Align::Right,
                       Align::Right});
  const auto cell = [](int n) { return n == 0 ? std::string("-") : std::to_string(n); };
  for (const auto& name : result.impl_names) {
    const auto& c = result.per_impl.at(name);
    table.add_row({name, cell(c.slow), cell(c.fast), cell(c.crash), cell(c.hang)});
  }
  return table.render();
}

std::string render_summary(const CampaignResult& result) {
  std::string out;
  out += "runs:               " + std::to_string(result.total_runs) + "\n";
  out += "tests:              " + std::to_string(result.total_tests) + "\n";
  out += "analyzable tests:   " + std::to_string(result.analyzable_tests) +
         " (min-time filter keeps " +
         format_fixed(result.total_tests == 0
                          ? 0.0
                          : 100.0 * result.analyzable_tests / result.total_tests,
                      1) +
         "%)\n";
  out += "skipped runs:       " + std::to_string(result.skipped_runs) + "\n";
  out += "regenerated (racy): " + std::to_string(result.regenerated_programs) + "\n";
  out += "outlier runs:       " + std::to_string(result.outlier_runs()) + " (" +
         format_fixed(100.0 * result.outlier_rate(), 2) + "% of runs)\n";

  int correctness = 0;
  int fast_total = 0;
  int fast_diverging = 0;
  for (const auto& [name, c] : result.per_impl) {
    correctness += c.crash + c.hang;
    fast_total += c.fast;
    fast_diverging += c.fast_with_divergence;
  }
  out += "correctness outliers: " + std::to_string(correctness) + " (" +
         format_fixed(result.total_runs == 0
                          ? 0.0
                          : 100.0 * correctness / result.total_runs,
                      2) +
         "% of runs)\n";
  if (fast_total > 0) {
    out += "fast outliers with diverging output: " +
           std::to_string(fast_diverging) + " of " + std::to_string(fast_total) +
           " (" + format_fixed(100.0 * fast_diverging / fast_total, 1) + "%)\n";
  }
  return out;
}

std::string render_outlier_list(const CampaignResult& result,
                                std::size_t max_rows) {
  TextTable table({"Test", "Input", "Impl", "Kind", "Time (us)", "Midpoint (us)",
                   "Ratio"});
  table.set_alignment({Align::Left, Align::Right, Align::Left, Align::Left,
                       Align::Right, Align::Right, Align::Right});
  std::size_t rows = 0;
  for (const auto& outcome : result.outcomes) {
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      const auto kind = outcome.verdict.per_run[r];
      if (kind == core::OutlierKind::None) continue;
      if (rows++ >= max_rows) continue;
      const auto& run = outcome.runs[r];
      std::string time_text = "-";
      std::string ratio_text = "-";
      if (run.status == core::RunStatus::Ok) {
        time_text = format_fixed(run.time_us, 0);
        if (outcome.verdict.midpoint_us > 0 && run.time_us > 0) {
          const double ratio = kind == core::OutlierKind::Fast
                                   ? outcome.verdict.midpoint_us / run.time_us
                                   : run.time_us / outcome.verdict.midpoint_us;
          ratio_text = format_fixed(ratio, 2) + "x";
        }
      }
      table.add_row({outcome.program_name, std::to_string(outcome.input_index),
                     run.impl, core::to_string(kind), time_text,
                     format_fixed(outcome.verdict.midpoint_us, 0), ratio_text});
    }
  }
  std::string out = table.render();
  if (rows > max_rows) {
    out += "... (" + std::to_string(rows - max_rows) + " more)\n";
  }
  return out;
}

std::string render_scheduler_summary(
    const std::vector<CampaignBackend>& backends,
    const telemetry::MetricsSnapshot& metrics) {
  std::string out = "scheduler: " +
                    std::to_string(metrics.counter("scheduler.units")) +
                    " sub-shards\n";
  for (std::size_t b = 0; b < backends.size(); ++b) {
    out += "  backend " + backends[b].name + ": ";
    const auto impls = backends[b].executor->implementations();
    out += join(impls, ", ") + "\n";
  }
  return out;
}

std::string render_analysis_summary(const CampaignResult& result,
                                    const telemetry::MetricsSnapshot& metrics) {
  const StaticAnalysisStats& a = result.analysis;
  std::string out = "static analysis: " + std::to_string(a.programs_checked) +
                    " drafts checked, " + std::to_string(a.programs_filtered) +
                    " filtered as racy\n";
  out += "  intervals: " + std::to_string(a.interval_rescued_drafts) +
         " drafts rescued (racy affine-only), " +
         std::to_string(a.interval_disjoint_pairs) +
         " pairs proved disjoint, " +
         std::to_string(a.interval_mod_rewrites) + " mod rewrites\n";
  for (int k = 0; k < analysis::kNumRaceKinds; ++k) {
    if (a.findings_by_kind[static_cast<std::size_t>(k)] == 0) continue;
    out += "  " + std::string(analysis::to_string(static_cast<analysis::RaceKind>(k))) +
           ": " +
           std::to_string(a.findings_by_kind[static_cast<std::size_t>(k)]) +
           "\n";
  }
  if (const auto* nanos = metrics.find("campaign.analysis_nanos")) {
    const double seconds = static_cast<double>(nanos->counter) * 1e-9;
    const std::uint64_t drafts = metrics.counter("campaign.analyzed_drafts");
    out += "  analysis wall time: " + format_fixed(seconds * 1e3, 1) + " ms";
    if (seconds > 0.0 && drafts > 0) {
      out += " (" + format_fixed(static_cast<double>(drafts) / seconds, 0) +
             " drafts/sec)";
    }
    out += "\n";
  }
  return out;
}

std::string render_robustness_summary(const CampaignResult& result,
                                      const telemetry::MetricsSnapshot& metrics) {
  std::string out =
      "robustness: " +
      std::to_string(metrics.counter("campaign.retried_triples")) +
      " triples retried in " +
      std::to_string(metrics.counter("campaign.retry_rounds")) + " rounds, " +
      std::to_string(metrics.counter("campaign.fabricated_units")) +
      " sub-shards fabricated\n";
  out += "  quarantined triples: " +
         std::to_string(result.robustness.quarantined.size()) + "\n";
  if (!result.robustness.lost_backends.empty()) {
    out += "  lost backends: " + join(result.robustness.lost_backends, ", ") + "\n";
  }
  const FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled()) {
    out += "  fault injection: " + std::to_string(injector.total_injected()) +
           " faults injected\n";
    for (int s = 0; s < kNumFaultSites; ++s) {
      const auto site = static_cast<FaultSite>(s);
      const auto stats = injector.site_stats(site);
      if (stats.checked == 0) continue;
      out += "    " + std::string(to_string(site)) + ": " +
             std::to_string(stats.injected) + "/" +
             std::to_string(stats.checked) + " fired\n";
    }
  }
  return out;
}

std::string to_json(const CampaignResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("total_runs").value(static_cast<std::int64_t>(result.total_runs));
  json.key("total_tests").value(static_cast<std::int64_t>(result.total_tests));
  json.key("analyzable_tests")
      .value(static_cast<std::int64_t>(result.analyzable_tests));
  json.key("outlier_rate").value(result.outlier_rate());

  // Split-invariant by construction (see StaticAnalysisStats): safe to keep
  // in the JSON without breaking the multi-backend byte-for-byte diff.
  json.key("static_analysis").begin_object();
  json.key("programs_checked")
      .value(static_cast<std::int64_t>(result.analysis.programs_checked));
  json.key("programs_filtered")
      .value(static_cast<std::int64_t>(result.analysis.programs_filtered));
  json.key("interval_rescued_drafts")
      .value(static_cast<std::int64_t>(result.analysis.interval_rescued_drafts));
  json.key("interval_disjoint_pairs")
      .value(static_cast<std::int64_t>(result.analysis.interval_disjoint_pairs));
  json.key("interval_mod_rewrites")
      .value(static_cast<std::int64_t>(result.analysis.interval_mod_rewrites));
  json.key("findings_by_kind").begin_object();
  for (int k = 0; k < analysis::kNumRaceKinds; ++k) {
    json.key(analysis::to_string(static_cast<analysis::RaceKind>(k)))
        .value(static_cast<std::int64_t>(
            result.analysis.findings_by_kind[static_cast<std::size_t>(k)]));
  }
  json.end_object();
  json.end_object();

  // Split-invariant like static_analysis, and additionally empty whenever
  // retries absorbed every fault — which is how a fault-injected campaign's
  // report diffs byte-identical against the clean baseline. Only
  // permanently lost work (exhausted triples, dead backends) appears here;
  // the variable how-hard-did-we-try counters are stdout-only
  // (render_robustness_summary).
  json.key("robustness").begin_object();
  json.key("quarantined").begin_array();
  for (const auto& q : result.robustness.quarantined) {
    json.begin_object();
    json.key("program").value(q.program_name);
    json.key("program_index").value(static_cast<std::int64_t>(q.program_index));
    json.key("input_index").value(static_cast<std::int64_t>(q.input_index));
    json.key("impl").value(q.impl);
    json.end_object();
  }
  json.end_array();
  json.key("lost_backends").begin_array();
  for (const auto& name : result.robustness.lost_backends) json.value(name);
  json.end_array();
  json.end_object();

  json.key("per_impl").begin_object();
  for (const auto& name : result.impl_names) {
    const auto& c = result.per_impl.at(name);
    json.key(name).begin_object();
    json.key("slow").value(static_cast<std::int64_t>(c.slow));
    json.key("fast").value(static_cast<std::int64_t>(c.fast));
    json.key("crash").value(static_cast<std::int64_t>(c.crash));
    json.key("hang").value(static_cast<std::int64_t>(c.hang));
    json.key("fast_with_divergence")
        .value(static_cast<std::int64_t>(c.fast_with_divergence));
    json.end_object();
  }
  json.end_object();

  // The divergence records the campaign retained: everything a bug report
  // (or the reducer) needs about each divergent triple, source included.
  json.key("divergent").begin_array();
  for (const auto& triple : result.divergent) {
    json.begin_object();
    json.key("program").value(triple.program_name);
    json.key("program_index").value(static_cast<std::int64_t>(triple.program_index));
    json.key("input_index").value(static_cast<std::int64_t>(triple.input_index));
    json.key("verdict_class").value(core::to_string(triple.verdict_class));
    json.key("input").value(triple.input_text);
    json.key("source").value(triple.source);
    json.end_object();
  }
  json.end_array();

  json.key("outcomes").begin_array();
  for (const auto& outcome : result.outcomes) {
    json.begin_object();
    json.key("program").value(outcome.program_name);
    json.key("input_index").value(static_cast<std::int64_t>(outcome.input_index));
    json.key("analyzable").value(outcome.verdict.analyzable);
    json.key("midpoint_us").value(outcome.verdict.midpoint_us);
    json.key("runs").begin_array();
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      const auto& run = outcome.runs[r];
      json.begin_object();
      json.key("impl").value(run.impl);
      json.key("status").value(core::to_string(run.status));
      json.key("time_us").value(run.time_us);
      json.key("output").value(run.output);
      json.key("outlier").value(core::to_string(outcome.verdict.per_run[r]));
      json.key("diverges").value(static_cast<bool>(outcome.divergence.diverges[r]));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace ompfuzz::harness
