// The traced run of bench_e2e: where one workload's campaign spends its
// time, layer by layer.
//
// The spans come from the benchmark's own code, around calls into each
// layer's public functions; the in-program telemetry::Tracer is not used.
// The campaign runs once untraced (the reference wall time) and once with a
// timing decorator around its executor plus a progress callback; then each
// layer's entry points are replayed over the same programs. Every call is
// one span (name, start, end, parent, program), kept in memory and written
// once at the end as Chrome trace JSON; each span name's self time (its
// duration minus the part its children cover) is printed to stderr. Layers
// a workload does not exercise report 0.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/race_analyzer.hpp"
#include "core/differ.hpp"
#include "core/outlier.hpp"
#include "emit/codegen.hpp"
#include "harness/async_process.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "support/json_writer.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry.hpp"
#include "workload.hpp"

namespace bench_e2e {
namespace {

using namespace ompfuzz;

/// Programs whose interpreter and sim-executor calls sim-interp replays.
/// The replay is serial, so the whole campaign would take minutes.
constexpr std::size_t kSimReplayPrograms = 32;
/// Programs whose compiles and test runs gxx-compile replays.
constexpr std::size_t kGxxReplayPrograms = 6;
constexpr int kSpawnSamples = 20;
constexpr int kHeaderRounds = 2;

/// The per-layer catalogue (name, unit), in BENCHMARK.json order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"campaign.execute_s", "s"},
    {"campaign.merge_s", "s"},
    {"campaign.blocking_share", "ratio"},
    {"exec.run_batch_ms.p50", "ms"},
    {"exec.run_batch_ms.p90", "ms"},
    {"exec.calls", "count"},
    {"exec.busy_share", "ratio"},
    {"scheduler.stolen_units", "count"},
    {"scheduler.batches", "count"},
    {"generate.make_test_case_us.p50", "us"},
    {"generate.make_test_case_us.p90", "us"},
    {"generate.accept_ratio", "ratio"},
    {"analysis.analyze_races_us.p50", "us"},
    {"analysis.analyze_races_us.p90", "us"},
    {"analysis.interval_rescued", "count"},
    {"interp.steps", "count"},
    {"interp.ns_per_step", "ns"},
    {"interp.over_budget", "count"},
    {"sim.run_us.p50", "us"},
    {"sim.run_us.p90", "us"},
    {"emit.tu_us.p50", "us"},
    {"emit.tu_bytes.p50", "bytes"},
    {"compile.tu_ms.p50", "ms"},
    {"compile.tu_ms.p90", "ms"},
    {"compile.headers_only_ms", "ms"},
    {"process.spawn_ms", "ms"},
    {"process.children_compile", "count"},
    {"process.children_run", "count"},
    {"run.self_time_us.p50", "us"},
    {"run.self_time_us.p90", "us"},
    {"run.hangs", "count"},
    {"run.hang_s", "s"},
    {"store.lookup_us.p50", "us"},
    {"store.lookup_us.p90", "us"},
    {"store.put_us.p50", "us"},
    {"store.put_us.p90", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.files", "count"},
    {"store.bytes", "bytes"},
    {"classify.us_per_outcome", "us"},
    {"report.to_json_ms", "ms"},
    {"report.bytes", "bytes"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_share", "ratio"},
    {"check.fail_ratio", "ratio"},
};

using Values = std::map<std::string, double>;

struct Span {
  std::string name;
  std::uint64_t parent = 0;  ///< span id of the caller; 0 = none
  int program = -1;          ///< campaign program index; -1 = none
  int tid = 0;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span log. Thread-safe: the executor decorator records from
/// campaign workers.
class SpanLog {
 public:
  /// Opens a span and returns its id (never 0).
  std::uint64_t begin(std::string name, std::uint64_t parent, int program = -1) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, program, tid_locked(), wall_s(), 0.0});
    return spans_.size();
  }
  /// Closes span `id` now and returns its duration in seconds.
  double end(std::uint64_t id) { return end_at(id, wall_s()); }
  /// Closes span `id` at `at`.
  double end_at(std::uint64_t id, double at) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_.at(id - 1);
    span.end = at;
    return span.end - span.start;
  }
  /// Records a span whose bounds were measured elsewhere.
  void add(std::string name, std::uint64_t parent, double start, double end) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, -1, tid_locked(), start, end});
  }
  /// Runs fn() as one span and returns its duration in seconds.
  template <typename Fn>
  double timed(const char* name, std::uint64_t parent, int program, Fn&& fn) {
    const std::uint64_t id = begin(name, parent, program);
    fn();
    return end(id);
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  int tid_locked() {
    const auto next = static_cast<int>(tids_.size()) + 1;
    return tids_.try_emplace(std::this_thread::get_id(), next).first->second;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index = span id - 1
  std::map<std::thread::id, int> tids_;
};

/// Campaign program index of a test ("test_<index>").
int program_index(const harness::TestCase& test) {
  const std::string& name = test.program.name();
  return std::atoi(name.c_str() + name.rfind('_') + 1);
}

/// Executor decorator: one "exec.run_batch" span per call into the wrapped
/// backend, inside the real Campaign::run.
class TimingExecutor final : public harness::Executor {
 public:
  TimingExecutor(harness::Executor& inner, SpanLog& log, std::uint64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    return run_batch(test, {input_index}, {impl_name}).front();
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    std::vector<core::RunResult> results;
    log_.timed("exec.run_batch", parent_, program_index(test),
               [&] { results = inner_.run_batch(test, input_indices, impls); });
    return results;
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(const std::string& impl_name) const override {
    return inner_.impl_identity(impl_name);
  }
  void reclaim_artifacts(std::uint64_t program_fingerprint) override {
    inner_.reclaim_artifacts(program_fingerprint);
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_.thread_safe();
  }

 private:
  harness::Executor& inner_;
  SpanLog& log_;
  std::uint64_t parent_;
};

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile(xs, p);
}

double total(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

/// Per span name: calls, summed duration and summed self time (duration
/// minus the union of its children's intervals).
struct NameTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, NameTotals> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size() + 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (const std::size_t c : children[i + 1]) {
      const double a = std::max(spans[c].start, s.start);
      const double b = std::min(spans[c].end, s.end);
      if (b > a) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    double union_s = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      if (b > from) union_s += b - from;
      reach = std::max(reach, b);
    }
    NameTotals& t = out[s.name];
    ++t.calls;
    t.total_s += s.end - s.start;
    t.self_s += s.end - s.start - union_s;
  }
  return out;
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json.begin_object();
    json.key("name").value(s.name);
    json.key("cat").value("bench_e2e");
    json.key("ph").value("X");
    json.key("ts").value(1e6 * (s.start - t0));
    json.key("dur").value(1e6 * (s.end - s.start));
    json.key("pid").value(1);
    json.key("tid").value(s.tid);
    json.key("args").begin_object();
    json.key("id").value(static_cast<std::uint64_t>(i + 1));
    json.key("parent").value(s.parent);
    json.key("program").value(s.program);
    json.end_object();
    json.end_object();
  }
  json.end_array().end_object();
  const std::filesystem::path file(path);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  std::ofstream out(path);
  out << json.str() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// argv of a {src}/{bin} compile command template.
std::vector<std::string> command_argv(const std::string& command,
                                      const std::string& src,
                                      const std::string& bin) {
  std::vector<std::string> argv;
  for (auto& token :
       split(replace_all(replace_all(command, "{src}", src), "{bin}", bin), ' ')) {
    if (!token.empty()) argv.push_back(std::move(token));
  }
  return argv;
}

bool exited_ok(const harness::ProcessResult& r) {
  return !r.timed_out && !r.signaled && r.exit_code == 0;
}

/// The traced repetition and what was measured around it.
struct TracedCampaign {
  CampaignRun run;
  double execute_s = 0.0;  ///< run() start to the last progress call
  double merge_s = 0.0;    ///< last progress call to run() return
  std::uint64_t children = 0;
  ResultStore::Stats store;
};

TracedCampaign trace_campaign(SpanLog& log, std::uint64_t root, const Workload& w,
                              Repetition& rep) {
  TracedCampaign out;
  const std::uint64_t run_id = log.begin("campaign.run", root);
  const std::uint64_t exec_id = log.begin("campaign.execute", run_id);
  TimingExecutor timing(*rep.executor, log, exec_id);
  std::mutex mutex;
  double last_progress = 0.0;
  const harness::ProgressFn progress = [&](int, int) {
    const std::lock_guard<std::mutex> lock(mutex);
    last_progress = wall_s();
  };
  auto& registry = telemetry::Registry::global();
  const std::uint64_t children0 = registry.snapshot().counter("exec.children");
  out.run = run_campaign(w.config, timing, rep.store.get(), progress);
  out.children = registry.snapshot().counter("exec.children") - children0;
  const double run_end = out.run.start + out.run.wall;
  log.end_at(exec_id, last_progress);
  log.add("campaign.merge", run_id, last_progress, run_end);
  log.end_at(run_id, run_end);
  out.execute_s = last_progress - out.run.start;
  out.merge_s = run_end - last_progress;
  if (rep.store) out.store = rep.store->stats();
  return out;
}

/// core/generator + fp/input_gen, analysis and emit over every program.
std::vector<harness::TestCase> replay_front_end(SpanLog& log, std::uint64_t root,
                                                const harness::Campaign& campaign,
                                                std::vector<std::string>& tus,
                                                Values& m) {
  const int programs = campaign.config().num_programs;
  std::vector<harness::TestCase> tests;
  std::vector<double> generate_us;
  double drafts = 0.0;
  const std::uint64_t generate_layer = log.begin("layer.generate", root);
  for (int p = 0; p < programs; ++p) {
    generate_us.push_back(1e6 * log.timed("generate.make_test_case", generate_layer, p,
                                          [&] { tests.push_back(campaign.make_test_case(p)); }));
    drafts += tests.back().regeneration_attempts + 1;
  }
  log.end(generate_layer);

  std::vector<double> analysis_us;
  const std::uint64_t analysis_layer = log.begin("layer.analysis", root);
  for (int p = 0; p < programs; ++p) {
    analysis_us.push_back(1e6 * log.timed("analysis.analyze_races", analysis_layer, p, [&] {
      (void)analysis::analyze_races(tests[static_cast<std::size_t>(p)].program);
    }));
  }
  log.end(analysis_layer);

  std::vector<double> emit_us;
  std::vector<double> emit_bytes;
  const std::uint64_t emit_layer = log.begin("layer.emit", root);
  for (int p = 0; p < programs; ++p) {
    std::string tu;
    emit_us.push_back(1e6 * log.timed("emit.translation_unit", emit_layer, p, [&] {
      tu = emit::emit_translation_unit(tests[static_cast<std::size_t>(p)].program);
    }));
    emit_bytes.push_back(static_cast<double>(tu.size()));
    tus.push_back(std::move(tu));
  }
  log.end(emit_layer);

  m["generate.make_test_case_us.p50"] = pct(generate_us, 50);
  m["generate.make_test_case_us.p90"] = pct(generate_us, 90);
  m["generate.accept_ratio"] = programs / drafts;
  m["analysis.analyze_races_us.p50"] = pct(analysis_us, 50);
  m["analysis.analyze_races_us.p90"] = pct(analysis_us, 90);
  m["emit.tu_us.p50"] = pct(emit_us, 50);
  m["emit.tu_bytes.p50"] = pct(emit_bytes, 50);
  return tests;
}

/// interp::execute and SimExecutor::run over the first programs, with the
/// options SimExecutor passes the interpreter.
void replay_sim(SpanLog& log, std::uint64_t root, harness::SimExecutor& sim,
                const std::vector<harness::TestCase>& tests,
                const std::map<int, double>& batch_s_by_program, Values& m) {
  const std::size_t n = std::min(tests.size(), kSimReplayPrograms);
  const auto impls = sim.implementations();
  std::uint64_t steps = 0;
  std::uint64_t over_budget = 0;
  double interp_s = 0.0;
  const std::uint64_t interp_layer = log.begin("layer.interp", root);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < tests[p].inputs.size(); ++i) {
      for (const auto& impl : impls) {
        interp::InterpOptions options;
        options.fp = sim.profile(impl).fp;
        options.num_threads_override = sim.options().num_threads;
        options.max_steps = sim.options().max_interp_steps;
        interp::InterpResult r;
        interp_s += log.timed("interp.execute", interp_layer, static_cast<int>(p), [&] {
          r = interp::execute(tests[p].program, tests[p].inputs[i], options);
        });
        steps += r.steps;
        over_budget += r.over_budget ? 1 : 0;
      }
    }
  }
  log.end(interp_layer);

  std::vector<double> run_us;
  double batch_s = 0.0;
  const std::uint64_t sim_layer = log.begin("layer.sim", root);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < tests[p].inputs.size(); ++i) {
      for (const auto& impl : impls) {
        run_us.push_back(1e6 * log.timed("sim.run", sim_layer, static_cast<int>(p),
                                         [&] { (void)sim.run(tests[p], i, impl); }));
      }
    }
    const auto it = batch_s_by_program.find(static_cast<int>(p));
    if (it != batch_s_by_program.end()) batch_s += it->second;
  }
  log.end(sim_layer);

  m["interp.steps"] = static_cast<double>(steps);
  m["interp.ns_per_step"] = steps > 0 ? 1e9 * interp_s / static_cast<double>(steps) : 0.0;
  m["interp.over_budget"] = static_cast<double>(over_budget);
  m["sim.run_us.p50"] = pct(run_us, 50);
  m["sim.run_us.p90"] = pct(run_us, 90);
  // Blocking step: the share of the replayed programs' run_batch time that
  // SimExecutor::run alone accounts for.
  m["campaign.blocking_share"] = batch_s > 0.0 ? 1e-6 * total(run_us) / batch_s : 0.0;
}

/// Compiles, the headers-only TU, process spawns and test runs through
/// harness::run_process with the workload's own commands, plus the test-run
/// layer read from the campaign's RunResults.
void replay_gxx(SpanLog& log, std::uint64_t root, const Workload& w,
                const std::vector<harness::TestCase>& tests,
                const std::vector<std::string>& tus, const TracedCampaign& traced,
                const std::string& work_root, Values& m) {
  const TempDir dir(work_root, "replay");
  const std::size_t n = std::min(tests.size(), kGxxReplayPrograms);

  std::vector<double> compile_ms;
  std::vector<std::pair<std::size_t, std::string>> binaries;  // (program, path)
  const std::uint64_t compile_layer = log.begin("layer.compile", root);
  for (std::size_t p = 0; p < n; ++p) {
    for (const auto& compiler : w.compilers) {
      const std::string stem = dir.path() + "/p" + std::to_string(p) + "_" + compiler.name;
      write_file(stem + ".cpp", tus[p]);
      const auto argv = command_argv(compiler.compile_command, stem + ".cpp", stem + ".bin");
      harness::ProcessResult r;
      compile_ms.push_back(1e3 * log.timed("compile.tu", compile_layer, static_cast<int>(p), [&] {
        r = harness::run_process(argv, w.executor.compile_timeout_ms);
      }));
      if (exited_ok(r)) binaries.emplace_back(p, stem + ".bin");
    }
  }
  // The fixed cost a multi-kernel TU would amortise: the emitted includes
  // and an empty main, compiled and linked with each command.
  std::string headers;
  for (const auto& line : split(tus.front(), '\n')) {
    if (starts_with(line, "#include")) headers += line + "\n";
  }
  headers += "int main() { return 0; }\n";
  const std::string headers_src = dir.path() + "/headers_only.cpp";
  write_file(headers_src, headers);
  std::vector<double> headers_ms;
  for (int round = 0; round < kHeaderRounds; ++round) {
    for (const auto& compiler : w.compilers) {
      const auto argv = command_argv(compiler.compile_command, headers_src,
                                     dir.path() + "/headers_only.bin");
      headers_ms.push_back(1e3 * log.timed("compile.headers_only", compile_layer, -1, [&] {
        (void)harness::run_process(argv, w.executor.compile_timeout_ms);
      }));
    }
  }
  log.end(compile_layer);

  std::vector<double> spawn_ms;
  const std::uint64_t process_layer = log.begin("layer.process", root);
  for (int k = 0; k < kSpawnSamples; ++k) {
    spawn_ms.push_back(1e3 * log.timed("process.spawn", process_layer, -1, [&] {
      (void)harness::run_process({"/bin/true"}, 5'000);
    }));
  }
  log.end(process_layer);

  double run_s = 0.0;
  const std::uint64_t run_layer = log.begin("layer.run", root);
  for (const auto& [p, bin] : binaries) {
    for (const auto& input : tests[p].inputs) {
      std::vector<std::string> argv{bin};
      for (auto& arg : input.to_argv()) argv.push_back(std::move(arg));
      harness::ProcessResult r;
      const double s = log.timed("run.test", run_layer, static_cast<int>(p), [&] {
        r = harness::run_process(argv, w.executor.run_timeout_ms);
      });
      if (!r.timed_out) run_s += s;  // hangs are accounted as run.hang_s
    }
  }
  log.end(run_layer);

  std::vector<double> self_us;
  std::uint64_t hangs = 0;
  std::uint64_t triples = 0;
  for (const auto& outcome : traced.run.result.outcomes) {
    for (const auto& run : outcome.runs) {
      ++triples;
      if (run.status == core::RunStatus::Ok) self_us.push_back(run.time_us);
      if (run.status == core::RunStatus::Hang) ++hangs;
    }
  }
  const double hang_s = static_cast<double>(hangs) *
                        static_cast<double>(w.executor.run_timeout_ms) / 1e3;

  m["compile.tu_ms.p50"] = pct(compile_ms, 50);
  m["compile.tu_ms.p90"] = pct(compile_ms, 90);
  m["compile.headers_only_ms"] = median(headers_ms);
  m["process.spawn_ms"] = median(spawn_ms);
  // One test-run child per triple (a TU g++ rejects would spawn none, which
  // the compile replay above would show); the rest of the campaign's
  // children are compiles.
  m["process.children_run"] = static_cast<double>(triples);
  m["process.children_compile"] =
      static_cast<double>(traced.children > triples ? traced.children - triples : 0);
  m["run.self_time_us.p50"] = pct(self_us, 50);
  m["run.self_time_us.p90"] = pct(self_us, 90);
  m["run.hangs"] = static_cast<double>(hangs);
  m["run.hang_s"] = hang_s;
  // Blocking steps: compiles (overlapped max_inflight wide), then test runs
  // (exclusive, one at a time) and hangs, scaled from the replayed programs
  // to the whole campaign, as a share of the campaign's execute phase.
  const double scale = static_cast<double>(tests.size()) / static_cast<double>(n);
  const double blocking =
      scale * (1e-3 * total(compile_ms) / w.executor.max_inflight + run_s) + hang_s;
  m["campaign.blocking_share"] = traced.execute_s > 0.0 ? blocking / traced.execute_s : 0.0;
}

/// ResultStore lookups on a fresh instance over the filled directory (disk
/// reads, not the in-process memo), puts into an empty store, and the
/// filled store's footprint.
std::uint64_t replay_store(SpanLog& log, std::uint64_t root, const Prepared& prepared,
                           harness::Executor& executor,
                           const std::vector<harness::TestCase>& tests,
                           const TracedCampaign& traced, const std::string& work_root,
                           Values& m) {
  ResultStore reader(store_at(prepared.store_dir->path()));
  const TempDir put_dir(work_root, "put");
  ResultStore writer(store_at(put_dir.path()));
  const auto impls = executor.implementations();
  std::vector<double> lookup_us;
  std::vector<double> put_us;
  std::uint64_t misses = 0;
  const std::uint64_t store_layer = log.begin("layer.store", root);
  for (std::size_t p = 0; p < tests.size(); ++p) {
    for (const auto& input : tests[p].inputs) {
      for (const auto& impl : impls) {
        const RunKey key{tests[p].program.fingerprint(), input.to_string(),
                         store_impl_identity(impl, executor.impl_identity(impl))};
        std::optional<core::RunResult> hit;
        lookup_us.push_back(1e6 * log.timed("store.lookup", store_layer, static_cast<int>(p),
                                            [&] { hit = reader.lookup(key); }));
        if (!hit) {
          ++misses;
          continue;
        }
        put_us.push_back(1e6 * log.timed("store.put", store_layer, static_cast<int>(p),
                                         [&] { writer.put(key, *hit); }));
      }
    }
  }
  log.end(store_layer);

  double files = 0.0;
  double bytes = 0.0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(prepared.store_dir->path())) {
    if (!entry.is_regular_file()) continue;
    files += 1.0;
    bytes += static_cast<double>(entry.file_size());
  }
  const double lookups = static_cast<double>(traced.store.hits + traced.store.misses);
  m["store.lookup_us.p50"] = pct(lookup_us, 50);
  m["store.lookup_us.p90"] = pct(lookup_us, 90);
  m["store.put_us.p50"] = pct(put_us, 50);
  m["store.put_us.p90"] = pct(put_us, 90);
  m["store.hit_ratio"] = lookups > 0.0 ? static_cast<double>(traced.store.hits) / lookups : 0.0;
  m["store.files"] = files;
  m["store.bytes"] = bytes;
  return misses;
}

/// core/outlier + differ over every outcome, and harness/report.
void replay_classify_and_report(SpanLog& log, std::uint64_t root,
                                const CampaignConfig& config,
                                const harness::CampaignResult& result, Values& m) {
  core::OutlierParams params;
  params.alpha = config.alpha;
  params.beta = config.beta;
  params.min_time_us = static_cast<double>(config.min_time_us);
  const core::OutlierDetector detector(params);
  double classify_s = 0.0;
  const std::uint64_t classify_layer = log.begin("layer.classify", root);
  for (const auto& outcome : result.outcomes) {
    classify_s += log.timed("classify.outcome", classify_layer, outcome.program_index, [&] {
      (void)detector.analyze(outcome.runs);
      (void)core::analyze_run_outputs(outcome.runs, core::exact_tolerance());
    });
  }
  log.end(classify_layer);
  std::string json;
  const double to_json_s =
      log.timed("report.to_json", root, -1, [&] { json = harness::to_json(result); });

  m["classify.us_per_outcome"] =
      1e6 * classify_s / static_cast<double>(result.outcomes.size());
  m["report.to_json_ms"] = 1e3 * to_json_s;
  m["report.bytes"] = static_cast<double>(json.size());
}

}  // namespace

BenchResult run_traced(const Workload& w, const std::string& work_root,
                       const std::string& trace_file) {
  BenchResult out;
  Values m;
  SpanLog log;
  const std::uint64_t root = log.begin("bench.traced", 0);

  Prepared prepared;
  log.timed("setup", root, -1, [&] { prepared = set_up(w, work_root); });
  out.failed += prepared.fill_failed;
  std::vector<std::uint64_t> reference = prepared.fill_digests;

  // Untraced repetition: the reference wall time and digests.
  double untraced_wall = 0.0;
  {
    const Repetition rep(w, prepared, work_root);
    const CampaignRun plain = run_campaign(w.config, *rep.executor, rep.store.get());
    untraced_wall = plain.wall;
    log.add("campaign.untraced", root, plain.start, plain.start + plain.wall);
    const auto digests = triple_digests(plain.result, w.backend);
    if (reference.empty()) reference = digests;
    out.attempted += digests.size();
    out.failed += failed_triples(plain.result, digests, reference);
  }

  Repetition rep(w, prepared, work_root);
  const TracedCampaign traced = trace_campaign(log, root, w, rep);
  const harness::CampaignResult& result = traced.run.result;
  const auto digests = triple_digests(result, w.backend);
  out.attempted += digests.size();
  out.failed += failed_triples(result, digests, reference) + traced.store.misses;
  out.digest = hex(combine(reference));

  std::vector<double> batch_ms;
  std::map<int, double> batch_s_by_program;
  for (const Span& s : log.spans()) {
    if (s.name != "exec.run_batch") continue;
    batch_ms.push_back(1e3 * (s.end - s.start));
    batch_s_by_program[s.program] += s.end - s.start;
  }
  const double threads = static_cast<double>(resolve_thread_count(w.config.threads));
  m["campaign.execute_s"] = traced.execute_s;
  m["campaign.merge_s"] = traced.merge_s;
  m["exec.run_batch_ms.p50"] = pct(batch_ms, 50);
  m["exec.run_batch_ms.p90"] = pct(batch_ms, 90);
  m["exec.calls"] = static_cast<double>(batch_ms.size());
  m["exec.busy_share"] =
      traced.execute_s > 0.0 ? 1e-3 * total(batch_ms) / (threads * traced.execute_s) : 0.0;
  m["scheduler.stolen_units"] = static_cast<double>(traced.run.scheduler.stolen_units);
  m["scheduler.batches"] = static_cast<double>(traced.run.scheduler.batches);
  m["analysis.interval_rescued"] =
      static_cast<double>(result.analysis.interval_rescued_drafts);
  m["trace.overhead_ms"] = 1e3 * (traced.run.wall - untraced_wall);
  m["trace.overhead_share"] = (traced.run.wall - untraced_wall) / untraced_wall;

  // Layer replays over the campaign's own programs.
  const harness::Campaign campaign(w.config, *rep.executor);
  std::vector<std::string> tus;
  const auto tests = replay_front_end(log, root, campaign, tus, m);
  if (w.backend == Backend::Gxx) {
    replay_gxx(log, root, w, tests, tus, traced, work_root, m);
  } else if (w.store_rerun) {
    out.failed += replay_store(log, root, prepared, *rep.executor, tests, traced,
                               work_root, m);
    // Blocking steps: the two campaign phases account for the untraced wall.
    m["campaign.blocking_share"] = (traced.execute_s + traced.merge_s) / untraced_wall;
  } else {
    replay_sim(log, root, dynamic_cast<harness::SimExecutor&>(*rep.executor), tests,
               batch_s_by_program, m);
  }
  replay_classify_and_report(log, root, w.config, result, m);
  log.end(root);

  const std::vector<Span> spans = log.spans();
  std::fprintf(stderr, "%-32s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, t] : self_times(spans)) {
    std::fprintf(stderr, "%-32s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.calls), 1e3 * t.total_s,
                 1e3 * t.self_s);
  }
  write_chrome_trace(spans, trace_file);
  std::fprintf(stderr, "bench_e2e: %zu spans written to %s\n", spans.size(),
               trace_file.c_str());

  out.failed = std::min(out.failed, out.attempted);
  m["check.fail_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = m.find(name);
    out.metrics.push_back({name, it == m.end() ? 0.0 : it->second, unit});
  }
  out.detail = {
      {"untraced_wall_s", untraced_wall},
      {"traced_wall_s", traced.run.wall},
      {"samples.exec.run_batch", static_cast<double>(batch_ms.size())},
      {"samples.programs", static_cast<double>(tests.size())},
      {"spans", static_cast<double>(spans.size())},
  };
  return out;
}

}  // namespace bench_e2e
