// bench_e2e: the end-to-end campaign benchmark of ompfuzz.
//
//   bench_e2e --workload <sim-interp|gxx-compile|store-rerun> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--work-root <dir>]
//             [--trace-file <path>]
//
// --trace 0, the timed run: set the workload up kSetupReps times (the
// median is setup_s), then run its campaign through harness::Campaign in a
// closed loop — each repetition starts when the previous one returns — for
// about --seconds (at least kMinReps repetitions), and report medians over
// the repetitions. --trace 1, the traced run: per-layer metrics
// (traced.cpp). --smoke shrinks every workload to a handful of programs.
//
// Every run checks its outputs: each triple's digest must repeat across
// repetitions (on store-rerun: equal what the cold fill executed), and
// harness-fabricated runs and store misses on a rerun count as failed. The
// last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// after one {"detail": {...}} line (campaign digest, sample counts).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/json_writer.hpp"
#include "support/stats.hpp"
#include "workload.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace bench_e2e {
namespace {

using namespace ompfuzz;

constexpr int kSetupReps = 3;
constexpr std::size_t kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_root = ".bench_build/work";
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload <sim-interp|gxx-compile|store-rerun> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--work-root <dir>] [--trace-file <path>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(value, flag);
    } else if (flag == "--seconds") {
      args.seconds = parse_uint(value, flag);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-root") {
      args.work_root = value;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

BenchResult run_timed(const Workload& w, const Args& args) {
  BenchResult out;

  // Set-up, several times: setup_s is the median, and every cold fill must
  // execute the same triples.
  std::vector<double> setup_s;
  Prepared prepared;
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = wall_s();
    Prepared next = set_up(w, args.work_root);
    setup_s.push_back(wall_s() - t0);
    out.attempted += next.fill_digests.size();
    out.failed += next.fill_failed;
    if (k > 0 && next.fill_digests != prepared.fill_digests) {
      out.failed += next.fill_digests.size();
    }
    prepared = std::move(next);
  }

  // The measured closed loop. A repetition starts only while it is expected
  // to end within --seconds (the previous one's duration), so a run measures
  // about --seconds whatever the workload's repetition length.
  std::vector<std::uint64_t> reference = prepared.fill_digests;
  std::vector<double> triples_per_s;
  std::vector<double> cpu_ms_per_triple;
  std::size_t triples = 0;
  const double loop_start = wall_s();
  double last = 0.0;
  while (triples_per_s.size() < kMinReps ||
         wall_s() - loop_start + last <= static_cast<double>(args.seconds)) {
    const double rep_start = wall_s();
    const Repetition rep(w, prepared, args.work_root);
    const CampaignRun run = run_campaign(w.config, *rep.executor, rep.store.get());
    const auto digests = triple_digests(run.result, w.backend);
    if (reference.empty()) reference = digests;
    std::uint64_t failed = failed_triples(run.result, digests, reference);
    // On a rerun every triple must come from the store: a miss means the
    // campaign executed work the fill should have cached.
    if (rep.store) failed += rep.store->stats().misses;
    triples = digests.size();
    out.attempted += triples;
    out.failed += std::min<std::uint64_t>(failed, triples);
    triples_per_s.push_back(static_cast<double>(triples) / run.wall);
    cpu_ms_per_triple.push_back(1e3 * run.cpu / static_cast<double>(triples));
    last = wall_s() - rep_start;
  }
  out.digest = hex(combine(reference));
  out.failed = std::min(out.failed, out.attempted);

  out.metrics = {
      {"triples_per_s", median(triples_per_s), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"cpu_ms_per_triple", median(cpu_ms_per_triple), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const auto [lo, hi] =
      std::minmax_element(triples_per_s.begin(), triples_per_s.end());
  out.detail = {
      {"repetitions", static_cast<double>(triples_per_s.size())},
      {"setup_repetitions", static_cast<double>(kSetupReps)},
      {"triples_per_repetition", static_cast<double>(triples)},
      {"triples_per_s.min", *lo},
      {"triples_per_s.max", *hi},
      {"setup_s.min", *std::min_element(setup_s.begin(), setup_s.end())},
      {"setup_s.max", *std::max_element(setup_s.begin(), setup_s.end())},
  };
  return out;
}

void print_result(const Args& args, const BenchResult& r) {
  JsonWriter detail;
  detail.begin_object().key("detail").begin_object();
  detail.key("workload").value(args.workload);
  detail.key("seed").value(args.seed);
  detail.key("mode").value(args.trace ? "traced" : "timed");
  detail.key("smoke").value(args.smoke);
  detail.key("build_type").value(BENCH_E2E_BUILD_TYPE);
  detail.key("digest").value(r.digest);
  for (const auto& [key, value] : r.detail) detail.key(key).value(value);
  detail.end_object().end_object();

  JsonWriter result;
  result.begin_object();
  result.key("correct").value(r.failed == 0);
  result.key("attempted").value(r.attempted);
  result.key("failed").value(r.failed);
  result.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    result.key(m.name).begin_object();
    result.key("value").value(m.value);
    result.key("unit").value(m.unit);
    result.end_object();
  }
  result.end_object().end_object();
  std::printf("%s\n%s\n", detail.str().c_str(), result.str().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  using namespace bench_e2e;
  const Args args = parse_args(argc, argv);
  if (std::string(BENCH_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "bench_e2e: WARNING: %s build — timings are not comparable\n",
                 BENCH_E2E_BUILD_TYPE);
  }
  try {
    const Workload workload = make_workload(args.workload, args.seed, args.smoke);
    const std::string trace_file =
        !args.trace_file.empty()
            ? args.trace_file
            : ".bench_build/traces/" + args.workload + "-" +
                  std::to_string(args.seed) + ".json";
    const BenchResult result = args.trace
                                   ? run_traced(workload, args.work_root, trace_file)
                                   : run_timed(workload, args);
    print_result(args, result);
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
