#include "harness/subprocess_executor.hpp"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "emit/codegen.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

/// Splits a command line on spaces (the templates use no quoting).
std::vector<std::string> tokenize(const std::string& command) {
  std::vector<std::string> out;
  for (auto& tok : split(command, ' ')) {
    if (!trim(tok).empty()) out.emplace_back(trim(tok));
  }
  return out;
}

/// Successful exit, no timeout, no signal.
bool succeeded(const ProcessResult& proc) {
  return !proc.timed_out && !proc.signaled && proc.exit_code == 0;
}

/// Parses a full line as a double: the emitted programs print "<comp>\n"
/// first, so anything with trailing junk (or an empty line) is a
/// miscompilation symptom, not a value.
bool parse_comp_line(const std::string& line, double& out) {
  const char* begin = line.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  if (end == begin) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

}  // namespace

SubprocessOptions to_subprocess_options(const ExecutorConfig& cfg) {
  SubprocessOptions opt;
  opt.work_dir = cfg.work_dir;
  opt.run_timeout_ms = cfg.run_timeout_ms;
  opt.compile_timeout_ms = cfg.compile_timeout_ms;
  opt.concurrent_runs = cfg.concurrent_runs;
  opt.max_inflight = cfg.max_inflight;
  return opt;
}

bool is_gxx_like(const std::string& program) {
  std::string name = program.substr(program.rfind('/') + 1);  // npos + 1 == 0
  // Drop a trailing "-<ver>" (digits and dots, starting with a digit).
  if (const auto dash = name.rfind('-');
      dash != std::string::npos && dash + 1 < name.size() &&
      std::isdigit(static_cast<unsigned char>(name[dash + 1])) != 0 &&
      name.find_first_not_of("0123456789.", dash + 1) == std::string::npos) {
    name.resize(dash);
  }
  return name == "g++" || (name.size() > 4 && name.ends_with("-g++"));
}

std::vector<std::string> compile_argv(const std::string& command,
                                      const std::string& src,
                                      const std::string& bin,
                                      const std::string& pch_header) {
  std::vector<std::string> argv = tokenize(command);
  for (auto& arg : argv) {
    arg = replace_all(replace_all(arg, "{src}", src), "{bin}", bin);
  }
  if (!pch_header.empty() && !argv.empty()) {
    argv.insert(argv.begin() + 1, {"-include", pch_header});
  }
  return argv;
}

std::vector<std::string> prelude_build_argv(const std::string& command,
                                            const std::string& header) {
  std::vector<std::string> argv = compile_argv(command, header, header + ".gch");
  if (!argv.empty()) argv.insert(argv.begin() + 1, {"-x", "c++-header"});
  return argv;
}

SubprocessExecutor::SubprocessExecutor(std::vector<ImplementationSpec> impls,
                                       SubprocessOptions options)
    : impls_(std::move(impls)), options_(std::move(options)),
      pch_builds_(telemetry::Registry::global().counter("exec.pch_builds")),
      pch_failures_(telemetry::Registry::global().counter("exec.pch_failures")),
      pch_compiles_(telemetry::Registry::global().counter("exec.pch_compiles")) {
  OMPFUZZ_CHECK(!impls_.empty(), "SubprocessExecutor needs implementations");
  preludes_.resize(impls_.size());
  for (std::size_t i = 0; i < impls_.size(); ++i) {
    const std::vector<std::string> argv = tokenize(impls_[i].compile_command);
    OMPFUZZ_CHECK(!argv.empty(),
                  "implementation '" + impls_[i].name + "' has no compile command");
    const bool inserted = impl_index_.emplace(impls_[i].name, i).second;
    OMPFUZZ_CHECK(inserted, "duplicate implementation: " + impls_[i].name);
    if (is_gxx_like(argv.front())) {
      preludes_[i].state = Prelude::State::Idle;
      preludes_[i].header =
          options_.work_dir + "/pch/" + impls_[i].name + "/prelude.hpp";
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    throw Error("cannot create work_dir '" + options_.work_dir +
                "': " + ec.message());
  }
  pool_.emplace(static_cast<std::size_t>(
      options_.max_inflight < 0 ? 0 : options_.max_inflight));
}

SubprocessExecutor::~SubprocessExecutor() {
  closing_ = true;
  pool_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(options_.work_dir + "/pch", ignored);
}

std::vector<std::string> SubprocessExecutor::implementations() const {
  std::vector<std::string> names;
  names.reserve(impls_.size());
  for (const auto& impl : impls_) names.push_back(impl.name);
  return names;
}

std::string SubprocessExecutor::impl_identity(
    const std::string& impl_name) const {
  const ImplementationSpec& spec = spec_for(impl_name);
  return "subprocess;cmd=" + spec.compile_command +
         ";run_timeout_ms=" + std::to_string(options_.run_timeout_ms) +
         ";compile_timeout_ms=" + std::to_string(options_.compile_timeout_ms);
}

std::size_t SubprocessExecutor::index_of(const std::string& impl_name) const {
  const auto it = impl_index_.find(impl_name);
  OMPFUZZ_CHECK(it != impl_index_.end(), "unknown implementation: " + impl_name);
  return it->second;
}

const ImplementationSpec& SubprocessExecutor::spec_for(
    const std::string& impl_name) const {
  return impls_[index_of(impl_name)];
}

void SubprocessExecutor::build_prelude(std::size_t i) {
  const std::string& header = preludes_[i].header;  // fixed at construction
  pch_builds_.add(1);
  const auto fail = [&] {
    pch_failures_.add(1);
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    preludes_[i].state = Prelude::State::Failed;
  };
  try {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(header).parent_path(), ec);
    std::ofstream out(header);
    if (ec || !(out << emit::prelude()) || !out.flush()) {
      fail();
      return;
    }
    out.close();
    ProcessJob job;
    job.argv = prelude_build_argv(impls_[i].compile_command, header);
    job.timeout_ms = options_.compile_timeout_ms;
    std::uint64_t span_start_ns = 0;
    if (telemetry::Tracer::instance().active()) {
      span_start_ns = telemetry::Tracer::now_ns() + 1;
    }
    pool_->submit(std::move(job), [this, i, span_start_ns](ProcessResult build) {
      if (span_start_ns != 0) {
        telemetry::Tracer::instance().complete(
            "compile", "compile", span_start_ns - 1, telemetry::Tracer::now_ns(),
            "\"impl\":\"" + impls_[i].name + "\",\"pch\":true");
      }
      if (closing_) return;  // killed by the destructor, not a failed build
      const bool ok = succeeded(build);
      if (!ok) pch_failures_.add(1);
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      preludes_[i].state = ok ? Prelude::State::Ready : Prelude::State::Failed;
    });
  } catch (...) {
    // The PCH is an optimisation: its failure must not fail the compile
    // that happened to start it.
    fail();
  }
}

std::shared_future<SubprocessExecutor::CompileOutcome>
SubprocessExecutor::ensure_binary(const TestCase& test, std::size_t impl_index) {
  const ImplementationSpec& impl = impls_[impl_index];
  const auto key = std::make_pair(test.program.fingerprint(), impl.name);
  auto promise = std::make_shared<std::promise<CompileOutcome>>();
  std::shared_future<CompileOutcome> future = promise->get_future().share();
  std::string pch_header;  // non-empty: compile with the precompiled prelude
  bool start_build = false;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = binary_cache_.find(key); it != binary_cache_.end()) {
      // A cached compile that the HARNESS failed to run (spawn failure,
      // compile timeout) must not satisfy later requests: the retry layer
      // re-dispatches exactly such triples, and serving the stale failure
      // would make every retry fail forever. Evict it and recompile.
      // Genuine rejections (compiler diagnosed the program) stay cached.
      bool stale_failure = false;
      if (it->second.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        try {
          stale_failure = it->second.get().harness_failure;
        } catch (...) {
          stale_failure = true;  // poisoned promise: retry the compile
        }
      }
      if (!stale_failure) return it->second;
      binary_cache_.erase(it);
      artifact_stems_.erase(key);
    }
    // Insert the future before compiling: a second thread asking for the
    // same (program, impl) waits on it instead of clobbering the same
    // source/binary files — and distinct keys compile concurrently, where
    // the old design serialized every emit+compile behind one mutex.
    binary_cache_.emplace(key, future);
    // A ready PCH is used; a building or failed one is not waited for. The
    // command's second distinct program starts the build: a one-program
    // campaign would only pay for it.
    Prelude& prelude = preludes_[impl_index];
    if (prelude.state == Prelude::State::Ready) {
      pch_header = prelude.header;
    } else if (prelude.state == Prelude::State::Idle) {
      if (!prelude.first_program) {
        prelude.first_program = key.first;
      } else if (*prelude.first_program != key.first) {
        prelude.state = Prelude::State::Building;
        start_build = true;
      }
    }
  }
  if (start_build) build_prelude(impl_index);

  // The fingerprint is part of the file stem, not just the cache key: with
  // compiles now concurrent, two same-named programs with different bodies
  // would otherwise race on the same source/binary paths.
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(test.program.fingerprint()));
  const std::string stem = options_.work_dir + "/" + test.program.name() +
                           "_" + fp_hex + "_" + impl.name;
  const std::string src = stem + ".cpp";
  const std::string bin = stem + ".bin";
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    artifact_stems_[key] = stem;
  }
  // Injected compile-spawn failure: the harness could not even launch the
  // compiler. Same CompileOutcome shape as a real spawn failure, so the
  // retry layer (which evicts harness-failed compiles above) exercises the
  // exact recovery path a loaded machine would need.
  if (inject_fault(FaultSite::CompileSpawn)) {
    CompileOutcome outcome;
    outcome.harness_failure = true;
    promise->set_value(std::move(outcome));
    return future;
  }
  // Any failure from here on must poison the cached promise, or every later
  // requester of this key would block forever on a future nobody fulfills.
  try {
    {
      std::ofstream out(src);
      if (!out) throw Error("cannot write " + src);
      out << emit::emit_translation_unit(test.program);
    }
    ProcessJob job;
    job.argv = compile_argv(impl.compile_command, src, bin, pch_header);
    job.timeout_ms = options_.compile_timeout_ms;
    if (!pch_header.empty()) pch_compiles_.add(1);
    // The compile span covers submit-to-completion (queueing included — that
    // wait is real campaign latency), so the start is captured here and the
    // event emitted from the pool's completion callback.
    std::string span_args;
    std::uint64_t span_start_ns = 0;
    if (telemetry::Tracer::instance().active()) {
      span_start_ns = telemetry::Tracer::now_ns() + 1;
      span_args = "\"fingerprint\":\"" +
                  telemetry::hex_fingerprint(test.program.fingerprint()) +
                  "\",\"impl\":\"" + impl.name + "\"";
    }
    pool_->submit(std::move(job), [promise, bin, span_start_ns,
                                  span_args =
                                      std::move(span_args)](ProcessResult
                                                                compile) {
      if (span_start_ns != 0) {
        telemetry::Tracer::instance().complete("compile", "compile",
                                               span_start_ns - 1,
                                               telemetry::Tracer::now_ns(),
                                               span_args);
      }
      CompileOutcome outcome;
      // Injected compile deadline: a finished compile is reclassified as
      // timed out (harness failure), exactly what a stalled machine does.
      if (inject_fault(FaultSite::CompileTimeout)) compile.timed_out = true;
      if (succeeded(compile)) {
        outcome.bin = bin;
      } else {
        // No binary. A compiler diagnosing/rejecting the program (nonzero
        // exit with output) is a real observation; a timeout or an
        // unspawnable compile (exit 127, no output) is the harness failing.
        outcome.harness_failure =
            compile.timed_out ||
            (compile.exit_code == 127 && compile.output.empty());
      }
      promise->set_value(std::move(outcome));
    });
  } catch (...) {
    promise->set_exception(std::current_exception());
    throw;
  }
  return future;
}

core::RunResult SubprocessExecutor::classify(const ProcessResult& proc,
                                             const std::string& impl_name) {
  core::RunResult result;
  result.impl = impl_name;
  if (proc.timed_out) {
    result.status = core::RunStatus::Hang;
    return result;
  }
  if (proc.signaled || proc.exit_code != 0) {
    result.status = core::RunStatus::Crash;
    // Exit 127 with no output is the process pool's fabricated result for a
    // child it could not spawn (fork/pipe exhaustion) — a harness failure,
    // not an observation of the implementation. Generated binaries return
    // 0/2 or die by signal, so this shape cannot be a genuine test outcome.
    result.harness_failure = proc.exit_code == 127 && proc.output.empty();
    return result;
  }

  // Expected output: "<comp>\n" then "time_us: <n>\n". A binary that exits 0
  // without a parseable comp value miscompiled its own output path — that is
  // an abnormal termination for the differ, not a silent 0.0.
  const auto lines = split(proc.output, '\n');
  if (lines.empty() || !parse_comp_line(lines[0], result.output)) {
    result.status = core::RunStatus::Crash;
    return result;
  }
  result.status = core::RunStatus::Ok;
  for (const auto& line : lines) {
    if (starts_with(line, "time_us: ")) {
      result.time_us = std::strtod(line.c_str() + 9, nullptr);
    }
  }
  return result;
}

std::vector<core::RunResult> SubprocessExecutor::run_batch(
    const TestCase& test, const std::vector<std::size_t>& input_indices,
    const std::vector<std::string>& impls) {
  for (const std::size_t input_index : input_indices) {
    OMPFUZZ_CHECK(input_index < test.inputs.size(), "input index out of range");
  }

  // Stage 1 — compile queue: one in-flight compile per distinct
  // implementation of this program (cross-program concurrency comes from the
  // shared pool: other campaign workers' batches overlap these).
  std::vector<std::shared_future<CompileOutcome>> binaries;
  binaries.reserve(impls.size());
  for (const auto& impl : impls) {
    binaries.push_back(ensure_binary(test, index_of(impl)));
  }

  // Stage 2 — run queue: each implementation's runs enter the pool as soon
  // as ITS compile finishes (readiness order, not impl order — a slow
  // gcc compile must not gate the runs of an already-built clang binary);
  // quiet-timing mode marks them exclusive so the pool runs them one at a
  // time with nothing else in flight.
  const std::size_t n = input_indices.size() * impls.size();
  std::vector<core::RunResult> results(n);
  std::vector<std::future<ProcessResult>> children(n);
  const auto submit_runs = [&](std::size_t j) {
    const CompileOutcome compile = binaries[j].get();
    for (std::size_t i = 0; i < input_indices.size(); ++i) {
      const std::size_t k = i * impls.size() + j;
      if (compile.bin.empty()) {
        // A compiler that rejects a valid program is itself a correctness
        // bug; surfaced like an abnormal termination. A compile the harness
        // failed to run at all is marked so the result is never persisted.
        results[k].impl = impls[j];
        results[k].status = core::RunStatus::Crash;
        results[k].harness_failure = compile.harness_failure;
        continue;
      }
      ProcessJob job;
      job.argv.push_back(compile.bin);
      for (auto& arg : test.inputs[input_indices[i]].to_argv()) {
        job.argv.push_back(std::move(arg));
      }
      job.timeout_ms = options_.run_timeout_ms;
      job.exclusive = !options_.concurrent_runs;
      children[k] = pool_->submit(std::move(job));
    }
  };
  std::vector<bool> submitted(impls.size(), false);
  std::size_t outstanding = impls.size();
  while (outstanding > 0) {
    bool progressed = false;
    for (std::size_t j = 0; j < impls.size(); ++j) {
      if (submitted[j] || binaries[j].wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready) {
        continue;
      }
      submit_runs(j);
      submitted[j] = true;
      --outstanding;
      progressed = true;
    }
    if (outstanding == 0 || progressed) continue;
    // Nothing newly ready: nap on one outstanding compile. The 10 ms
    // granularity is noise against compile times, and only this worker
    // thread naps — the pool keeps every child running.
    for (std::size_t j = 0; j < impls.size(); ++j) {
      if (!submitted[j]) {
        (void)binaries[j].wait_for(std::chrono::milliseconds(10));
        break;
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (!children[k].valid()) continue;  // compile failure, already Crash
    results[k] = classify(children[k].get(), impls[k % impls.size()]);
  }
  return results;
}

core::RunResult SubprocessExecutor::run(const TestCase& test,
                                        std::size_t input_index,
                                        const std::string& impl_name) {
  return run_batch(test, {input_index}, {impl_name}).front();
}

void SubprocessExecutor::reclaim_artifacts(std::uint64_t program_fingerprint) {
  // Collect under the cache mutex, unlink outside it (unlink can hit disk).
  // Only finished compiles are reclaimed: a pending future's submitter will
  // still read it, and its files are about to be written — the next
  // reclaim_artifacts call for this program picks those up.
  std::vector<std::string> stems;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = binary_cache_.lower_bound({program_fingerprint, std::string()});
    while (it != binary_cache_.end() && it->first.first == program_fingerprint) {
      if (it->second.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      if (const auto stem = artifact_stems_.find(it->first);
          stem != artifact_stems_.end()) {
        stems.push_back(stem->second);
        artifact_stems_.erase(stem);
      }
      it = binary_cache_.erase(it);
    }
  }
  for (const auto& stem : stems) {
    // Best-effort: a compile that never produced the binary (rejection,
    // harness failure) simply has nothing to unlink.
    (void)::unlink((stem + ".cpp").c_str());
    (void)::unlink((stem + ".bin").c_str());
  }
}

}  // namespace ompfuzz::harness
