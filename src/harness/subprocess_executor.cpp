#include "harness/subprocess_executor.hpp"

#include <unistd.h>

#include <cctype>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "emit/codegen.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/json_writer.hpp"
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
    // A command that cannot be spawned would only surface as harness
    // failures, retried and quarantined triple by triple.
    const std::string exe = resolve_executable(argv.front());
    std::error_code ec;
    if (!std::filesystem::is_regular_file(exe, ec) ||
        ::access(exe.c_str(), X_OK) != 0) {
      throw Error("implementation '" + impls_[i].name + "': compiler '" +
                  argv.front() + "' is not an executable file");
    }
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
         ";compile_timeout_ms=" + std::to_string(options_.compile_timeout_ms) +
         ";emit=" + std::to_string(emit::kHarnessVersion);
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
    const std::lock_guard<std::mutex> lock(prelude_mutex_);
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
            "\"impl\":\"" + JsonWriter::escape(impls_[i].name) +
                "\",\"pch\":true");
      }
      if (closing_) return;  // killed by the destructor, not a failed build
      const bool ok = succeeded(build);
      if (!ok) pch_failures_.add(1);
      const std::lock_guard<std::mutex> lock(prelude_mutex_);
      preludes_[i].state = ok ? Prelude::State::Ready : Prelude::State::Failed;
    });
  } catch (...) {
    // The PCH is an optimisation: its failure must not fail the compile
    // that happened to start it.
    fail();
  }
}

/// What one run_batch call shares with its pool callbacks. Every callback
/// co-owns it, so none ever writes into a run_batch frame that has returned
/// or unwound.
struct SubprocessExecutor::Batch {
  /// Per input index: the run's argv after the binary.
  std::vector<std::vector<std::string>> inputs;
  /// Input-major, like run_batch's result; slot k is written by one callback.
  std::vector<core::RunResult> results;
  std::mutex mutex;
  std::condition_variable idle;
  std::size_t jobs = 0;  ///< submitted compiles and runs not yet completed

  void add_job() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++jobs;
  }
  void job_done() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (--jobs == 0) idle.notify_all();
  }
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock, [this] { return jobs == 0; });
  }
};

/// The files one run_batch call owns. The destructor waits until no job of
/// the batch is left in the pool (only an exception leaves one by then),
/// then unlinks each stem's source and binary: nothing a batch compiles
/// outlives it, on any path, and no late `.bin` lands or runs after the
/// unlink.
struct SubprocessExecutor::BatchArtifacts {
  std::shared_ptr<Batch> batch = std::make_shared<Batch>();
  std::vector<std::string> stems;

  BatchArtifacts() = default;
  BatchArtifacts(const BatchArtifacts&) = delete;
  BatchArtifacts& operator=(const BatchArtifacts&) = delete;
  ~BatchArtifacts() {
    batch->wait_idle();
    for (const auto& stem : stems) {
      // Best-effort: a compile that never produced the binary (rejection,
      // harness failure) simply has nothing to unlink.
      (void)::unlink((stem + ".cpp").c_str());
      (void)::unlink((stem + ".bin").c_str());
    }
  }
};

void SubprocessExecutor::submit_compile(
    const TestCase& test, std::size_t impl_index, const std::string& stem,
    std::function<void(CompileOutcome)> then) {
  const ImplementationSpec& impl = impls_[impl_index];
  std::string pch_header;  // non-empty: compile with the precompiled prelude
  bool start_build = false;
  {
    // A ready PCH is used; a building or failed one is not waited for. The
    // command's second distinct program starts the build: a one-program
    // campaign would only pay for it.
    const std::lock_guard<std::mutex> lock(prelude_mutex_);
    Prelude& prelude = preludes_[impl_index];
    if (prelude.state == Prelude::State::Ready) {
      pch_header = prelude.header;
    } else if (prelude.state == Prelude::State::Idle) {
      if (!prelude.first_program) {
        prelude.first_program = test.program.fingerprint();
      } else if (*prelude.first_program != test.program.fingerprint()) {
        prelude.state = Prelude::State::Building;
        start_build = true;
      }
    }
  }
  if (start_build) build_prelude(impl_index);

  // Injected compile-spawn failure: the harness could not even launch the
  // compiler. Same CompileOutcome shape as a real spawn failure, so the
  // campaign's retry layer exercises the exact recovery path a loaded
  // machine would need.
  if (inject_fault(FaultSite::CompileSpawn)) {
    CompileOutcome outcome;
    outcome.harness_failure = true;
    then(std::move(outcome));
    return;
  }
  const std::string src = stem + ".cpp";
  const std::string bin = stem + ".bin";
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
                "\",\"impl\":\"" + JsonWriter::escape(impl.name) + "\"";
  }
  pool_->submit(std::move(job), [then = std::move(then), bin, span_start_ns,
                                span_args = std::move(span_args)](
                                   ProcessResult compile) {
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
      // exit with output) is a real observation; a timeout or a lost
      // compile is the harness failing.
      outcome.harness_failure = compile.timed_out || compile.is_lost();
    }
    then(std::move(outcome));
  });
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
    // A lost child is a harness failure, not an observation of the
    // implementation.
    result.harness_failure = proc.is_lost();
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

  // One compile per implementation of this program (cross-program
  // concurrency comes from the shared pool: other campaign workers' batches
  // overlap these). Each compile's completion submits that implementation's
  // runs — readiness order, not impl order: a slow gcc compile must not gate
  // the runs of an already-built clang binary. Quiet-timing mode marks the
  // runs exclusive so the pool runs them one at a time with nothing else in
  // flight. The stem is registered before its source is written, so every
  // file lands under the owner that unlinks it.
  BatchArtifacts artifacts;
  const std::shared_ptr<Batch>& batch = artifacts.batch;
  for (const std::size_t input_index : input_indices) {
    batch->inputs.push_back(test.inputs[input_index].to_argv());
  }
  batch->results.resize(input_indices.size() * impls.size());
  const std::string fingerprint =
      telemetry::hex_fingerprint(test.program.fingerprint());
  for (std::size_t j = 0; j < impls.size(); ++j) {
    const std::size_t index = index_of(impls[j]);
    artifacts.stems.push_back(options_.work_dir + "/" + test.program.name() +
                              "_" + fingerprint + "_" + impls[j] + "_" +
                              std::to_string(next_stem_.fetch_add(1)));
    const auto submit_runs = [this, batch, j, width = impls.size(),
                              impl = impls[j]](const CompileOutcome& compile) {
      for (std::size_t i = 0; i < batch->inputs.size(); ++i) {
        const std::size_t k = i * width + j;
        if (compile.bin.empty()) {
          // A compiler that rejects a valid program is itself a correctness
          // bug; surfaced like an abnormal termination. A compile the
          // harness failed to run at all is marked so the result is never
          // persisted.
          batch->results[k].impl = impl;
          batch->results[k].status = core::RunStatus::Crash;
          batch->results[k].harness_failure = compile.harness_failure;
          continue;
        }
        ProcessJob job;
        job.argv.push_back(compile.bin);
        job.argv.insert(job.argv.end(), batch->inputs[i].begin(),
                        batch->inputs[i].end());
        job.timeout_ms = options_.run_timeout_ms;
        job.exclusive = !options_.concurrent_runs;
        batch->add_job();
        try {
          pool_->submit(std::move(job), [batch, k, impl](ProcessResult run) {
            batch->results[k] = classify(run, impl);
            batch->job_done();
          });
        } catch (const Error&) {
          // Only a shutting-down pool refuses a job: the run never starts.
          batch->results[k] = classify(ProcessResult::lost(), impl);
          batch->job_done();
        }
      }
      batch->job_done();  // the compile, released once its runs are counted
    };
    batch->add_job();
    try {
      submit_compile(test, index, artifacts.stems.back(), submit_runs);
    } catch (...) {
      batch->job_done();  // never submitted, so its continuation never runs
      throw;
    }
  }
  batch->wait_idle();
  return std::move(batch->results);
}

core::RunResult SubprocessExecutor::run(const TestCase& test,
                                        std::size_t input_index,
                                        const std::string& impl_name) {
  return run_batch(test, {input_index}, {impl_name}).front();
}

}  // namespace ompfuzz::harness
