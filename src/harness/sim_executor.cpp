#include "harness/sim_executor.hpp"

#include <algorithm>

#include "runtime/cost_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

SimExecutor::SimExecutor(SimExecutorOptions options)
    : SimExecutor({rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()},
                  options) {}

SimExecutor::SimExecutor(std::vector<rt::OmpImplProfile> profiles,
                         SimExecutorOptions options)
    : profiles_(std::move(profiles)), options_(options) {
  OMPFUZZ_CHECK(!profiles_.empty(), "SimExecutor needs at least one profile");
}

const rt::OmpImplProfile& SimExecutor::profile(const std::string& name) const {
  for (const auto& p : profiles_) {
    if (p.name == name) return p;
  }
  throw Error("unknown implementation: " + name);
}

std::string SimExecutor::impl_identity(const std::string& impl_name) const {
  const rt::OmpImplProfile& p = profile(impl_name);
  // compiler/runtime_lib distinguish the base vendor profile even when the
  // campaign renames it (campaign_demo maps config names onto profiles).
  return "sim;profile=" + p.name + ";compiler=" + p.compiler +
         ";runtime=" + p.runtime_lib +
         ";num_threads=" + std::to_string(options_.num_threads) +
         ";hang_timeout_us=" + std::to_string(options_.hang_timeout_us) +
         ";max_interp_steps=" + std::to_string(options_.max_interp_steps) +
         ";params=" + telemetry::hex_fingerprint(rt::parameter_digest(p));
}

std::vector<std::string> SimExecutor::implementations() const {
  std::vector<std::string> names;
  names.reserve(profiles_.size());
  for (const auto& p : profiles_) names.push_back(p.name);
  return names;
}

interp::InterpResult SimExecutor::interpret(const TestCase& test,
                                            std::size_t input_index,
                                            const interp::FpSemantics& fp,
                                            std::string_view impls) const {
  OMPFUZZ_CHECK(input_index < test.inputs.size(), "input index out of range");
  telemetry::ScopedSpan span("run", "sim_interpret");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(test.program.fingerprint()));
    span.arg("impls", impls);
    span.arg("input", static_cast<std::uint64_t>(input_index));
  }
  static telemetry::Counter& interpretations =
      telemetry::Registry::global().counter("sim.interpretations");
  interpretations.add();
  interp::InterpOptions iopt;
  iopt.fp = fp;
  iopt.num_threads_override = options_.num_threads;
  iopt.max_steps = options_.max_interp_steps;
  return interp::execute(test.program, test.inputs[input_index], iopt);
}

DetailedRun SimExecutor::price(const TestCase& test, std::size_t input_index,
                               const rt::OmpImplProfile& prof,
                               const interp::InterpResult& ir) const {
  telemetry::ScopedSpan span("run", "sim_run");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(test.program.fingerprint()));
    span.arg("impl", prof.name);
    span.arg("input", static_cast<std::uint64_t>(input_index));
  }
  DetailedRun out;
  out.result.impl = prof.name;
  out.events = ir.events;

  // Deterministic per-(program, input, impl) identity.
  const std::uint64_t run_hash =
      hash_combine(hash_combine(test.program.fingerprint(),
                                test.inputs[input_index].hash()),
                   fnv1a64(prof.name));

  if (ir.over_budget) {
    out.result.status = core::RunStatus::Skipped;
    return out;
  }

  out.fault = rt::decide_fault(test.features, options_.num_threads, prof, run_hash);
  out.time = rt::simulate_time(ir.events, test.features, options_.num_threads,
                               prof, run_hash);
  out.counters = rt::synthesize_counters(ir.events, out.time,
                                         options_.num_threads, prof, run_hash);

  switch (out.fault.kind) {
    case rt::FaultKind::Crash:
      out.result.status = core::RunStatus::Crash;
      return out;
    case rt::FaultKind::Hang:
      out.result.status = core::RunStatus::Hang;
      return out;
    case rt::FaultKind::None:
      break;
  }
  if (out.time.total_us() > static_cast<double>(options_.hang_timeout_us)) {
    out.result.status = core::RunStatus::Hang;
    return out;
  }

  out.result.status = core::RunStatus::Ok;
  out.result.time_us = out.time.total_us();
  out.result.output = ir.comp;
  return out;
}

DetailedRun SimExecutor::run_detailed(const TestCase& test,
                                      std::size_t input_index,
                                      const std::string& impl_name) {
  const rt::OmpImplProfile& prof = profile(impl_name);
  return price(test, input_index, prof,
               interpret(test, input_index, prof.fp, impl_name));
}

core::RunResult SimExecutor::run(const TestCase& test, std::size_t input_index,
                                 const std::string& impl_name) {
  return run_detailed(test, input_index, impl_name).result;
}

std::vector<core::RunResult> SimExecutor::run_batch(
    const TestCase& test, const std::vector<std::size_t>& input_indices,
    const std::vector<std::string>& impls) {
  // Group the implementations by exact FpSemantics: one interpretation per
  // group per input, priced once per member.
  struct Group {
    const interp::FpSemantics* fp;
    std::vector<std::size_t> members;  ///< positions in `impls`
    std::string label;                 ///< member names, for the span
  };
  std::vector<Group> groups;
  for (std::size_t j = 0; j < impls.size(); ++j) {
    const interp::FpSemantics& fp = profile(impls[j]).fp;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const Group& g) { return *g.fp == fp; });
    if (it == groups.end()) it = groups.insert(it, Group{&fp, {}, {}});
    it->label += it->members.empty() ? impls[j] : "," + impls[j];
    it->members.push_back(j);
  }

  std::vector<core::RunResult> results(input_indices.size() * impls.size());
  for (std::size_t ii = 0; ii < input_indices.size(); ++ii) {
    for (const Group& g : groups) {
      const interp::InterpResult ir =
          interpret(test, input_indices[ii], *g.fp, g.label);
      for (const std::size_t j : g.members) {
        results[ii * impls.size() + j] =
            price(test, input_indices[ii], profile(impls[j]), ir).result;
      }
    }
  }
  return results;
}

}  // namespace ompfuzz::harness
