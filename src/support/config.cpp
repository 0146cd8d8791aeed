#include "support/config.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

namespace {

/// Strips an unquoted trailing comment beginning with ';' or '#'.
std::string_view strip_comment(std::string_view line) noexcept {
  const std::size_t pos = line.find_first_of(";#");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::map<std::string, int> key_lines;  // full key -> line that set it
  std::string section;
  int line_no = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("malformed section header at line " + std::to_string(line_no));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("expected 'key = value' at line " + std::to_string(line_no));
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw ConfigError("empty key at line " + std::to_string(line_no));
    }
    const std::string full_key = section.empty() ? key : section + "." + key;
    const auto [it, first] = key_lines.emplace(full_key, line_no);
    if (!first) {
      throw ConfigError("duplicate key '" + full_key + "' at lines " +
                        std::to_string(it->second) + " and " +
                        std::to_string(line_no));
    }
    cfg.set(full_key, value);
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::int64_t ConfigFile::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec == std::errc::result_out_of_range) {
    throw ConfigError("value of '" + key + "' is out of range: " + *v);
  }
  if (ec != std::errc() || ptr != v->data() + v->size()) {
    throw ConfigError("value of '" + key + "' is not an integer: " + *v);
  }
  return out;
}

std::int64_t ConfigFile::get_int(const std::string& key, std::int64_t fallback,
                                 std::int64_t min_value,
                                 std::int64_t max_value) const {
  const std::int64_t out = get_int(key, fallback);
  if (out < min_value || out > max_value) {
    throw ConfigError("value of '" + key + "' is out of range [" +
                      std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]: " + std::to_string(out));
  }
  return out;
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double out = std::stod(*v, &consumed);
    // Reject trailing garbage ("1.5x"): truncating at the first bad
    // character would silently misread the config.
    if (consumed != v->size()) throw std::invalid_argument(*v);
    return out;
  } catch (const std::out_of_range&) {
    throw ConfigError("value of '" + key + "' is out of range: " + *v);
  } catch (const std::exception&) {
    throw ConfigError("value of '" + key + "' is not a number: " + *v);
  }
}

bool ConfigFile::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") return false;
  throw ConfigError("value of '" + key + "' is not a boolean: " + *v);
}

void ConfigFile::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One config key: its name within the section, how it is read into the
/// struct, and the inclusive range the value must lie in (for a string, the
/// range of its length). A row is the only place a key exists: parsing,
/// validate() and unknown-key rejection all read it.
template <typename T>
struct Field {
  std::string_view key;
  void (*read)(const ConfigFile& file, const std::string& key,
               const std::string& value, T& out);
  double (*measure)(const T& obj);  ///< nullptr: the key has no range
  double min, max;
  bool by_length = false;  ///< measure() is a string's length
};

template <typename P> struct MemberOf;
template <typename T, typename M> struct MemberOf<M T::*> {
  using Class = T;
  using Type = M;
};

/// The row for `key`, stored in `member` (a data member, or a member
/// function taking the raw text).
template <auto member>
constexpr auto field(std::string_view key, double min = -kInf,
                     double max = kInf) {
  using T = typename MemberOf<decltype(member)>::Class;
  using M = typename MemberOf<decltype(member)>::Type;
  Field<T> f{key, nullptr, nullptr, min, max, false};
  f.read = [](const ConfigFile& file, const std::string& k,
              const std::string& value, T& out) {
    if constexpr (std::is_function_v<M>) {
      (out.*member)(value);
    } else if constexpr (std::is_same_v<M, bool>) {
      out.*member = file.get_bool(k, false);
    } else if constexpr (std::is_same_v<M, int>) {
      // Range-checked before narrowing: 2^33 is an error, not a wrap.
      out.*member = static_cast<int>(file.get_int(
          k, 0, std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
    } else if constexpr (std::is_integral_v<M>) {
      out.*member = static_cast<M>(file.get_int(k, 0));
    } else if constexpr (std::is_same_v<M, double>) {
      out.*member = file.get_double(k, 0.0);
    } else {
      out.*member = value;
    }
  };
  if constexpr (std::is_same_v<M, std::string>) {
    f.measure = [](const T& obj) {
      return static_cast<double>((obj.*member).size());
    };
    f.by_length = true;
  } else if constexpr (std::is_arithmetic_v<M> && !std::is_same_v<M, bool>) {
    f.measure = [](const T& obj) { return static_cast<double>(obj.*member); };
  }
  return f;
}

/// The field table of one `[name]` section.
template <typename T>
struct Section {
  std::string_view name;
  std::span<const Field<T>> fields;
};

using Gen = GeneratorConfig;
constexpr Field<Gen> kGeneratorFields[] = {
    field<&Gen::max_expression_size>("max_expression_size", 1),
    field<&Gen::max_nesting_levels>("max_nesting_levels", 1),
    field<&Gen::max_lines_in_block>("max_lines_in_block", 1),
    field<&Gen::array_size>("array_size", 1),
    field<&Gen::max_same_level_blocks>("max_same_level_blocks", 1),
    field<&Gen::math_func_allowed>("math_func_allowed"),
    field<&Gen::math_func_probability>("math_func_probability", 0, 1),
    field<&Gen::num_threads>("num_threads", 1),
    field<&Gen::max_loop_trip_count>("max_loop_trip_count", 1),
    field<&Gen::p_if_block>("p_if_block", 0, 1),
    field<&Gen::p_for_block>("p_for_block", 0, 1),
    field<&Gen::p_openmp_block>("p_openmp_block", 0, 1),
    field<&Gen::p_reduction>("p_reduction", 0, 1),
    field<&Gen::p_critical>("p_critical", 0, 1),
    field<&Gen::p_parallel_in_loop>("p_parallel_in_loop", 0, 1),
    field<&Gen::enable_features>("features"),
    field<&Gen::p_atomic>("p_atomic", 0, 1),
    field<&Gen::p_single>("p_single", 0, 1),
    field<&Gen::p_master>("p_master", 0, 1),
    field<&Gen::p_schedule>("p_schedule", 0, 1),
    field<&Gen::p_rangeidx>("p_rangeidx", 0, 1),
};

/// The feature gates by the names `generator.features` accepts.
using Feature = std::pair<std::string_view, bool Gen::*>;
constexpr Feature kFeatures[] = {
    {"atomic", &Gen::enable_atomic},     {"single", &Gen::enable_single},
    {"master", &Gen::enable_master},     {"schedule", &Gen::enable_schedule},
    {"rangeidx", &Gen::enable_rangeidx},
};

constexpr Field<CampaignConfig> kCampaignFields[] = {
    field<&CampaignConfig::num_programs>("num_programs", 1),
    field<&CampaignConfig::inputs_per_program>("inputs_per_program", 1),
    field<&CampaignConfig::seed>("seed"),
    field<&CampaignConfig::alpha>("alpha"),  // > 0, checked in validate()
    field<&CampaignConfig::beta>("beta"),    // > 1, checked in validate()
    field<&CampaignConfig::min_time_us>("min_time_us", 0),
    field<&CampaignConfig::threads>("threads", 0),  // 0 = hardware concurrency
};

constexpr Field<ExecutorConfig> kExecutorFields[] = {
    field<&ExecutorConfig::work_dir>("work_dir", 1),
    field<&ExecutorConfig::run_timeout_ms>("run_timeout_ms", 1),
    field<&ExecutorConfig::compile_timeout_ms>("compile_timeout_ms", 1),
    field<&ExecutorConfig::concurrent_runs>("concurrent_runs"),
    field<&ExecutorConfig::max_inflight>("max_inflight", 0),  // 0 = 2x hardware
};

constexpr Field<SchedulerConfig> kSchedulerFields[] = {
    field<&SchedulerConfig::backends>("backends", 1),
};

constexpr Field<StoreConfig> kStoreFields[] = {
    field<&StoreConfig::enabled>("enabled"),
    field<&StoreConfig::dir>("dir", 1),
    field<&StoreConfig::max_bytes>("max_bytes", 0),
};

constexpr Field<RetryConfig> kRetryFields[] = {
    field<&RetryConfig::max_attempts>("max_attempts", 1),
    field<&RetryConfig::base_ms>("base_ms", 0),
    field<&RetryConfig::cap_ms>("cap_ms", 0),
    field<&RetryConfig::backend_death_threshold>("backend_death_threshold", 1),
};

constexpr Field<FaultConfig> kFaultFields[] = {
    field<&FaultConfig::enabled>("enabled"),
    field<&FaultConfig::rate>("rate", 0, 1),
    field<&FaultConfig::seed>("seed"),
    field<&FaultConfig::sites>("sites"),  // names checked in validate()
};

constexpr Field<TelemetryConfig> kTelemetryFields[] = {
    field<&TelemetryConfig::trace_file>("trace_file"),
    field<&TelemetryConfig::metrics_file>("metrics_file"),
    field<&TelemetryConfig::interval_ms>("interval_ms", 1),
    field<&TelemetryConfig::heartbeat>("heartbeat"),
};

/// Every section a table owns. [implementations] is not among them: its
/// keys are free-form implementation names (see CampaignConfig).
constexpr std::tuple kSections{
    Section<Gen>{"generator", kGeneratorFields},
    Section<CampaignConfig>{"campaign", kCampaignFields},
    Section<ExecutorConfig>{"executor", kExecutorFields},
    Section<SchedulerConfig>{"scheduler", kSchedulerFields},
    Section<StoreConfig>{"store", kStoreFields},
    Section<RetryConfig>{"retry", kRetryFields},
    Section<FaultConfig>{"faults", kFaultFields},
    Section<TelemetryConfig>{"telemetry", kTelemetryFields},
};

template <typename T>
const Section<T>& section_of() {
  return std::get<Section<T>>(kSections);
}

/// Reads T's section onto T's defaults, rejecting any key its table does not
/// list, and validates the result.
template <typename T>
T parse_section(const ConfigFile& file, const Section<T>& section) {
  const std::string prefix = std::string(section.name) + ".";
  T out;
  for (const auto& [key, value] : file.entries()) {
    if (!starts_with(key, prefix)) continue;
    const auto field = std::ranges::find(
        section.fields, std::string_view(key).substr(prefix.size()),
        &Field<T>::key);
    if (field == section.fields.end()) {
      throw ConfigError("unknown config key '" + key + "'");
    }
    field->read(file, key, value, out);
  }
  out.validate();
  return out;
}

/// Throws unless each numeric member of `obj`, and each string member's
/// length, lies in its row's range.
template <typename T>
void check_ranges(const T& obj) {
  const Section<T>& section = section_of<T>();
  for (const Field<T>& field : section.fields) {
    if (field.measure == nullptr) continue;
    const double value = field.measure(obj);
    if (value >= field.min && value <= field.max) continue;
    std::ostringstream msg;
    msg << (field.by_length ? "length of " : "") << section.name << "."
        << field.key << " must be in [" << field.min << ", " << field.max
        << "], got " << value;
    throw ConfigError(msg.str());
  }
}

}  // namespace

GeneratorConfig GeneratorConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<GeneratorConfig>());
}

void GeneratorConfig::enable_features(const std::string& csv) {
  for (const auto& token : split(csv, ',')) {
    const std::string_view name = trim(token);
    if (name.empty()) continue;
    const auto* it = std::ranges::find(kFeatures, name, &Feature::first);
    if (it == std::end(kFeatures)) {
      std::string known;
      for (const auto& [feature, gate] : kFeatures) {
        known += (known.empty() ? "" : ", ") + std::string(feature);
      }
      throw ConfigError("unknown generator feature: '" + std::string(name) +
                        "' (expected one of " + known + ")");
    }
    this->*(it->second) = true;
  }
}

void GeneratorConfig::validate() const { check_ranges(*this); }

ExecutorConfig ExecutorConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<ExecutorConfig>());
}
void ExecutorConfig::validate() const { check_ranges(*this); }

SchedulerConfig SchedulerConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<SchedulerConfig>());
}
void SchedulerConfig::validate() const { check_ranges(*this); }

RetryConfig RetryConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<RetryConfig>());
}
void RetryConfig::validate() const { check_ranges(*this); }

StoreConfig StoreConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<StoreConfig>());
}
void StoreConfig::validate() const { check_ranges(*this); }

FaultConfig FaultConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<FaultConfig>());
}

void FaultConfig::validate() const {
  check_ranges(*this);
  for (const auto& token : split(sites, ',')) {
    const auto name = trim(token);
    if (!name.empty() && !fault_site_by_name(name)) {
      throw ConfigError("faults.sites names unknown site '" +
                        std::string(name) + "'");
    }
  }
}

TelemetryConfig TelemetryConfig::from_config(const ConfigFile& file) {
  return parse_section(file, section_of<TelemetryConfig>());
}
void TelemetryConfig::validate() const { check_ranges(*this); }

CampaignConfig CampaignConfig::from_config(const ConfigFile& file) {
  // Parsing every owned section rejects its unknown keys and bad values.
  const auto sections = std::apply(
      [&](const auto&... s) { return std::tuple{parse_section(file, s)...}; },
      kSections);
  CampaignConfig c = std::get<CampaignConfig>(sections);
  c.generator = std::get<GeneratorConfig>(sections);
  c.retry = std::get<RetryConfig>(sections);

  // Any other key is a typo, and fails here instead of running a different
  // campaign, unless it is "implementations.NAME = value": "profile: P"
  // selects a simulated runtime profile, anything else a compile command.
  for (const auto& [key, value] : file.entries()) {
    const std::string_view section = std::string_view(key).substr(0, key.find('.'));
    if (section == key) {
      throw ConfigError("config key '" + key + "' is outside any section");
    }
    if (section != "implementations") {
      if (std::apply([&](const auto&... s) { return ((s.name == section) || ...); },
                     kSections)) {
        continue;
      }
      throw ConfigError("unknown config section '[" + std::string(section) +
                        "]' (key '" + key + "')");
    }
    ImplementationSpec spec;
    spec.name = key.substr(section.size() + 1);
    if (starts_with(value, "profile:")) {
      spec.profile = std::string(trim(std::string_view(value).substr(8)));
    } else {
      spec.compile_command = value;
    }
    c.implementations.push_back(std::move(spec));
  }
  c.validate();
  return c;
}

void CampaignConfig::validate() const {
  generator.validate();
  retry.validate();
  check_ranges(*this);
  if (alpha <= 0.0) throw ConfigError("campaign.alpha must be > 0");
  if (beta <= 1.0) throw ConfigError("campaign.beta must be > 1");
}

std::size_t hardware_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_thread_count(int requested) noexcept {
  return requested > 0 ? static_cast<std::size_t>(requested)
                       : hardware_thread_count();
}

}  // namespace ompfuzz
