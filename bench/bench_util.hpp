// Shared helpers for the paper-reproduction benches.
//
// Every bench prints the paper artifact it regenerates (table or figure),
// the configuration it used, and the measured values EXPERIMENTS.md records.
#pragma once

#include <cstdio>
#include <string>

#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"

namespace ompfuzz::bench {

/// The paper's evaluation configuration (Section V-A) at laptop scale: trip
/// counts are compressed so the interpreter stays fast, and the cost
/// model's time_scale compensates.
inline CampaignConfig paper_config(int num_programs = 200) {
  CampaignConfig cfg;
  cfg.num_programs = num_programs;
  cfg.inputs_per_program = 3;
  cfg.seed = 0xC0FFEE;
  cfg.alpha = 0.2;
  cfg.beta = 1.5;
  cfg.min_time_us = 1000;
  cfg.generator.max_expression_size = 5;
  cfg.generator.max_nesting_levels = 3;
  cfg.generator.max_lines_in_block = 10;
  cfg.generator.array_size = 1000;
  cfg.generator.max_same_level_blocks = 3;
  cfg.generator.math_func_allowed = true;
  cfg.generator.math_func_probability = 0.01;
  cfg.generator.num_threads = 32;
  cfg.generator.max_loop_trip_count = 100;
  return cfg;
}

inline harness::SimExecutorOptions sim_options(const CampaignConfig& cfg) {
  harness::SimExecutorOptions opt;
  opt.num_threads = cfg.generator.num_threads;
  return opt;
}

inline void print_header(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void print_progress(int done, int total) {
  if (done % 25 == 0 || done == total) {
    std::fprintf(stderr, "  generated & executed %d/%d programs\n", done, total);
  }
}

}  // namespace ompfuzz::bench
