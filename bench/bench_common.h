#pragma once

// Shared plumbing for the reproduction benchmarks: every bench binary first
// prints the reproduced figure/table rows (the paper normalizes against the
// out-of-the-box configuration = 100 %), then runs google-benchmark timers
// over the underlying tool steps.

#include <benchmark/benchmark.h>

#include <ctime>
#include <iostream>
#include <sstream>
#include <thread>

#include "apps/registry.h"
#include "core/pipeline.h"
#include "core/report_table.h"
#include "explore/sweep.h"

// Measurement provenance, baked in by CMake at configure time (so archived
// summaries say which commit and build type produced the numbers).  The
// fallbacks keep ad-hoc builds compiling.
#ifndef MHLA_GIT_SHA
#define MHLA_GIT_SHA "unknown"
#endif
#ifndef MHLA_BUILD_TYPE
#define MHLA_BUILD_TYPE "unknown"
#endif

namespace mhla::bench {

/// The experiments' default platform: 4 KiB L1 + 128 KiB L2 over SDRAM,
/// DMA engine present (TE requires one).
inline mem::PlatformConfig default_platform() { return mem::PlatformConfig{}; }

/// Run the full two-step flow (greedy + TE) for one app on the default
/// platform.
inline core::PipelineResult run_app(const apps::AppInfo& info) {
  core::PipelineConfig config;
  config.platform = default_platform();
  return core::Pipeline(config).run(info.build());
}

/// The run-metadata object every bench embeds in its JSON summary as
/// "meta", and print_header echoes as a greppable one-liner: timestamp,
/// machine width, build type and source revision travel with the numbers.
inline std::string run_metadata_json() {
  char stamp[32] = "unknown";
  std::time_t now = std::time(nullptr);
  if (const std::tm* utc = std::gmtime(&now)) {
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", utc);
  }
  std::ostringstream out;
  out << "{\"utc\": \"" << stamp
      << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << MHLA_BUILD_TYPE << "\", \"git_sha\": \"" << MHLA_GIT_SHA
      << "\"}";
  return out.str();
}

/// Print the given reproduction block with a standard header.  The
/// "bench-meta:" line deliberately does not start with '{' — scripts that
/// extract the trailing JSON summary (awk '/^\{/,0') never pick it up.
inline void print_header(const std::string& experiment, const std::string& claim) {
  std::cout << "==============================================================\n"
            << "Reproduction: " << experiment << "\n"
            << "Paper claim:  " << claim << "\n"
            << "bench-meta: " << run_metadata_json() << "\n"
            << "==============================================================\n";
}

}  // namespace mhla::bench
