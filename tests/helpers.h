#pragma once

// Shared fixtures and builders for the MHLA test suite.

#include <memory>
#include <vector>

#include "apps/registry.h"
#include "core/pipeline.h"
#include "core/run_budget.h"
#include "core/workspace.h"
#include "ir/builder.h"

namespace mhla::testing {

using ir::ac;
using ir::av;

/// A tiny single-nest streaming program: one big input array read row by
/// row with a small reused table.  Small enough for exhaustive search.
inline ir::Program tiny_stream_program() {
  ir::ProgramBuilder pb("tiny_stream");
  pb.array("big", {64, 64}, 4).input();
  pb.array("tab", {16}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.begin_loop("j", 0, 64);
  pb.stmt("work", 2)
      .read("big", {av("i"), av("j")})
      .read("tab", {av("j", 0) + ac(0)});  // constant subscript: tab[0]
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("i")});
  pb.end_loop();
  return pb.finish();
}

/// A two-nest producer/consumer program exercising lifetimes & dependences.
inline ir::Program producer_consumer_program() {
  ir::ProgramBuilder pb("prod_cons");
  pb.array("src", {128}, 4).input();
  pb.array("mid", {128}, 4);
  pb.array("dst", {128}, 4).output();
  pb.begin_loop("i", 0, 128);
  pb.stmt("produce", 1).read("src", {av("i")}).write("mid", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 128);
  pb.stmt("consume", 1).read("mid", {av("j")}).write("dst", {av("j")});
  pb.end_loop();
  return pb.finish();
}

/// A blocked program with a clear two-level reuse chain: block copies under
/// (bi) reused across an inner sweep.
inline ir::Program blocked_reuse_program() {
  ir::ProgramBuilder pb("blocked");
  pb.array("data", {32, 64}, 4).input();
  pb.array("acc", {32}, 4).output();
  pb.begin_loop("bi", 0, 32);
  pb.begin_loop("rep", 0, 10);
  pb.begin_loop("k", 0, 64);
  pb.stmt("use", 1).read("data", {av("bi"), av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("save", 1).write("acc", {av("bi")});
  pb.end_loop();
  return pb.finish();
}

/// Default test platform: 1 KiB L1 + 16 KiB L2 over SDRAM.
inline mem::PlatformConfig small_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 1024;
  platform.l2_bytes = 16 * 1024;
  return platform;
}

/// The greedy platform slice: tight to roomy L1, with and without L2; it
/// holds the default platform (4 KiB L1, 128 KiB L2).
inline std::vector<mem::PlatformConfig> platform_slice() {
  std::vector<mem::PlatformConfig> platforms;
  for (ir::i64 l1 : {256, 4096, 65536}) {
    for (ir::i64 l2 : {0, 128 * 1024, 256 * 1024}) {
      mem::PlatformConfig platform;
      platform.l1_bytes = l1;
      platform.l2_bytes = l2;
      platforms.push_back(platform);
    }
  }
  return platforms;
}

/// The guard-64 rate instance of bench/search_scaling.cpp (the benchmark
/// extracts that definition by text, so it is copied here, not shared):
/// 52 candidate placements, about 10M leaves unpruned, 4 with the bound.
inline ir::Program guard64_program() {
  ir::ProgramBuilder pb("guard64");
  pb.array("a", {32, 16}, 4).input();
  pb.array("b", {16}, 4).input();
  pb.array("c", {32, 16}, 4).input();
  pb.array("d", {24}, 4).input();
  pb.array("e", {32, 16}, 4).input();
  pb.array("f", {48}, 4).input();
  pb.array("o", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 2).read("a", {av("i"), av("j")}).read("b", {av("j")});
  pb.stmt("t", 2).read("c", {av("i"), av("j")}).read("d", {av("j")});
  pb.stmt("u", 2).read("e", {av("i"), av("j")}).read("f", {av("j", 3)});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("g", 1).write("o", {av("i")});
  pb.end_loop();
  return pb.finish();
}

inline mem::PlatformConfig guard64_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 640;
  platform.l2_bytes = 4096;
  return platform;
}

/// Workspace over any program with the small test platform.
inline std::unique_ptr<core::Workspace> make_ws(ir::Program program,
                                                mem::PlatformConfig platform = small_platform(),
                                                mem::DmaEngine dma = {}) {
  return core::make_workspace(std::move(program), platform, dma);
}

/// Probes the search of `config` charges on `workspace`'s program, counted
/// on an unlimited token.  A `max_probes` of this + 1 lets that search run
/// to completion and cuts the TE pass after it at its second probe.
inline long search_probes(const core::Workspace& workspace, const core::PipelineConfig& config) {
  core::RunBudget token;
  assign::SearchOptions options = config.search;
  options.set_target(config.target);
  options.shared_budget = &token;
  assign::searcher(config.strategy).search(workspace.context(), options);
  return token.probes();
}

/// Binary-wide heap-allocation counter (tests/helpers_alloc.cpp replaces the
/// global operator new/delete with counting forms).  Monotonic count of
/// successful allocations since process start; sample it before and after a
/// region to assert the region's allocation count — the zero-steady-state
/// regression suite does exactly that around engine/tracker moves.
long heap_allocations();

}  // namespace mhla::testing
