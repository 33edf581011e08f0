// The paper's future-work direction: interaction of MHLA with the DTSE
// loop transformations that run before it.  This bench quantifies one such
// interaction: strip-mining (tiling) a sweep loop creates intermediate copy
// candidates that fit small L1 scratchpads, turning an unexploitable reuse
// pattern into an exploitable one.
//
// Workload: a repeated whole-table sweep (table too large for L1); tiling
// the sweep loop introduces tile-sized candidates.

#include "bench_common.h"

#include "ir/builder.h"
#include "ir/transform.h"

namespace {

using namespace mhla;
using ir::av;

/// rep x sweep over a table that exceeds L1: without tiling, the only copy
/// candidates are the whole table (too big) or single elements (useless).
ir::Program sweep_program(ir::i64 table_elems) {
  ir::ProgramBuilder pb("sweep");
  pb.array("table", {table_elems}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("rep", 0, 64);
  pb.begin_loop("i", 0, table_elems);
  pb.stmt("use", 2).read("table", {av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("rep")});
  pb.end_loop();
  return pb.finish();
}

void print_tiling_study() {
  bench::print_header("Tiling x MHLA interaction (paper future work)",
                      "loop transformations create the copy candidates MHLA exploits");

  constexpr ir::i64 kTable = 8192;  // 32 KiB of 4-byte elements
  mem::PlatformConfig platform;
  platform.l1_bytes = 2 * 1024;  // far smaller than the table
  platform.l2_bytes = 0;

  core::Table table({"variant", "time %", "energy %", "copies", "L1 peak B"});
  auto evaluate = [&](const std::string& label, ir::Program program) {
    auto ws = core::make_workspace(std::move(program), platform, {});
    auto ctx = ws->context();
    sim::SimResult oob = sim::simulate(ctx, assign::out_of_box(ctx));
    assign::SearchResult greedy = assign::searcher("greedy").search(ctx, {});
    sim::SimResult opt = sim::simulate(ctx, greedy.assignment,
                                       {te::TransferMode::TimeExtended, {}});
    table.add_row({label,
                   core::Table::num(sim::percent_of(opt.total_cycles(), oob.total_cycles())),
                   core::Table::num(sim::percent_of(opt.energy_nj, oob.energy_nj)),
                   std::to_string(greedy.assignment.copies.size()),
                   std::to_string(opt.footprints.peak_bytes[0])});
  };

  evaluate("untiled", sweep_program(kTable));
  for (ir::i64 tile : {64, 128, 256, 512}) {
    ir::Program tiled = ir::tile_loop(sweep_program(kTable), "i", tile);
    evaluate("tile " + std::to_string(tile), std::move(tiled));
  }
  std::cout << table.str()
            << "(untiled: the table exceeds L1 and candidates are all-or-element;\n"
               " tiling introduces tile-sized candidates that fit, and MHLA+TE\n"
               " double-buffers them — compute hides the block transfers)\n\n";
}

void BM_TileTransform(benchmark::State& state) {
  ir::Program program = sweep_program(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::tile_loop(program, "i", state.range(0)));
  }
}
BENCHMARK(BM_TileTransform)->Arg(64)->Arg(256);

void BM_TiledPipeline(benchmark::State& state) {
  ir::Program tiled = ir::tile_loop(sweep_program(8192), "i", 256);
  core::PipelineConfig config;
  config.platform.l1_bytes = 2 * 1024;
  config.platform.l2_bytes = 0;
  auto ws = core::make_workspace(std::move(tiled), config.platform, {});
  core::Pipeline pipeline(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(*ws));
  }
}
BENCHMARK(BM_TiledPipeline);

}  // namespace

int main(int argc, char** argv) {
  print_tiling_study();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
