// Ablation of the TE step's design choices (paper Figure 1): the greedy
// order is BT_time/size descending.  This bench compares that order against
// FIFO, by-size and reverse orders, and sweeps the iteration-lookahead cap,
// reporting total hidden cycles and residual stall per configuration.

#include "bench_common.h"

#include "ir/builder.h"

namespace {

using namespace mhla;

const char* order_name(te::ExtensionOrder order) {
  switch (order) {
    case te::ExtensionOrder::TimePerByte: return "time/size (paper)";
    case te::ExtensionOrder::Fifo: return "fifo";
    case te::ExtensionOrder::BySizeDescending: return "by-size";
    case te::ExtensionOrder::Reverse: return "reverse";
  }
  return "?";
}

void print_ablation() {
  bench::print_header("TE ablation (Figure 1 greedy order + lookahead depth)",
                      "BTs are prefetched in time/size order under the size constraint");

  // Order only matters when the BTs compete for scarce on-chip buffer
  // space, so the ablation runs on a deliberately tight platform: the
  // paper's "user-defined on-chip memory constraint" binds here.
  mem::PlatformConfig tight;
  tight.l1_bytes = 2 * 1024;
  tight.l2_bytes = 0;

  core::Table table({"application", "order", "stall cycles", "hidden %", "vs paper order"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), tight, {});
    auto ctx = ws->context();
    assign::Assignment a = assign::searcher("greedy").search(ctx, {}).assignment;
    assign::Resolution res = assign::resolve(ctx, a);
    auto bts = te::collect_block_transfers(ctx, res);
    double blocking = te::total_dma_busy_cycles(bts);
    if (blocking <= 0.0) continue;

    double paper_stall = 0.0;
    for (te::ExtensionOrder order :
         {te::ExtensionOrder::TimePerByte, te::ExtensionOrder::Fifo,
          te::ExtensionOrder::BySizeDescending, te::ExtensionOrder::Reverse}) {
      te::TeOptions options;
      options.order = order;
      te::TeResult result = te::time_extend(ctx, a, res, bts, options);
      double stall = te::total_stall_cycles(bts, result);
      if (order == te::ExtensionOrder::TimePerByte) paper_stall = stall;
      table.add_row({info.name, order_name(order), core::Table::num(stall, 0),
                     core::Table::num(100.0 * (blocking - stall) / blocking),
                     core::Table::num(stall - paper_stall, 0)});
    }
  }
  std::cout << table.str()
            << "('vs paper order': extra residual stall cycles relative to the\n"
               " paper's time/size greedy order; >= 0 means the paper order wins or ties)\n\n";

  // Lookahead-depth sweep on the streaming coder (the prototypical target).
  core::Table depth_table({"max lookahead", "hidden cycles", "stall cycles"});
  auto ws = core::make_workspace(apps::build_adpcm_coder(), tight, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::searcher("greedy").search(ctx, {}).assignment;
  assign::Resolution res = assign::resolve(ctx, a);
  auto bts = te::collect_block_transfers(ctx, res);
  for (int depth : {0, 1, 2, 3, 4, 8}) {
    te::TeOptions options;
    options.max_lookahead = depth;
    te::TeResult result = te::time_extend(ctx, a, res, bts, options);
    double stall = te::total_stall_cycles(bts, result);
    depth_table.add_row({std::to_string(depth), core::Table::num(result.total_hidden_cycles, 0),
                         core::Table::num(stall, 0)});
  }
  std::cout << "lookahead-depth sweep (adpcm_coder):\n" << depth_table.str() << "\n";
}

/// The greedy order only matters under *contention*: two prefetchable BTs
/// whose double buffers cannot both fit.  This scenario pins it down:
/// two 1 KiB frame streams, one sourced from on-chip L2 (cheap to stall on)
/// and one from off-chip SDRAM (expensive to stall on), with L1 slack for
/// exactly one extra buffer.  The paper's time/size order doubles the SDRAM
/// stream; FIFO wastes the slack on the cheap L2 stream.
void print_contention_scenario() {
  using ir::av;
  ir::ProgramBuilder pb("contention");
  pb.array("a_src", {64 * 256}, 4).input();  // 64 KiB -> homed in L2
  pb.array("b_src", {64 * 256}, 4).input();  // stays in SDRAM
  pb.array("sink", {64}, 4).output();
  pb.begin_loop("fr", 0, 64);
  pb.begin_loop("i", 0, 256);
  pb.stmt("work_a", 4).read("a_src", {av("fr", 256) + av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 256);
  pb.stmt("work_b", 4).read("b_src", {av("fr", 256) + av("j")});
  pb.end_loop();
  pb.stmt("emit", 1).write("sink", {av("fr")});
  pb.end_loop();

  mem::PlatformConfig platform;
  platform.l1_bytes = 3 * 1024;  // two 1 KiB buffers + slack for ONE double
  platform.l2_bytes = 128 * 1024;
  mem::DmaEngine dma;
  dma.bytes_per_cycle = 8.0;  // engine faster than SDRAM: source bw decides

  auto ws = core::make_workspace(pb.finish(), platform, dma);
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  a.array_layer["a_src"] = 1;  // L2-resident stream
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.level == 1 && (cc.array == "a_src" || cc.array == "b_src")) {
      a.copies.push_back({cc.id, 0});
    }
  }
  assign::Resolution res = assign::resolve(ctx, a);
  auto bts = te::collect_block_transfers(ctx, res);
  double blocking = te::total_dma_busy_cycles(bts);

  std::cout << "contention scenario (one slot, two candidates):\n";
  core::Table table({"order", "stall cycles", "hidden %"});
  for (te::ExtensionOrder order :
       {te::ExtensionOrder::TimePerByte, te::ExtensionOrder::Fifo,
        te::ExtensionOrder::BySizeDescending, te::ExtensionOrder::Reverse}) {
    te::TeOptions options;
    options.order = order;
    te::TeResult result = te::time_extend(ctx, a, res, bts, options);
    double stall = te::total_stall_cycles(bts, result);
    table.add_row({order_name(order), core::Table::num(stall, 0),
                   core::Table::num(100.0 * (blocking - stall) / blocking)});
  }
  std::cout << table.str()
            << "(the paper's time/size order spends the single free buffer on the\n"
               " off-chip stream, which stalls ~3.4x longer per byte than the L2 one)\n\n";
}

void BM_TimeExtension(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  assign::Assignment a = assign::searcher("greedy").search(ctx, {}).assignment;
  assign::Resolution res = assign::resolve(ctx, a);
  auto bts = te::collect_block_transfers(ctx, res);
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::time_extend(ctx, a, res, bts));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_TimeExtension)->DenseRange(0, 8);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  print_contention_scenario();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
