#include "sim/simulator.h"

#include <algorithm>

#include "ir/walk.h"

namespace mhla::sim {

namespace {

/// The step-1 stall rule: a blocking CPU waits out every busy DMA cycle
/// (fills, flushes and pinned traffic alike), the ideal bar waits for none.
double step1_stall_cycles(te::TransferMode mode, double dma_busy_cycles) {
  return mode == te::TransferMode::Ideal ? 0.0 : dma_busy_cycles;
}

}  // namespace

SimResult simulate(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                   const SimOptions& options) {
  SimResult result;
  // One resolution serves the processor side, the transfers, TE and the tally.
  assign::Resolution res = assign::resolve(ctx, assignment);
  result.nest_cycles.assign(ctx.program.top().size(), 0.0);

  // --- Processor side: walk the nests, serve accesses from resolved layers.
  ir::walk_statements(ctx.program,
                      [&](int nest, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        double iters = static_cast<double>(ir::iterations_of(path));
                        double op = iters * static_cast<double>(stmt.op_cycles());
                        result.compute_cycles += op;
                        result.nest_cycles[static_cast<std::size_t>(nest)] += op;
                      });
  for (const analysis::AccessSite& site : ctx.sites) {
    int layer_idx = res.site_layer[static_cast<std::size_t>(site.id)];
    const mem::MemLayer& layer = ctx.hierarchy.layer(layer_idx);
    double cycles = static_cast<double>(site.dynamic_accesses()) *
                    layer.access_latency(site.is_write());
    result.access_cycles += cycles;
    result.nest_cycles[static_cast<std::size_t>(site.nest)] += cycles;
  }

  // --- Transfer side.
  std::vector<te::BlockTransfer> bts = te::collect_block_transfers(ctx, res);
  result.num_block_transfers = static_cast<int>(bts.size());
  result.dma_busy_cycles = te::total_dma_busy_cycles(bts);

  const bool time_extended = options.mode == te::TransferMode::TimeExtended;
  if (time_extended) {
    te::TeResult te_result = te::time_extend(ctx, assignment, res, bts, options.te);
    result.stall_cycles = te::total_stall_cycles(bts, te_result);

    if (options.model_dma_contention) {
      // The engine can only overlap `channels` transfers with compute at a
      // time; per nest, the total hideable budget is nest CPU time times
      // the channel count.  Hidden cycles beyond the budget re-surface as
      // stalls (transfers queue behind each other on the engine).
      std::vector<double> hidden_per_nest(result.nest_cycles.size(), 0.0);
      for (const te::BlockTransfer& bt : bts) {
        const te::BtExtension& ext = te_result.for_bt(bt.id);
        hidden_per_nest[static_cast<std::size_t>(bt.nest)] +=
            ext.hidden_cycles * static_cast<double>(bt.issues);
      }
      for (std::size_t nest = 0; nest < hidden_per_nest.size(); ++nest) {
        double budget = result.nest_cycles[nest] * std::max(ctx.dma.channels, 1);
        double excess = hidden_per_nest[nest] - budget;
        if (excess > 0.0) result.stall_cycles += excess;
      }
    }
    // --- Capacity audit including TE lifetime growth: the pass's tracker.
    result.footprints = std::move(te_result.footprints);
    result.stop = te_result.stop;
  } else {
    result.footprints = assign::FootprintTracker(ctx, assignment).report();
  }
  result.feasible = result.footprints.feasible;

  // One-time fills/flushes of pinned on-chip inputs/outputs occupy the
  // engine at program startup / shutdown; TE never prefetches them.
  for (const assign::PinnedTraffic& pinned : assign::pinned_array_traffic(ctx, assignment)) {
    const mem::MemLayer& home = ctx.hierarchy.layer(pinned.home);
    const mem::MemLayer& bg = ctx.hierarchy.layer(ctx.hierarchy.background());
    double cycles = mem::blocking_transfer_cycles(pinned.array->bytes(),
                                                  pinned.fill ? bg : home,
                                                  pinned.fill ? home : bg, ctx.dma);
    result.dma_busy_cycles += cycles;
    if (time_extended) result.stall_cycles += cycles;
  }
  if (!time_extended) {
    result.stall_cycles = step1_stall_cycles(options.mode, result.dma_busy_cycles);
  }

  // --- Energy (mode independent, exactly like the paper's model).
  AccessTally tally = tally_accesses(ctx, assignment, res);
  result.energy_nj = tally_energy_nj(ctx.hierarchy, tally);
  result.layers = layer_stats(ctx.hierarchy, tally);
  return result;
}

FourPoint four_points(const assign::AssignContext& ctx, const assign::Assignment& step1,
                      SimResult mhla_te) {
  FourPoint fp;
  fp.out_of_box = simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}, false});

  fp.mhla = mhla_te;
  fp.mhla.footprints = assign::FootprintTracker(ctx, step1).report();
  fp.mhla.feasible = fp.mhla.footprints.feasible;
  fp.mhla.stop = core::StopReason::None;
  fp.ideal = fp.mhla;
  fp.mhla.stall_cycles = step1_stall_cycles(te::TransferMode::Blocking, mhla_te.dma_busy_cycles);
  fp.ideal.stall_cycles = step1_stall_cycles(te::TransferMode::Ideal, mhla_te.dma_busy_cycles);

  fp.mhla_te = std::move(mhla_te);
  return fp;
}

}  // namespace mhla::sim
