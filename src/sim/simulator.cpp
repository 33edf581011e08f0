#include "sim/simulator.h"

#include <algorithm>

#include "ir/walk.h"

namespace mhla::sim {

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

  std::vector<assign::CopyExtension> extensions;
  if (options.mode == te::TransferMode::TimeExtended) {
    te::TeResult te_result = te::time_extend(ctx, assignment, res, bts, options.te);
    result.stall_cycles =
        te::total_stall_cycles(bts, te::TransferMode::TimeExtended, &te_result);

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
    extensions = te_result.footprint_extensions;
    result.stop = te_result.stop;
  } else {
    result.stall_cycles = te::total_stall_cycles(bts, options.mode, nullptr);
  }

  // One-time fills/flushes of pinned on-chip inputs/outputs block the
  // processor (program startup / shutdown); in the ideal zero-wait bar
  // they are hidden like every other transfer.
  for (const assign::PinnedTraffic& pinned : assign::pinned_array_traffic(ctx, assignment)) {
    const mem::MemLayer& home = ctx.hierarchy.layer(pinned.home);
    const mem::MemLayer& bg = ctx.hierarchy.layer(ctx.hierarchy.background());
    double cycles = mem::blocking_transfer_cycles(pinned.array->bytes(),
                                                  pinned.fill ? bg : home,
                                                  pinned.fill ? home : bg, ctx.dma);
    result.dma_busy_cycles += cycles;
    if (options.mode != te::TransferMode::Ideal) result.stall_cycles += cycles;
  }

  // --- Energy (mode independent, exactly like the paper's model).
  AccessTally tally = tally_accesses(ctx, assignment, res);
  result.energy_nj = tally_energy_nj(ctx.hierarchy, tally);
  result.layers = layer_stats(ctx.hierarchy, tally);

  // --- Capacity audit including TE lifetime growth.
  result.footprints = assign::FootprintTracker(ctx, assignment, extensions).report();
  result.feasible = result.footprints.feasible;
  return result;
}

FourPoint simulate_four_points(const assign::AssignContext& ctx,
                               const assign::Assignment& step1,
                               const te::TeOptions& te_options) {
  FourPoint fp;
  fp.out_of_box = simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}});
  fp.mhla = simulate(ctx, step1, {te::TransferMode::Blocking, {}});
  fp.mhla_te = simulate(ctx, step1, {te::TransferMode::TimeExtended, te_options});
  fp.ideal = simulate(ctx, step1, {te::TransferMode::Ideal, {}});
  return fp;
}

}  // namespace mhla::sim
