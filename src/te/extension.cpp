#include "te/extension.h"

#include <algorithm>
#include <numeric>

#include "assign/footprint_tracker.h"
#include "core/run_budget.h"

namespace mhla::te {

namespace {

/// One "extend the DMA one loop earlier" opportunity for a BT.
struct FreedomUnit {
  double hideable_cycles = 0.0;
  int extra_buffers = 0;   ///< delta buffers if this unit is taken
  int start_nest = -1;     ///< new live-range start if taken (-1 = unchanged)
};

std::vector<std::size_t> order_indices(const std::vector<BlockTransfer>& bts,
                                       ExtensionOrder order) {
  std::vector<std::size_t> idx(bts.size());
  std::iota(idx.begin(), idx.end(), 0);
  switch (order) {
    case ExtensionOrder::TimePerByte:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return bts[a].sort_factor > bts[b].sort_factor;
      });
      break;
    case ExtensionOrder::Fifo:
      break;
    case ExtensionOrder::BySizeDescending:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return bts[a].bytes > bts[b].bytes;
      });
      break;
    case ExtensionOrder::Reverse:
      std::reverse(idx.begin(), idx.end());
      break;
  }
  return idx;
}

}  // namespace

TeResult time_extend(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                     const assign::Resolution& res, const std::vector<BlockTransfer>& bts,
                     const TeOptions& options) {
  TeResult result;
  result.extensions.resize(bts.size());
  for (std::size_t i = 0; i < bts.size(); ++i) {
    result.extensions[i].bt_id = static_cast<int>(i);
  }
  if (!ctx.dma.present) return result;  // TE not applicable without an engine

  // The assignment is fixed for the whole pass: the one resolution serves
  // the per-nest and per-BT lookahead queries below.
  std::vector<double> nest_cycles = assign::nest_cpu_cycles(ctx, res);

  // One load of the fixed assignment, then every freedom unit is a
  // speculative extend_copy probed in O(extended lifetime) and undone on
  // rejection — accepted extensions simply stay in the tracker, so it
  // always holds exactly the extensions accepted so far.
  assign::FootprintTracker tracker(ctx, assignment);

  // Budget probes land at BT and freedom-unit boundaries only, so an
  // expired budget never leaves a half-probed extension: the tracker holds
  // exactly the accepted extensions and the priority pass below still runs
  // over a consistent (partial) extension vector.
  bool out_of_budget = false;
  auto probe = [&]() {
    if (!out_of_budget && options.budget && !options.budget->probe()) out_of_budget = true;
    return !out_of_budget;
  };

  // Hoisted out of the BT loop so its buffer is allocated once and reused.
  std::vector<FreedomUnit> units;
  for (std::size_t index : order_indices(bts, options.order)) {
    if (!probe()) break;
    const BlockTransfer& bt = bts[index];
    if (!bt.has_fill) continue;  // nothing to prefetch, only a flush stream
    BtExtension& ext = result.extensions[index];
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(bt.cc_id);

    // Dependence freedom: how far back may this BT's first issue move?
    int producer = ctx.deps.producer_before(cc.array, bt.nest);

    // Build the freedom-unit list, nearest extension first.
    units.clear();
    if (bt.level > 0) {
      // Iteration lookahead across the carrying loop: unit k prefetches
      // iteration i+k during iteration i; each step costs one extra buffer
      // and hides one more carrying-iteration of CPU time per issue.
      double per_iter =
          assign::loop_iteration_cpu_cycles(ctx, res, bt.nest, cc.carrying_loop());
      for (int k = 1; k <= options.max_lookahead; ++k) {
        FreedomUnit unit;
        unit.hideable_cycles = per_iter;
        unit.extra_buffers = 1;
        units.push_back(unit);
      }
    } else {
      // Single fill per nest: issue it during an earlier nest, no earlier
      // than just after the producing nest.
      for (int n = bt.nest - 1; n > producer; --n) {
        FreedomUnit unit;
        unit.hideable_cycles = nest_cycles[static_cast<std::size_t>(n)];
        unit.start_nest = n;
        units.push_back(unit);
      }
    }

    // Greedy extension, paper Figure 1: accumulate hideable cycles while the
    // grown copy lifetime still fits the on-chip constraint.
    double ext_cycles = 0.0;
    for (const FreedomUnit& unit : units) {
      if (ext_cycles >= bt.cycles) break;  // fully time extended
      if (!probe()) break;

      int extra_buffers = ext.extra_buffers + unit.extra_buffers;
      int start_nest = unit.start_nest >= 0 ? unit.start_nest : ext.start_nest;
      assign::FootprintTracker::Checkpoint mark = tracker.checkpoint();
      tracker.extend_copy(bt.cc_id, start_nest, extra_buffers);
      if (!tracker.feasible()) {
        tracker.undo_to(mark);  // size constraint hit
        break;
      }
      ext.extra_buffers = extra_buffers;
      ext.start_nest = start_nest;
      ext_cycles += unit.hideable_cycles;
    }
    if (ext.extra_buffers > 0 || ext.start_nest >= 0) {
      // One entry per extended BT, in greedy processing order (each BT owns
      // a distinct copy, so entries never collide).
      result.footprint_extensions.push_back({bt.cc_id, ext.start_nest, ext.extra_buffers});
    }

    ext.hidden_cycles = std::min(ext_cycles, bt.cycles);
    ext.fully_hidden = ext_cycles >= bt.cycles;
    if (options.charge_cold_start && ext.extra_buffers > 0) {
      i64 cold_issues = std::min<i64>(ext.extra_buffers, bt.issues);
      ext.cold_start_stall_cycles = static_cast<double>(cold_issues) * ext.hidden_cycles;
    }
    result.total_hidden_cycles +=
        ext.hidden_cycles * static_cast<double>(bt.issues) - ext.cold_start_stall_cycles;
  }

  if (out_of_budget) result.stop = options.budget->reason();

  // dma_priority(): issue order = earliest start first, then the greedy
  // sort factor as tie break (urgent transfers drain first).
  std::vector<std::size_t> by_priority(bts.size());
  std::iota(by_priority.begin(), by_priority.end(), 0);
  std::stable_sort(by_priority.begin(), by_priority.end(), [&](std::size_t a, std::size_t b) {
    const BtExtension& ea = result.extensions[a];
    const BtExtension& eb = result.extensions[b];
    int start_a = ea.start_nest >= 0 ? ea.start_nest : bts[a].nest;
    int start_b = eb.start_nest >= 0 ? eb.start_nest : bts[b].nest;
    if (start_a != start_b) return start_a < start_b;
    return bts[a].sort_factor > bts[b].sort_factor;
  });
  for (std::size_t rank = 0; rank < by_priority.size(); ++rank) {
    result.extensions[by_priority[rank]].dma_priority = static_cast<int>(rank);
  }
  return result;
}

}  // namespace mhla::te
