#include "sim/access_map.h"

namespace mhla::sim {

AccessTally tally_accesses(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                           const assign::Resolution& res) {
  AccessTally tally(ctx.hierarchy.num_layers());

  for (const analysis::AccessSite& site : ctx.sites) {
    int layer = res.site_layer[static_cast<std::size_t>(site.id)];
    tally.add(layer, site.is_write(), site.dynamic_accesses());
  }

  for (const assign::TransferEdge& edge : res.transfers) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(edge.cc_id);
    i64 moved = cc.transfers * cc.elems_per_transfer;
    if (!cc.fill_free) {
      tally.add(edge.src_layer, false, moved);
      tally.add(edge.dst_layer, true, moved);
    }
    if (edge.write_back) {
      tally.add(edge.dst_layer, false, moved);
      tally.add(edge.src_layer, true, moved);
    }
  }

  // One-time fills/flushes of pinned on-chip inputs/outputs.
  int background = ctx.hierarchy.background();
  for (const assign::PinnedTraffic& pinned : assign::pinned_array_traffic(ctx, assignment)) {
    int src = pinned.fill ? background : pinned.home;
    int dst = pinned.fill ? pinned.home : background;
    tally.add(src, false, pinned.array->elems());
    tally.add(dst, true, pinned.array->elems());
  }
  return tally;
}

}  // namespace mhla::sim
