#include "assign/inplace.h"

#include <algorithm>

namespace mhla::assign {

FootprintReport compute_footprints(const AssignContext& ctx, const Assignment& assignment,
                                   const std::vector<CopyExtension>& extensions) {
  int num_layers = ctx.hierarchy.num_layers();
  int num_nests = static_cast<int>(ctx.program.top().size());
  int background = ctx.hierarchy.background();

  FootprintReport report;
  report.usage.assign(static_cast<std::size_t>(num_layers),
                      std::vector<i64>(static_cast<std::size_t>(std::max(num_nests, 1)), 0));

  // Arrays: live over their range on their home layer.
  for (const ir::ArrayDecl& array : ctx.program.arrays()) {
    auto it = ctx.live.find(array.name);
    if (it == ctx.live.end() || analysis::is_dead(it->second)) continue;
    int layer = assignment.layer_of(array.name, background);
    for (int t = it->second.first; t <= it->second.last && t < num_nests; ++t) {
      if (t < 0) continue;
      report.usage[static_cast<std::size_t>(layer)][static_cast<std::size_t>(t)] += array.bytes();
    }
  }

  // Copies: live during their own nest, possibly extended by TE.
  for (const PlacedCopy& pc : assignment.copies) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(pc.cc_id);
    int start = cc.nest;
    i64 buffers = 1;
    for (const CopyExtension& ext : extensions) {
      if (ext.cc_id != pc.cc_id) continue;
      if (ext.start_nest >= 0) start = std::min(start, ext.start_nest);
      buffers += ext.extra_buffers;
    }
    for (int t = start; t <= cc.nest && t < num_nests; ++t) {
      if (t < 0) continue;
      // Multi-buffering only matters while the copy is actually being cycled,
      // i.e. during its own nest; the prefetch tail occupies one buffer.
      i64 bytes = (t == cc.nest) ? cc.bytes * buffers : cc.bytes;
      report.usage[static_cast<std::size_t>(pc.layer)][static_cast<std::size_t>(t)] += bytes;
    }
  }

  report.peak_bytes.assign(static_cast<std::size_t>(num_layers), 0);
  for (int l = 0; l < num_layers; ++l) {
    const std::vector<i64>& row = report.usage[static_cast<std::size_t>(l)];
    i64 peak = row.empty() ? 0 : *std::max_element(row.begin(), row.end());
    report.peak_bytes[static_cast<std::size_t>(l)] = peak;
    const mem::MemLayer& layer = ctx.hierarchy.layer(l);
    if (!layer.fits(peak)) report.feasible = false;
  }
  return report;
}

bool fits(const AssignContext& ctx, const Assignment& assignment,
          const std::vector<CopyExtension>& extensions) {
  return compute_footprints(ctx, assignment, extensions).feasible;
}

}  // namespace mhla::assign
