#pragma once

#include "assign/assignment.h"

namespace mhla::sim {

using ir::i64;

/// Per-layer dynamic access tally (processor traffic + copy traffic).
struct AccessTally {
  std::vector<i64> reads;
  std::vector<i64> writes;

  explicit AccessTally(int num_layers = 0)
      : reads(static_cast<std::size_t>(num_layers), 0),
        writes(static_cast<std::size_t>(num_layers), 0) {}

  void add(int layer, bool is_write, i64 n) {
    (is_write ? writes : reads)[static_cast<std::size_t>(layer)] += n;
  }

  i64 total(int layer) const {
    return reads[static_cast<std::size_t>(layer)] + writes[static_cast<std::size_t>(layer)];
  }

  i64 grand_total() const {
    i64 t = 0;
    for (std::size_t l = 0; l < reads.size(); ++l) t += reads[l] + writes[l];
    return t;
  }
};

/// Count every dynamic access the configuration performs:
///  * processor loads/stores against the layer that serves each site, and
///  * copy traffic (source reads + destination writes per transferred
///    element, plus write-back mirrors for dirty copies),
/// where `res` is `assign::resolve(ctx, assignment)`.
AccessTally tally_accesses(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                           const assign::Resolution& res);

}  // namespace mhla::sim
