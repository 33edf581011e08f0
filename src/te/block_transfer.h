#pragma once

#include "assign/assignment.h"

namespace mhla::te {

using ir::i64;

/// One DMA block transfer stream: the repeated fill of a selected copy
/// candidate from its parent store.  `cycles` is the DMA-engine occupancy of
/// one issue; `sort_factor` is the paper's greedy key, BT_time / size —
/// stall cycles hidden per byte of extra on-chip buffering.
struct BlockTransfer {
  int id = -1;
  int cc_id = -1;
  int nest = 0;        ///< top-level nest the transfers execute in
  int level = 0;       ///< copy level (0 = single fill per nest)
  i64 bytes = 0;       ///< bytes per issue
  i64 issues = 0;      ///< number of issues over the whole program
  int src_layer = -1;
  int dst_layer = -1;
  bool write_back = false;  ///< a mirrored flush stream exists (not prefetchable)
  bool has_fill = true;     ///< false for fill-free copies (write-allocate, no fetch)
  double cycles = 0.0;      ///< DMA occupancy per issue
  double sort_factor = 0.0; ///< cycles / bytes

  double total_cycles() const { return static_cast<double>(issues) * cycles; }
};

/// Materialize the block-transfer list of a resolved assignment (one
/// stream per copy edge of `res`).  Transfers with zero bytes or zero
/// issues are dropped.  Requires a DMA engine; callers must not apply TE
/// when `ctx.dma.present` is false (paper, section 1).
std::vector<BlockTransfer> collect_block_transfers(const assign::AssignContext& ctx,
                                                   const assign::Resolution& res);

}  // namespace mhla::te
