#include "te/schedule.h"

#include <algorithm>

namespace mhla::te {

double bt_stall_cycles(const BlockTransfer& bt, const BtExtension& ext) {
  if (!bt.has_fill) return 0.0;  // fill-free: only the flush stream exists
  double residual = std::max(0.0, bt.cycles - ext.hidden_cycles);
  return residual * static_cast<double>(bt.issues) + ext.cold_start_stall_cycles;
}

double total_stall_cycles(const std::vector<BlockTransfer>& bts, const TeResult& te) {
  double stall = 0.0;
  for (const BlockTransfer& bt : bts) {
    stall += bt_stall_cycles(bt, te.for_bt(bt.id));
    // Flushes cannot be prefetched; they block symmetrically to the fill.
    if (bt.write_back) stall += bt.total_cycles();
  }
  return stall;
}

double total_dma_busy_cycles(const std::vector<BlockTransfer>& bts) {
  double busy = 0.0;
  for (const BlockTransfer& bt : bts) {
    if (bt.has_fill) busy += bt.total_cycles();
    if (bt.write_back) busy += bt.total_cycles();
  }
  return busy;
}

}  // namespace mhla::te
