#include "te/block_transfer.h"

namespace mhla::te {

std::vector<BlockTransfer> collect_block_transfers(const assign::AssignContext& ctx,
                                                   const assign::Resolution& res) {
  std::vector<BlockTransfer> bts;
  for (const assign::TransferEdge& edge : res.transfers) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(edge.cc_id);
    if (cc.transfers <= 0 || cc.bytes_per_transfer() <= 0) continue;

    BlockTransfer bt;
    bt.id = static_cast<int>(bts.size());
    bt.cc_id = edge.cc_id;
    bt.nest = cc.nest;
    bt.level = cc.level;
    bt.bytes = cc.bytes_per_transfer();
    bt.issues = cc.transfers;
    bt.src_layer = edge.src_layer;
    bt.dst_layer = edge.dst_layer;
    bt.write_back = edge.write_back;
    bt.has_fill = !cc.fill_free;
    if (!bt.has_fill && !bt.write_back) continue;  // no traffic at all
    bt.cycles = ctx.dma.transfer_cycles(bt.bytes, ctx.hierarchy.layer(edge.src_layer),
                                        ctx.hierarchy.layer(edge.dst_layer));
    bt.sort_factor = bt.cycles / static_cast<double>(bt.bytes);
    bts.push_back(bt);
  }
  return bts;
}

}  // namespace mhla::te
