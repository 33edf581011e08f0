#include "te/block_transfer.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::te {
namespace {

using testing::make_ws;

TEST(BlockTransfer, EmptyWithoutCopies) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Resolution res = assign::resolve(ctx, assign::out_of_box(ctx));
  EXPECT_TRUE(collect_block_transfers(ctx, res).empty());
}

TEST(BlockTransfer, OnePerSelectedCopy) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  ASSERT_FALSE(greedy.assignment.copies.empty());
  assign::Resolution res = assign::resolve(ctx, greedy.assignment);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  EXPECT_EQ(bts.size(), greedy.assignment.copies.size());
}

TEST(BlockTransfer, FieldsMatchCandidate) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});
  assign::Resolution res = assign::resolve(ctx, a);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  ASSERT_EQ(bts.size(), 1u);
  const BlockTransfer& bt = bts[0];
  const analysis::CopyCandidate& cc = ctx.reuse.candidate(cc_id);
  EXPECT_EQ(bt.cc_id, cc_id);
  EXPECT_EQ(bt.bytes, cc.bytes_per_transfer());
  EXPECT_EQ(bt.issues, cc.transfers);
  EXPECT_EQ(bt.nest, cc.nest);
  EXPECT_EQ(bt.level, cc.level);
  EXPECT_EQ(bt.dst_layer, 0);
  EXPECT_EQ(bt.src_layer, ctx.hierarchy.background());
  EXPECT_FALSE(bt.write_back);
}

TEST(BlockTransfer, CyclesMatchDmaModel) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  assign::Resolution res = assign::resolve(ctx, greedy.assignment);
  for (const BlockTransfer& bt : collect_block_transfers(ctx, res)) {
    double expected = ctx.dma.transfer_cycles(bt.bytes, ctx.hierarchy.layer(bt.src_layer),
                                              ctx.hierarchy.layer(bt.dst_layer));
    EXPECT_DOUBLE_EQ(bt.cycles, expected);
    EXPECT_DOUBLE_EQ(bt.sort_factor, bt.cycles / static_cast<double>(bt.bytes));
    EXPECT_DOUBLE_EQ(bt.total_cycles(), bt.cycles * static_cast<double>(bt.issues));
  }
}

TEST(BlockTransfer, IdsAreDense) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  assign::Resolution res = assign::resolve(ctx, greedy.assignment);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  for (std::size_t i = 0; i < bts.size(); ++i) {
    EXPECT_EQ(bts[i].id, static_cast<int>(i));
  }
}

TEST(BlockTransfer, WriteBackFlagged) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "mid" && cc.nest == 0 && cc.level == 0) a.copies.push_back({cc.id, 0});
  }
  assign::Resolution res = assign::resolve(ctx, a);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  ASSERT_EQ(bts.size(), 1u);
  EXPECT_TRUE(bts[0].write_back);
}

}  // namespace
}  // namespace mhla::te
