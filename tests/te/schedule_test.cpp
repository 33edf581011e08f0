#include "te/schedule.h"

#include <gtest/gtest.h>

#include <initializer_list>

namespace mhla::te {
namespace {

BlockTransfer make_bt(double cycles, ir::i64 issues, bool write_back = false) {
  BlockTransfer bt;
  bt.id = 0;
  bt.bytes = 100;
  bt.issues = issues;
  bt.cycles = cycles;
  bt.write_back = write_back;
  return bt;
}

BtExtension hiding(double hidden_cycles) {
  BtExtension ext;
  ext.hidden_cycles = hidden_cycles;
  return ext;
}

TeResult te_hiding(std::initializer_list<double> hidden_cycles) {
  TeResult te;
  for (double hidden : hidden_cycles) {
    te.extensions.push_back(hiding(hidden));
    te.extensions.back().bt_id = static_cast<int>(te.extensions.size()) - 1;
  }
  return te;
}

TEST(Schedule, TimeExtendedChargesResidual) {
  BlockTransfer bt = make_bt(50.0, 4);
  EXPECT_DOUBLE_EQ(bt_stall_cycles(bt, hiding(30.0)), 80.0);
}

TEST(Schedule, FullyHiddenCostsZero) {
  BlockTransfer bt = make_bt(50.0, 4);
  EXPECT_DOUBLE_EQ(bt_stall_cycles(bt, hiding(50.0)), 0.0);
}

TEST(Schedule, OverHiddenNeverGoesNegative) {
  BlockTransfer bt = make_bt(50.0, 4);
  EXPECT_GE(bt_stall_cycles(bt, hiding(500.0)), 0.0);
}

TEST(Schedule, FlushBlocksAfterTimeExtension) {
  // Fill hidden, flush still blocks: 0 + 100.
  std::vector<BlockTransfer> bts = {make_bt(50.0, 2, /*write_back=*/true)};
  EXPECT_DOUBLE_EQ(total_stall_cycles(bts, te_hiding({50.0})), 100.0);
  // Fill-free copies have only the flush stream.
  bts[0].has_fill = false;
  EXPECT_DOUBLE_EQ(total_stall_cycles(bts, te_hiding({0.0})), 100.0);
}

TEST(Schedule, TotalStallSumsStreams) {
  std::vector<BlockTransfer> bts = {make_bt(10.0, 3), make_bt(20.0, 1)};
  bts[1].id = 1;
  EXPECT_DOUBLE_EQ(total_stall_cycles(bts, te_hiding({4.0, 0.0})), 6.0 * 3 + 20.0);
}

TEST(Schedule, DmaBusyCountsBothDirections) {
  std::vector<BlockTransfer> bts = {make_bt(10.0, 3, /*write_back=*/true), make_bt(5.0, 2)};
  bts[1].id = 1;
  EXPECT_DOUBLE_EQ(total_dma_busy_cycles(bts), 30.0 + 30.0 + 10.0);
}

}  // namespace
}  // namespace mhla::te
