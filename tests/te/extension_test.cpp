#include "oracle/model.h"
#include "te/extension.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::te {
namespace {

using ir::av;
using testing::make_ws;

struct TeSetup {
  std::unique_ptr<core::Workspace> ws;
  assign::Assignment assignment;
  assign::Resolution res;
  std::vector<BlockTransfer> bts;
};

/// Streaming frames with plenty of compute per frame: lookahead prefetch can
/// fully hide the per-frame block transfer when L1 has room for two buffers.
TeSetup streaming_setup(ir::i64 l1_bytes) {
  ir::ProgramBuilder pb("stream");
  pb.array("in", {64 * 64}, 4).input();  // 64 frames x 64 samples
  pb.array("out", {64}, 4).output();
  pb.begin_loop("fr", 0, 64);
  pb.begin_loop("i", 0, 64);
  pb.stmt("work", 20).read("in", {av("fr", 64) + av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("fr")});
  pb.end_loop();

  mem::PlatformConfig platform;
  platform.l1_bytes = l1_bytes;
  platform.l2_bytes = 0;
  TeSetup setup{testing::make_ws(pb.finish(), platform), {}, {}, {}};
  auto ctx = setup.ws->context();
  setup.assignment = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "in" && cc.level == 1) {
      setup.assignment.copies.push_back({cc.id, 0});  // 256 B frame copy
    }
  }
  setup.res = assign::resolve(ctx, setup.assignment);
  setup.bts = collect_block_transfers(ctx, setup.res);
  return setup;
}

TEST(TimeExtend, FullyHidesWithDoubleBufferRoom) {
  TeSetup setup = streaming_setup(1024);  // room for 4 buffers
  auto ctx = setup.ws->context();
  ASSERT_EQ(setup.bts.size(), 1u);
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts);
  const BtExtension& ext = result.for_bt(0);
  EXPECT_TRUE(ext.fully_hidden);
  EXPECT_GE(ext.extra_buffers, 1);
  EXPECT_DOUBLE_EQ(ext.hidden_cycles, setup.bts[0].cycles);
  EXPECT_GT(result.total_hidden_cycles, 0.0);
}

TEST(TimeExtend, BlockedWhenNoRoomForSecondBuffer) {
  TeSetup setup = streaming_setup(256);  // exactly one buffer fits
  auto ctx = setup.ws->context();
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts);
  const BtExtension& ext = result.for_bt(0);
  EXPECT_EQ(ext.extra_buffers, 0);
  EXPECT_DOUBLE_EQ(ext.hidden_cycles, 0.0);
  EXPECT_FALSE(ext.fully_hidden);
}

TEST(TimeExtend, ExtensionKeepsFootprintFeasible) {
  TeSetup setup = streaming_setup(512);  // two buffers max
  auto ctx = setup.ws->context();
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts);
  EXPECT_TRUE(oracle::fits(ctx, setup.assignment, result.footprint_extensions));
  EXPECT_LE(result.for_bt(0).extra_buffers, 1);
}

TEST(TimeExtend, LookaheadCapIsRespected) {
  TeSetup setup = streaming_setup(4096);
  auto ctx = setup.ws->context();
  TeOptions options;
  options.max_lookahead = 2;
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts, options);
  EXPECT_LE(result.for_bt(0).extra_buffers, 2);
}

TEST(TimeExtend, NoDmaEngineMeansNoExtensions) {
  mem::DmaEngine no_dma;
  no_dma.present = false;
  // Same streaming program, but the platform has no transfer engine.
  auto ws2 = [&] {
    ir::ProgramBuilder pb("stream2");
    pb.array("in", {64 * 64}, 4).input();
    pb.array("out", {64}, 4).output();
    pb.begin_loop("fr", 0, 64);
    pb.begin_loop("i", 0, 64);
    pb.stmt("work", 20).read("in", {av("fr", 64) + av("i")});
    pb.end_loop();
    pb.stmt("emit", 1).write("out", {av("fr")});
    pb.end_loop();
    mem::PlatformConfig platform;
    platform.l1_bytes = 1024;
    platform.l2_bytes = 0;
    return testing::make_ws(pb.finish(), platform, no_dma);
  }();
  auto ctx = ws2->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "in" && cc.level == 1) a.copies.push_back({cc.id, 0});
  }
  assign::Resolution res = assign::resolve(ctx, a);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  TeResult result = time_extend(ctx, a, res, bts);
  for (const BtExtension& ext : result.extensions) {
    EXPECT_DOUBLE_EQ(ext.hidden_cycles, 0.0);
    EXPECT_EQ(ext.extra_buffers, 0);
  }
}

TEST(TimeExtend, CrossNestPrefetchForLevel0Copies) {
  // Consumer nest reads an input; a level-0 copy can prefetch during the
  // unrelated preceding nest.
  ir::ProgramBuilder pb("xnest");
  pb.array("warm", {256}, 4).input();
  pb.array("tab", {64}, 4).input();
  pb.array("out", {256}, 4).output();
  // Nest 0: long-running unrelated work.
  pb.begin_loop("w", 0, 256);
  pb.stmt("warmup", 10).read("warm", {av("w")}).write("out", {av("w")});
  pb.end_loop();
  // Nest 1: consumes tab heavily.
  pb.begin_loop("r", 0, 128);
  pb.begin_loop("i", 0, 64);
  pb.stmt("use", 1).read("tab", {av("i")});
  pb.end_loop();
  pb.end_loop();

  mem::PlatformConfig platform;
  platform.l1_bytes = 512;
  platform.l2_bytes = 0;
  auto ws = testing::make_ws(pb.finish(), platform);
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "tab" && cc.nest == 1 && cc.level == 0) a.copies.push_back({cc.id, 0});
  }
  ASSERT_EQ(a.copies.size(), 1u);
  assign::Resolution res = assign::resolve(ctx, a);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  ASSERT_EQ(bts.size(), 1u);
  EXPECT_EQ(bts[0].level, 0);

  TeResult result = time_extend(ctx, a, res, bts);
  const BtExtension& ext = result.for_bt(0);
  EXPECT_EQ(ext.start_nest, 0);  // prefetch during nest 0
  EXPECT_TRUE(ext.fully_hidden);
}

TEST(TimeExtend, CrossNestRespectsProducerDependence) {
  // The consumed array is *produced* in the immediately preceding nest:
  // no earlier nest is eligible, so no hiding is possible.
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "mid" && cc.nest == 1 && cc.level == 0) a.copies.push_back({cc.id, 0});
  }
  assign::Resolution res = assign::resolve(ctx, a);
  std::vector<BlockTransfer> bts = collect_block_transfers(ctx, res);
  ASSERT_EQ(bts.size(), 1u);
  TeResult result = time_extend(ctx, a, res, bts);
  EXPECT_EQ(result.for_bt(0).start_nest, -1);
  EXPECT_DOUBLE_EQ(result.for_bt(0).hidden_cycles, 0.0);
}

TEST(TimeExtend, DmaPrioritiesAreAPermutation) {
  TeSetup setup = streaming_setup(1024);
  auto ctx = setup.ws->context();
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts);
  std::vector<bool> seen(result.extensions.size(), false);
  for (const BtExtension& ext : result.extensions) {
    ASSERT_GE(ext.dma_priority, 0);
    ASSERT_LT(ext.dma_priority, static_cast<int>(result.extensions.size()));
    EXPECT_FALSE(seen[static_cast<std::size_t>(ext.dma_priority)]);
    seen[static_cast<std::size_t>(ext.dma_priority)] = true;
  }
}

class ExtensionOrderSweep : public ::testing::TestWithParam<ExtensionOrder> {};

TEST_P(ExtensionOrderSweep, EveryOrderProducesFeasibleResult) {
  TeSetup setup = streaming_setup(512);
  auto ctx = setup.ws->context();
  TeOptions options;
  options.order = GetParam();
  TeResult result = time_extend(ctx, setup.assignment, setup.res, setup.bts, options);
  EXPECT_TRUE(oracle::fits(ctx, setup.assignment, result.footprint_extensions));
  for (const BtExtension& ext : result.extensions) {
    EXPECT_GE(ext.hidden_cycles, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ExtensionOrderSweep,
                         ::testing::Values(ExtensionOrder::TimePerByte, ExtensionOrder::Fifo,
                                           ExtensionOrder::BySizeDescending,
                                           ExtensionOrder::Reverse));

}  // namespace
}  // namespace mhla::te
