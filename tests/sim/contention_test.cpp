// Tests for the two optional model refinements: DMA-engine contention in
// the simulator and TE cold-start (pipeline fill) charging.

#include <gtest/gtest.h>

#include "helpers.h"
#include "sim/simulator.h"
#include "ir/serialize.h"

namespace mhla::sim {
namespace {

using ir::av;

/// Many parallel copy streams inside one nest with little compute: TE's
/// per-stream view can promise more hiding than one DMA channel can
/// physically deliver.
struct ContentionSetup {
  std::unique_ptr<core::Workspace> ws;
  assign::Assignment assignment;
};

ContentionSetup contention_setup(int streams, ir::i64 op_cycles) {
  ir::ProgramBuilder pb("contention");
  for (int s = 0; s < streams; ++s) {
    pb.array("in" + std::to_string(s), {64 * 64}, 4).input();
  }
  pb.array("out", {64}, 4).output();
  pb.begin_loop("fr", 0, 64);
  for (int s = 0; s < streams; ++s) {
    pb.begin_loop("i" + std::to_string(s), 0, 64);
    pb.stmt("work" + std::to_string(s), op_cycles)
        .read("in" + std::to_string(s), {av("fr", 64) + av("i" + std::to_string(s))});
    pb.end_loop();
  }
  pb.stmt("emit", 1).write("out", {av("fr")});
  pb.end_loop();

  mem::PlatformConfig platform;
  platform.l1_bytes = 8 * 1024;  // room for all double buffers, latency 1
  platform.l2_bytes = 0;
  ContentionSetup setup{testing::make_ws(pb.finish(), platform), {}};
  auto ctx = setup.ws->context();
  setup.assignment = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.level == 1 && cc.array.rfind("in", 0) == 0) {
      setup.assignment.copies.push_back({cc.id, 0});
    }
  }
  return setup;
}

TEST(DmaContention, NoEffectWhenComputeDominates) {
  ContentionSetup setup = contention_setup(2, 50);
  auto ctx = setup.ws->context();
  SimOptions with;
  with.mode = te::TransferMode::TimeExtended;
  with.model_dma_contention = true;
  SimOptions without = with;
  without.model_dma_contention = false;
  EXPECT_DOUBLE_EQ(simulate(ctx, setup.assignment, with).total_cycles(),
                   simulate(ctx, setup.assignment, without).total_cycles());
}

TEST(DmaContention, OversubscriptionSurfacesStalls) {
  // Eight streams, almost no compute: the single-channel engine cannot
  // overlap everything the per-stream model promises.
  ContentionSetup setup = contention_setup(8, 1);
  auto ctx = setup.ws->context();
  SimOptions with;
  with.mode = te::TransferMode::TimeExtended;
  with.model_dma_contention = true;
  SimOptions without = with;
  without.model_dma_contention = false;

  SimResult contended = simulate(ctx, setup.assignment, with);
  SimResult idealized = simulate(ctx, setup.assignment, without);
  EXPECT_GT(contended.stall_cycles, idealized.stall_cycles);

  // Still never worse than blocking everything.
  SimResult blocking = simulate(ctx, setup.assignment, {te::TransferMode::Blocking, {}});
  EXPECT_LE(contended.total_cycles(), blocking.total_cycles() + 1e-9);
}

TEST(DmaContention, MoreChannelsRelieveContention) {
  ContentionSetup setup = contention_setup(8, 1);
  // Re-run with a 4-channel engine.
  mem::DmaEngine wide;
  wide.channels = 4;
  auto ws4 = [&] {
    ir::Program copy = ir::parse_program(ir::serialize(setup.ws->program()));
    mem::PlatformConfig platform;
    platform.l1_bytes = 8 * 1024;
    platform.l2_bytes = 0;
    return core::make_workspace(std::move(copy), platform, wide);
  }();
  auto ctx1 = setup.ws->context();
  auto ctx4 = ws4->context();

  assign::Assignment a4 = assign::out_of_box(ctx4);
  for (const auto& cc : ctx4.reuse.candidates()) {
    if (cc.level == 1 && cc.array.rfind("in", 0) == 0) a4.copies.push_back({cc.id, 0});
  }

  SimOptions options;
  options.mode = te::TransferMode::TimeExtended;
  options.model_dma_contention = true;
  double narrow = simulate(ctx1, setup.assignment, options).stall_cycles;
  double wide_stall = simulate(ctx4, a4, options).stall_cycles;
  EXPECT_LE(wide_stall, narrow);
}

TEST(ColdStart, ChargesPipelineFill) {
  ContentionSetup setup = contention_setup(1, 50);
  auto ctx = setup.ws->context();
  assign::Resolution res = assign::resolve(ctx, setup.assignment);
  auto bts = te::collect_block_transfers(ctx, res);
  ASSERT_EQ(bts.size(), 1u);

  te::TeOptions steady;
  te::TeOptions cold = steady;
  cold.charge_cold_start = true;

  te::TeResult steady_result = te::time_extend(ctx, setup.assignment, res, bts, steady);
  te::TeResult cold_result = te::time_extend(ctx, setup.assignment, res, bts, cold);

  double steady_stall =
      te::total_stall_cycles(bts, te::TransferMode::TimeExtended, &steady_result);
  double cold_stall = te::total_stall_cycles(bts, te::TransferMode::TimeExtended, &cold_result);
  EXPECT_GT(cold_stall, steady_stall);

  // Cold start charges exactly extra_buffers issues' worth of hidden time.
  const te::BtExtension& ext = cold_result.for_bt(0);
  EXPECT_DOUBLE_EQ(ext.cold_start_stall_cycles,
                   static_cast<double>(ext.extra_buffers) * ext.hidden_cycles);
}

TEST(ColdStart, NeverExceedsBlocking) {
  ContentionSetup setup = contention_setup(4, 2);
  auto ctx = setup.ws->context();
  assign::Resolution res = assign::resolve(ctx, setup.assignment);
  auto bts = te::collect_block_transfers(ctx, res);
  te::TeOptions cold;
  cold.charge_cold_start = true;
  te::TeResult result = te::time_extend(ctx, setup.assignment, res, bts, cold);
  double te_stall = te::total_stall_cycles(bts, te::TransferMode::TimeExtended, &result);
  double blocking = te::total_stall_cycles(bts, te::TransferMode::Blocking, nullptr);
  EXPECT_LE(te_stall, blocking + 1e-9);
}

TEST(ColdStart, ZeroLookaheadMeansNoCharge) {
  // Cross-nest extensions have no pipeline fill (single prefetch).
  auto ws = testing::make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "mid" && cc.nest == 1 && cc.level == 0) a.copies.push_back({cc.id, 0});
  }
  assign::Resolution res = assign::resolve(ctx, a);
  auto bts = te::collect_block_transfers(ctx, res);
  te::TeOptions cold;
  cold.charge_cold_start = true;
  te::TeResult result = te::time_extend(ctx, a, res, bts, cold);
  for (const te::BtExtension& ext : result.extensions) {
    if (ext.extra_buffers == 0) {
      EXPECT_DOUBLE_EQ(ext.cold_start_stall_cycles, 0.0);
    }
  }
}

}  // namespace
}  // namespace mhla::sim
