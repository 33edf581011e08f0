#include "assign/cost.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "oracle/model.h"

namespace mhla::assign {
namespace {

using ir::av;
using oracle::estimate_cost;
using oracle::loop_iteration_cpu_cycles;
using oracle::make_objective;
using oracle::nest_cpu_cycles;
using testing::make_ws;

/// Ten reads of a small array plus op cycles: every term checkable by hand.
ir::Program ten_read_program() {
  ir::ProgramBuilder pb("ten");
  pb.array("big", {10}, 4).input();
  pb.begin_loop("i", 0, 10);
  pb.stmt("s", 2).read("big", {av("i")});
  pb.end_loop();
  return pb.finish();
}

TEST(Cost, OutOfBoxBaselineByHand) {
  auto ws = make_ws(ten_read_program());
  auto ctx = ws->context();
  CostEstimate cost = estimate_cost(ctx, out_of_box(ctx));
  const mem::MemLayer& sdram = ctx.hierarchy.layer(ctx.hierarchy.background());

  EXPECT_DOUBLE_EQ(cost.compute_cycles, 10.0 * 2.0);
  EXPECT_DOUBLE_EQ(cost.access_cycles, 10.0 * sdram.read_latency);
  EXPECT_DOUBLE_EQ(cost.transfer_cycles, 0.0);
  EXPECT_DOUBLE_EQ(cost.energy_nj, 10.0 * sdram.read_energy_nj);
  EXPECT_EQ(cost.layer_reads[static_cast<std::size_t>(ctx.hierarchy.background())], 10);
}

TEST(Cost, CopySplitsTrafficAcrossLayers) {
  auto ws = make_ws(ten_read_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "big" && cc.level == 0) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});
  CostEstimate cost = estimate_cost(ctx, a);

  const mem::MemLayer& l1 = ctx.hierarchy.layer(0);
  const mem::MemLayer& sdram = ctx.hierarchy.layer(ctx.hierarchy.background());

  // Processor: 10 reads from L1.  Copy: 10 reads SDRAM + 10 writes L1.
  double expected_energy = 10.0 * l1.read_energy_nj +
                           10.0 * (sdram.read_energy_nj + l1.write_energy_nj);
  EXPECT_DOUBLE_EQ(cost.energy_nj, expected_energy);
  EXPECT_DOUBLE_EQ(cost.access_cycles, 10.0 * l1.read_latency);

  double expected_transfer =
      mem::blocking_transfer_cycles(40, sdram, l1, ctx.dma);
  EXPECT_DOUBLE_EQ(cost.transfer_cycles, expected_transfer);
}

TEST(Cost, WriteOnlyCopySkipsFillButFlushes) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();

  // Copy of "mid" in its producing nest (write-only: fill-free, flush only)
  // vs in its consuming nest (read-only: fill only, no flush).  Both move
  // the same bytes once, so their transfer cost must be identical — the
  // write-allocate-without-fetch refinement at work.
  int cc_dirty = -1;
  int cc_clean = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array != "mid" || cc.level != 0) continue;
    if (cc.nest == 0) cc_dirty = cc.id;
    if (cc.nest == 1) cc_clean = cc.id;
  }
  ASSERT_GE(cc_dirty, 0);
  ASSERT_GE(cc_clean, 0);
  EXPECT_TRUE(ctx.reuse.candidate(cc_dirty).fill_free);
  EXPECT_FALSE(ctx.reuse.candidate(cc_clean).fill_free);

  Assignment dirty = out_of_box(ctx);
  dirty.copies.push_back({cc_dirty, 0});
  Assignment clean = out_of_box(ctx);
  clean.copies.push_back({cc_clean, 0});

  CostEstimate dirty_cost = estimate_cost(ctx, dirty);
  CostEstimate clean_cost = estimate_cost(ctx, clean);
  EXPECT_DOUBLE_EQ(dirty_cost.transfer_cycles, clean_cost.transfer_cycles);
}

TEST(Cost, ObjectiveNormalizesAgainstBaseline) {
  auto ws = make_ws(ten_read_program());
  auto ctx = ws->context();
  Objective obj = make_objective(ctx, 1.0, 1.0);
  CostEstimate baseline = estimate_cost(ctx, out_of_box(ctx));
  EXPECT_DOUBLE_EQ(obj.scalar(baseline), 2.0);  // 1.0 energy + 1.0 time
}

TEST(Cost, ObjectiveWeightsSelectDimension) {
  auto ws = make_ws(ten_read_program());
  auto ctx = ws->context();
  CostEstimate baseline = estimate_cost(ctx, out_of_box(ctx));
  EXPECT_DOUBLE_EQ(make_objective(ctx, 1.0, 0.0).scalar(baseline), 1.0);
  EXPECT_DOUBLE_EQ(make_objective(ctx, 0.0, 1.0).scalar(baseline), 1.0);
  EXPECT_DOUBLE_EQ(make_objective(ctx, 2.0, 0.0).scalar(baseline), 2.0);
}

TEST(Cost, NestCpuCyclesSplitsByNest) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  std::vector<double> cycles = nest_cpu_cycles(ctx, out_of_box(ctx));
  ASSERT_EQ(cycles.size(), 2u);
  const mem::MemLayer& sdram = ctx.hierarchy.layer(ctx.hierarchy.background());
  // Each nest: 128 * (1 op + 2 accesses * latency).
  double expected = 128.0 * (1.0 + 2.0 * sdram.read_latency);
  EXPECT_DOUBLE_EQ(cycles[0], expected);
  EXPECT_DOUBLE_EQ(cycles[1], expected);
}

TEST(Cost, NestCpuCyclesExcludeTransferStalls) {
  auto ws = make_ws(ten_read_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "big" && cc.level == 0) a.copies.push_back({cc.id, 0});
  }
  std::vector<double> cycles = nest_cpu_cycles(ctx, a);
  // 10 ops * 2 + 10 L1 accesses * 1 = 30; no transfer term.
  EXPECT_DOUBLE_EQ(cycles[0], 30.0);
}

TEST(Cost, LoopIterationCycles) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Assignment oob = out_of_box(ctx);

  const ir::LoopNode& bi = ws->program().top()[0]->as_loop();
  double per_bi = loop_iteration_cpu_cycles(ctx, oob, 0, &bi);
  const mem::MemLayer& sdram = ctx.hierarchy.layer(ctx.hierarchy.background());
  // One bi iteration: 10 reps * 64 reads * (1 op + latency) + save stmt.
  double expected = 10.0 * 64.0 * (1.0 + sdram.read_latency) + (1.0 + sdram.write_latency);
  EXPECT_DOUBLE_EQ(per_bi, expected);

  // Sum over all bi iterations == whole-nest cycles.
  std::vector<double> nests = nest_cpu_cycles(ctx, oob);
  EXPECT_DOUBLE_EQ(32.0 * per_bi, nests[0]);
}

TEST(Cost, LoopIterationCyclesZeroForForeignLoop) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  const ir::LoopNode& first = ws->program().top()[0]->as_loop();
  // Asking about nest 1 with a loop from nest 0: nothing matches.
  EXPECT_DOUBLE_EQ(loop_iteration_cpu_cycles(ctx, out_of_box(ctx), 1, &first), 0.0);
}

}  // namespace
}  // namespace mhla::assign
