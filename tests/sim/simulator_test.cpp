#include "oracle/model.h"
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::sim {
namespace {

using testing::make_ws;

TEST(Simulator, BaselineHasNoStalls) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  EXPECT_DOUBLE_EQ(result.stall_cycles, 0.0);
  EXPECT_EQ(result.num_block_transfers, 0);
  EXPECT_TRUE(result.feasible);
}

TEST(Simulator, AgreesWithStaticCostModelBlocking) {
  // The simulator and oracle::estimate_cost are independent
  // implementations; in Blocking mode they must agree exactly.
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);

  for (const assign::Assignment& a : {assign::out_of_box(ctx), greedy.assignment}) {
    assign::CostEstimate cost = oracle::estimate_cost(ctx, a);
    SimResult sim_result = simulate(ctx, a, {te::TransferMode::Blocking, {}});
    EXPECT_NEAR(sim_result.total_cycles(), cost.total_cycles(), 1e-6);
    EXPECT_NEAR(sim_result.energy_nj, cost.energy_nj, 1e-6);
    EXPECT_NEAR(sim_result.compute_cycles, cost.compute_cycles, 1e-6);
    EXPECT_NEAR(sim_result.access_cycles, cost.access_cycles, 1e-6);
    EXPECT_NEAR(sim_result.stall_cycles, cost.transfer_cycles, 1e-6);
  }
}

TEST(Simulator, ModeOrdering) {
  // Ideal <= TimeExtended <= Blocking, always.
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);

  SimResult blocking = simulate(ctx, greedy.assignment, {te::TransferMode::Blocking, {}});
  SimResult extended = simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}});
  SimResult ideal = simulate(ctx, greedy.assignment, {te::TransferMode::Ideal, {}});

  EXPECT_LE(ideal.total_cycles(), extended.total_cycles());
  EXPECT_LE(extended.total_cycles(), blocking.total_cycles());
  // The step-1 rule: blocking waits out every busy engine cycle, ideal none.
  EXPECT_GT(blocking.dma_busy_cycles, 0.0);
  EXPECT_EQ(blocking.stall_cycles, blocking.dma_busy_cycles);
  EXPECT_EQ(ideal.stall_cycles, 0.0);
  EXPECT_FALSE(std::signbit(ideal.stall_cycles));
}

TEST(Simulator, EnergyInvariantAcrossModes) {
  // Paper: "energy consumption in both steps remains the same" — the model
  // counts memory accesses only.
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  SimResult blocking = simulate(ctx, greedy.assignment, {te::TransferMode::Blocking, {}});
  SimResult extended = simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}});
  SimResult ideal = simulate(ctx, greedy.assignment, {te::TransferMode::Ideal, {}});
  EXPECT_DOUBLE_EQ(blocking.energy_nj, extended.energy_nj);
  EXPECT_DOUBLE_EQ(blocking.energy_nj, ideal.energy_nj);
}

TEST(Simulator, NestCyclesSumToComputePlusAccess) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  double sum = 0.0;
  for (double c : result.nest_cycles) sum += c;
  EXPECT_NEAR(sum, result.compute_cycles + result.access_cycles, 1e-9);
}

TEST(Simulator, LayerStatsConsistentWithEnergy) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  SimResult result = simulate(ctx, greedy.assignment);
  double layer_sum = 0.0;
  for (const LayerStats& layer : result.layers) layer_sum += layer.energy_nj;
  EXPECT_NEAR(layer_sum, result.energy_nj, 1e-6);
}

TEST(Simulator, FourPointsShape) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  SimResult te_point = simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}});
  FourPoint fp = four_points(ctx, greedy.assignment, te_point);
  EXPECT_LE(fp.mhla.total_cycles(), fp.out_of_box.total_cycles());
  EXPECT_LE(fp.mhla_te.total_cycles(), fp.mhla.total_cycles());
  EXPECT_LE(fp.ideal.total_cycles(), fp.mhla_te.total_cycles());
  EXPECT_LE(fp.mhla.energy_nj, fp.out_of_box.energy_nj);
  EXPECT_DOUBLE_EQ(fp.mhla.energy_nj, fp.mhla_te.energy_nj);
}

TEST(AccessTally, CountsProcessorAndCopyTraffic) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});
  AccessTally tally = tally_accesses(ctx, a, assign::resolve(ctx, a));
  const analysis::CopyCandidate& cc = ctx.reuse.candidate(cc_id);

  // L1: processor reads + copy-fill writes.
  EXPECT_EQ(tally.reads[0], cc.reads_served);
  EXPECT_EQ(tally.writes[0], cc.transfers * cc.elems_per_transfer);
  // SDRAM: copy-fill reads + the program's own writes to "acc".
  EXPECT_EQ(tally.reads[static_cast<std::size_t>(ctx.hierarchy.background())],
            cc.transfers * cc.elems_per_transfer);
}

TEST(AccessTally, GrandTotalConsistency) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  AccessTally tally = tally_accesses(ctx, a, assign::resolve(ctx, a));
  ir::i64 expected = 0;
  for (const analysis::AccessSite& site : ctx.sites) expected += site.dynamic_accesses();
  EXPECT_EQ(tally.grand_total(), expected);
}

TEST(Simulator, InfeasibleAssignmentIsFlagged) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 16;
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;  // 256 B > 16 B
  }
  a.copies.push_back({cc_id, 0});
  SimResult result = simulate(ctx, a);
  EXPECT_FALSE(result.feasible);
}

}  // namespace
}  // namespace mhla::sim
