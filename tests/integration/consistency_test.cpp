// Cross-implementation consistency checks: the static cost model
// (assign::estimate_cost) and the simulator (sim::simulate) are written
// independently; on every app and every interesting assignment they must
// agree exactly in Blocking mode.  This is the suite's main oracle.

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"
#include "sim/simulator.h"

namespace mhla {
namespace {

class PerAppConsistency : public ::testing::TestWithParam<apps::AppInfo> {};

TEST_P(PerAppConsistency, SimulatorMatchesCostModel) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();

  std::vector<assign::Assignment> configs;
  configs.push_back(assign::out_of_box(ctx));
  configs.push_back(assign::greedy_assign(ctx).assignment);

  for (const assign::Assignment& a : configs) {
    assign::CostEstimate cost = assign::estimate_cost(ctx, a);
    sim::SimResult result = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
    EXPECT_NEAR(result.total_cycles() / cost.total_cycles(), 1.0, 1e-12);
    EXPECT_NEAR(result.energy_nj / cost.energy_nj, 1.0, 1e-12);
  }
}

TEST_P(PerAppConsistency, TallyMatchesCostModelCounts) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;

  assign::CostEstimate cost = assign::estimate_cost(ctx, a);
  sim::AccessTally tally = sim::tally_accesses(ctx, a);
  for (int l = 0; l < ctx.hierarchy.num_layers(); ++l) {
    EXPECT_EQ(tally.reads[static_cast<std::size_t>(l)],
              cost.layer_reads[static_cast<std::size_t>(l)])
        << "layer " << l;
    EXPECT_EQ(tally.writes[static_cast<std::size_t>(l)],
              cost.layer_writes[static_cast<std::size_t>(l)])
        << "layer " << l;
  }
}

TEST_P(PerAppConsistency, GreedyResultSurvivesResolveRoundtrip) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
  EXPECT_TRUE(assign::fits(ctx, greedy.assignment));

  assign::Resolution res = assign::resolve(ctx, greedy.assignment);
  EXPECT_EQ(res.site_layer.size(), ctx.sites.size());
  EXPECT_EQ(res.transfers.size(), greedy.assignment.copies.size());
  for (int layer : res.site_layer) {
    EXPECT_GE(layer, 0);
    EXPECT_LT(layer, ctx.hierarchy.num_layers());
  }
}

TEST_P(PerAppConsistency, TeNeverExceedsBlockingNorUndercutsIdeal) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  sim::SimResult blocking = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
  sim::SimResult extended = sim::simulate(ctx, a, {te::TransferMode::TimeExtended, {}});
  sim::SimResult ideal = sim::simulate(ctx, a, {te::TransferMode::Ideal, {}});
  EXPECT_LE(extended.total_cycles(), blocking.total_cycles() + 1e-9);
  EXPECT_GE(extended.total_cycles(), ideal.total_cycles() - 1e-9);
}

TEST_P(PerAppConsistency, TeFootprintStaysWithinConstraint) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  auto bts = te::collect_block_transfers(ctx, a);
  te::TeResult result = te::time_extend(ctx, a, bts);
  EXPECT_TRUE(assign::fits(ctx, a, result.footprint_extensions));
}

INSTANTIATE_TEST_SUITE_P(AllNine, PerAppConsistency, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace mhla
