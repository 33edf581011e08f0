// Cross-implementation consistency checks: the static cost model
// (oracle::estimate_cost) and the simulator (sim::simulate) are written
// independently; on every app and every interesting assignment they must
// agree exactly in Blocking mode.  This is the suite's main oracle.  The
// production evaluators the searches and the simulator read —
// CostEngine's objective baseline and FootprintTracker's report — must
// equal the from-scratch model bit for bit on every app.

#include <gtest/gtest.h>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "helpers.h"
#include "oracle/model.h"
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
    assign::CostEstimate cost = oracle::estimate_cost(ctx, a);
    sim::SimResult result = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
    EXPECT_NEAR(result.total_cycles() / cost.total_cycles(), 1.0, 1e-12);
    EXPECT_NEAR(result.energy_nj / cost.energy_nj, 1.0, 1e-12);
  }

  assign::Objective from_engine = assign::CostEngine(ctx).objective(1.0, 1.0);
  assign::Objective from_model = oracle::make_objective(ctx, 1.0, 1.0);
  EXPECT_EQ(from_engine.baseline_energy_nj, from_model.baseline_energy_nj);
  EXPECT_EQ(from_engine.baseline_cycles, from_model.baseline_cycles);
}

TEST_P(PerAppConsistency, TallyMatchesCostModelCounts) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;

  assign::CostEstimate cost = oracle::estimate_cost(ctx, a);
  sim::AccessTally tally = sim::tally_accesses(ctx, a, assign::resolve(ctx, a));
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
  EXPECT_TRUE(oracle::fits(ctx, greedy.assignment));

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

  // Each mode's footprints are the from-scratch model's under that mode's
  // extensions (TE's for the extended run, none otherwise).
  assign::Resolution res = assign::resolve(ctx, a);
  te::TeResult te = te::time_extend(ctx, a, res, te::collect_block_transfers(ctx, res));
  for (const auto& [run, extensions] :
       {std::pair{&blocking, std::vector<assign::CopyExtension>{}},
        std::pair{&extended, te.footprint_extensions},
        std::pair{&ideal, std::vector<assign::CopyExtension>{}}}) {
    assign::FootprintReport model = oracle::compute_footprints(ctx, a, extensions);
    EXPECT_EQ(run->footprints.peak_bytes, model.peak_bytes);
    EXPECT_EQ(run->footprints.usage, model.usage);
    EXPECT_EQ(run->footprints.feasible, model.feasible);
  }
}

TEST_P(PerAppConsistency, TeFootprintStaysWithinConstraint) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  assign::Resolution res = assign::resolve(ctx, a);
  auto bts = te::collect_block_transfers(ctx, res);
  te::TeResult result = te::time_extend(ctx, a, res, bts);
  EXPECT_TRUE(oracle::fits(ctx, a, result.footprint_extensions));
}

INSTANTIATE_TEST_SUITE_P(AllNine, PerAppConsistency, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace mhla
