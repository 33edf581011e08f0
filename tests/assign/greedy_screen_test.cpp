// Admissibility of greedy's screen (assign/greedy.cpp).  Each round scores
// every gated move by `CostEngine`'s `*_delta` methods — the terms of the one
// array the move changes — and runs the canonical fold only for the moves whose
// gain per byte could win.  That is exact only if every estimate lies well
// inside the allowance eps = 1e-9 * max(1, |scalar|, |estimate|) of the
// fold.  These tests replay greedy's accepted-move trail and, at every
// round, hold each gated move's estimate to eps / 1000 of sequential
// apply / scalar() / undo, and each verdict to the applied state's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "assign/cost_engine.h"
#include "assign/search.h"
#include "gen/random_program.h"
#include "helpers.h"

namespace mhla {
namespace {

using Kind = assign::GreedyMove::Kind;

struct Replay {
  long moves_checked = 0;
  double worst_ratio = 0.0;  ///< max |estimate - fold| / eps
};

/// The platform slice: tight to roomy L1, with and without L2; it holds
/// the default platform (4 KiB L1, 128 KiB L2).
std::vector<mem::PlatformConfig> platform_slice() {
  std::vector<mem::PlatformConfig> platforms;
  for (ir::i64 l1 : {256, 4096, 65536}) {
    for (ir::i64 l2 : {0, 128 * 1024, 256 * 1024}) {
      mem::PlatformConfig platform;
      platform.l1_bytes = l1;
      platform.l2_bytes = l2;
      platforms.push_back(platform);
    }
  }
  return platforms;
}

void apply(assign::CostEngine& engine, Kind kind, int cc_id, std::size_t array, int layer) {
  switch (kind) {
    case Kind::SelectCopy:
      engine.select_copy(cc_id, layer);
      break;
    case Kind::MigrateArray:
      engine.migrate_array(array, layer);
      break;
    case Kind::RemoveCopy:
      engine.remove_copy(cc_id);
      break;
  }
}

assign::CostEngine::MoveDelta delta(const assign::CostEngine& engine, Kind kind, int cc_id,
                                    std::size_t array, int layer) {
  switch (kind) {
    case Kind::SelectCopy:
      return engine.select_delta(cc_id, layer);
    case Kind::MigrateArray:
      return engine.migrate_delta(array, layer);
    case Kind::RemoveCopy:
      break;
  }
  return engine.remove_delta(cc_id);
}

/// Check every move greedy enumerates in the engine's live state.
void check_round(assign::CostEngine& engine, const assign::AssignContext& ctx,
                 const assign::Objective& objective, Replay& replay) {
  const assign::CostEngine::Totals now = engine.totals();
  const double scalar = objective.scalar_terms(now.energy_nj, now.total_cycles());
  const double energy_unit = objective.energy_weight / objective.baseline_energy_nj;
  const double cycle_unit = objective.time_weight / objective.baseline_cycles;

  auto check = [&](Kind kind, int cc_id, std::size_t array, int layer) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) + " cc " +
                 std::to_string(cc_id) + " array " + std::to_string(array) + " layer " +
                 std::to_string(layer));
    assign::CostEngine::MoveDelta d = delta(engine, kind, cc_id, array, layer);

    // The const migrate-feasibility query against apply + fits().
    std::vector<int> before;
    for (const assign::PlacedCopy& pc : engine.placed_copies()) before.push_back(pc.cc_id);
    assign::CostEngine::Checkpoint mark = engine.checkpoint();
    apply(engine, kind, cc_id, array, layer);
    bool gate = engine.fits() && engine.layering_valid();
    if (kind == Kind::MigrateArray) {
      std::vector<int> dropped;
      for (int cc : before) {
        if (!engine.has_copy(cc)) dropped.push_back(cc);
      }
      bool applied_fits = engine.fits();
      engine.undo_to(mark);
      EXPECT_EQ(engine.footprint().feasible_with_home(
                    array, layer, {dropped.data(), dropped.data() + dropped.size()}),
                applied_fits);
      apply(engine, kind, cc_id, array, layer);
    }
    assign::CostEngine::Totals folded = engine.totals();
    engine.undo_to(mark);

    ASSERT_EQ(d.ok, gate);
    if (!d.ok) return;
    double exact = objective.scalar_terms(folded.energy_nj, folded.total_cycles());
    // The estimate as greedy forms it, and from the summed totals.
    double linear = scalar + energy_unit * d.energy_nj + cycle_unit * d.cycles;
    double summed =
        objective.scalar_terms(now.energy_nj + d.energy_nj, now.total_cycles() + d.cycles);
    for (double estimate : {linear, summed}) {
      double eps = 1e-9 * std::max({1.0, std::abs(scalar), std::abs(estimate)});
      EXPECT_LE(std::abs(estimate - exact), eps / 1000) << "exact " << exact;
      replay.worst_ratio = std::max(replay.worst_ratio, std::abs(estimate - exact) / eps);
    }
    ++replay.moves_checked;
  };

  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (engine.has_copy(cc.id) || cc.elems <= 0) continue;
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      if (ctx.hierarchy.layer(layer).fits(cc.bytes)) check(Kind::SelectCopy, cc.id, 0, layer);
    }
  }
  const auto& arrays = ctx.program.arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
      if (layer == engine.home_of(a) || !ctx.hierarchy.layer(layer).fits(arrays[a].bytes())) {
        continue;
      }
      check(Kind::MigrateArray, -1, a, layer);
    }
  }
  for (std::size_t i = 0; i < engine.placed_copies().size(); ++i) {
    assign::PlacedCopy pc = engine.placed_copies()[i];
    check(Kind::RemoveCopy, pc.cc_id, 0, pc.layer);
  }
}

/// Replay greedy's trail on every platform of the slice and every target,
/// checking each round before its accepted move and the final round.
template <typename Build>
void replay_program(const Build& build, Replay& replay) {
  for (const mem::PlatformConfig& platform : platform_slice()) {
    auto ws = core::make_workspace(build(), platform, {});
    auto ctx = ws->context();
    for (assign::Target target :
         {assign::Target::Balanced, assign::Target::Energy, assign::Target::Time}) {
      SCOPED_TRACE(ctx.program.name() + " L1 " + std::to_string(platform.l1_bytes) + " L2 " +
                   std::to_string(platform.l2_bytes) + " " + assign::to_string(target));
      assign::SearchOptions options;
      options.set_target(target);
      assign::SearchResult walk = assign::greedy_assign(ctx, options);
      assign::CostEngine engine(ctx);
      assign::Objective objective = engine.objective(options.energy_weight, options.time_weight);
      for (const assign::GreedyMove& move : walk.moves) {
        check_round(engine, ctx, objective, replay);
        if (move.kind == Kind::MigrateArray) {
          engine.migrate_array(move.array, move.layer);
        } else {
          apply(engine, move.kind, move.cc_id, 0, move.layer);
        }
      }
      check_round(engine, ctx, objective, replay);
      EXPECT_EQ(engine.assignment(), walk.assignment);
    }
  }
}

TEST(GreedyScreen, EstimatesStayWithinTheAllowanceOnTheApps) {
  Replay replay;
  for (const apps::AppInfo& app : apps::all_apps()) replay_program(app.build, replay);
  EXPECT_GT(replay.moves_checked, 10000);
  RecordProperty("worst_error_over_eps", std::to_string(replay.worst_ratio));
}

TEST(GreedyScreen, EstimatesStayWithinTheAllowanceOnRandomPrograms) {
  Replay replay;
  for (std::uint32_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    replay_program([seed] { return gen::random_program(seed); }, replay);
  }
  EXPECT_GT(replay.moves_checked, 1000);
  RecordProperty("worst_error_over_eps", std::to_string(replay.worst_ratio));
}

TEST(GreedyScreen, FoldsUnderAFifthOfTheEvaluations) {
  // The screen is not vacuous: on every app most evaluated moves are
  // counted without the canonical fold.  Every accepted move was folded.
  for (const apps::AppInfo& app : apps::all_apps()) {
    SCOPED_TRACE(app.name);
    auto ws = core::make_workspace(app.build());
    assign::SearchResult walk = assign::greedy_assign(ws->context());
    EXPECT_GE(walk.exact_folds, static_cast<int>(walk.moves.size()));
    EXPECT_LT(5 * walk.exact_folds, walk.evaluations);
  }
}

}  // namespace
}  // namespace mhla
