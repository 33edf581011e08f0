// Zero-steady-state-allocation regression for the search hot path.
//
// The data-layout pass pays all allocation at setup: term tables, CSR
// topology, scorer scratch, and the arena-backed undo journals are sized in
// the CostEngine/FootprintTracker constructors, so every subsequent move —
// select, remove, migrate, home change, extension, undo, scalar read,
// feasibility probe, screened round scoring — is loads and stores into
// existing blocks.  These tests pin that property with the binary-wide
// counting allocator from tests/helpers_alloc.cpp: warm each move kind once
// (the lazy high-water marks fill on the first cycle), then assert that
// hundreds of further cycles perform literally zero heap allocations.
//
// What must NOT appear inside a sampled region: engine.assignment() (the
// lazy name-keyed sync inserts into a std::map by design — it is a
// setup/reporting API, not a move).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "assign/cost.h"
#include "assign/cost_engine.h"
#include "assign/footprint_tracker.h"
#include "assign/search.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "oracle/model.h"

namespace mhla {
namespace {

/// First (cc, layer) placement the engine accepts as feasible and
/// layering-valid from the out-of-box state, or {-1, -1}.
std::pair<int, int> find_placement(assign::CostEngine& engine, const assign::AssignContext& ctx) {
  const int background = ctx.hierarchy.background();
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0) continue;
    for (int layer = 0; layer < background; ++layer) {
      assign::CostEngine::Checkpoint mark = engine.checkpoint();
      engine.select_copy(cc.id, layer);
      bool good = engine.layering_valid() && engine.fits();
      engine.undo_to(mark);
      if (good) return {cc.id, layer};
    }
  }
  return {-1, -1};
}

TEST(AllocRegression, CostEngineSteadyStateMovesAreAllocationFree) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::CostEngine engine(ctx);
  assign::Objective objective = oracle::make_objective(ctx, 1.0, 1.0);

  auto [cc_id, cc_layer] = find_placement(engine, ctx);
  ASSERT_GE(cc_id, 0) << "fixture program must admit at least one placement";
  ASSERT_GT(engine.num_arrays(), 0u);
  const std::size_t array = 0;
  const int home_layer = 0;  // on-chip; capacity is irrelevant, every move is undone

  // One cycle of every steady-state move kind plus the reads between them.
  auto cycle = [&]() {
    assign::CostEngine::Checkpoint mark = engine.checkpoint();
    engine.select_copy(cc_id, cc_layer);
    (void)engine.scalar(objective);
    (void)engine.fits();
    (void)engine.layering_valid();
    engine.remove_copy(cc_id);
    engine.select_copy(cc_id, cc_layer);
    engine.set_home(array, home_layer);
    (void)engine.scalar(objective);
    engine.undo_to(mark);
    mark = engine.checkpoint();
    (void)engine.migrate_array(array, home_layer);
    (void)engine.scalar(objective);
    engine.undo_to(mark);
  };

  cycle();  // warm-up: fills every lazy high-water mark once
  long before = testing::heap_allocations();
  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "engine moves must stay allocation-free after the first cycle";
}

TEST(AllocRegression, ScreenedGreedyRoundIsAllocationFree) {
  // One steady-state greedy round on the engine, mid-walk: the totals fold,
  // a select/migrate/remove delta and the footprint query of greedy's split
  // gate for every enumerated move (a round with every cached slot stale),
  // and the canonical fold (checkpoint, apply, scalar, undo) of each gated
  // move — more folds than the screen ever runs.
  auto ws = core::make_workspace(apps::build_app("qsdpcm"));
  auto ctx = ws->context();
  assign::SearchResult walk = assign::greedy_assign(ctx);
  ASSERT_GE(walk.moves.size(), 2u);
  assign::CostEngine engine(ctx);
  assign::Objective objective = engine.objective(1.0, 1.0);
  for (std::size_t i = 0; i < walk.moves.size() / 2; ++i) {
    const assign::GreedyMove& move = walk.moves[i];
    switch (move.kind) {
      case assign::GreedyMove::Kind::SelectCopy:
        engine.select_copy(move.cc_id, move.layer);
        break;
      case assign::GreedyMove::Kind::MigrateArray:
        engine.migrate_array(move.array, move.layer);
        break;
      case assign::GreedyMove::Kind::RemoveCopy:
        engine.remove_copy(move.cc_id);
        break;
    }
  }
  ASSERT_FALSE(engine.placed_copies().empty());

  using Kind = assign::GreedyMove::Kind;
  const int layers = ctx.hierarchy.num_layers();
  double sink = 0.0;
  auto round = [&]() {
    assign::CostEngine::Totals now = engine.totals();
    sink += now.energy_nj;
    auto screen = [&](const assign::CostEngine::MoveDelta& d, bool fits, Kind kind, int cc_id,
                      std::size_t array, int layer) {
      if (!d.ok || !fits) return;
      assign::CostEngine::Checkpoint mark = engine.checkpoint();
      if (kind == Kind::SelectCopy) engine.select_copy(cc_id, layer);
      if (kind == Kind::MigrateArray) engine.migrate_array(array, layer);
      if (kind == Kind::RemoveCopy) engine.remove_copy(cc_id);
      sink += engine.scalar(objective) + d.energy_nj;
      engine.undo_to(mark);
    };
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      if (engine.has_copy(cc.id) || cc.elems <= 0) continue;
      for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
        screen(engine.select_delta(cc.id, layer),
               engine.footprint().feasible_with_copy(cc.id, layer), Kind::SelectCopy, cc.id, 0,
               layer);
      }
    }
    for (std::size_t a = 0; a < engine.num_arrays(); ++a) {
      for (int layer = 0; layer < layers; ++layer) {
        if (layer == engine.home_of(a)) continue;
        screen(engine.migrate_delta(a, layer),
               engine.footprint().feasible_with_home(a, layer, engine.migrate_drops(a, layer)),
               Kind::MigrateArray, -1, a, layer);
      }
    }
    for (std::size_t i = 0; i < engine.placed_copies().size(); ++i) {
      int cc_id = engine.placed_copies()[i].cc_id;
      screen(engine.remove_delta(cc_id), true, Kind::RemoveCopy, cc_id, 0, -1);
    }
  };

  round();  // warm-up
  long before = testing::heap_allocations();
  for (int i = 0; i < 20; ++i) round();
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "a screened greedy round must reuse the engine's and tracker's scratch";
  EXPECT_GT(sink, 0.0);
}

TEST(AllocRegression, FootprintTrackerSteadyStateMovesAreAllocationFree) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::FootprintTracker tracker(ctx);

  int cc_id = -1;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems > 0) {
      cc_id = cc.id;
      break;
    }
  }
  ASSERT_GE(cc_id, 0);

  auto cycle = [&]() {
    assign::FootprintTracker::Checkpoint mark = tracker.checkpoint();
    tracker.place_copy(cc_id, 0);
    (void)tracker.feasible();
    tracker.extend_copy(cc_id, -1, 1);
    (void)tracker.feasible();
    tracker.remove_copy(cc_id);
    tracker.set_home(0, 0);
    (void)tracker.feasible();
    (void)tracker.feasible_with_copy(cc_id, 0);
    tracker.undo_to(mark);
  };

  cycle();  // warm-up
  long before = testing::heap_allocations();
  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "tracker moves must stay allocation-free after the first cycle";
}

// The front end — parse_program plus make_workspace — runs once per design
// cell.  Heap allocations per app, parent of the single-pass lexer and the
// flat reuse partitions (line-based parser, string-keyed partitions and
// affine terms): motion_estimation 599, qsdpcm 1525, mpeg2_encoder 1306,
// cavity_detection 1119, jpeg_compress 799, wavelet 1619, conv_filter 409,
// adpcm_coder 547, fft_filter 1281.  Each must stay at or below half that.
TEST(AllocRegression, FrontEndAllocatesAtMostHalfTheLineParser) {
  const std::map<std::string, long> parent = {
      {"motion_estimation", 599}, {"qsdpcm", 1525},     {"mpeg2_encoder", 1306},
      {"cavity_detection", 1119}, {"jpeg_compress", 799}, {"wavelet", 1619},
      {"conv_filter", 409},       {"adpcm_coder", 547},  {"fft_filter", 1281}};
  for (const apps::AppInfo& app : apps::all_apps()) {
    std::string text = ir::serialize(app.build());
    long before = testing::heap_allocations();
    {
      auto ws = core::make_workspace(ir::parse_program(text));
      ASSERT_FALSE(ws->reuse().candidates().empty());
    }
    long allocations = testing::heap_allocations() - before;
    EXPECT_LE(allocations, parent.at(app.name) / 2) << app.name;
  }
}

}  // namespace
}  // namespace mhla
