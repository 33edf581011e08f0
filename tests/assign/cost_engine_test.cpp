#include "assign/cost_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "apps/registry.h"
#include "assign/search.h"
#include "helpers.h"
#include "gen/random_program.h"
#include "oracle/model.h"
#include "oracle/oracle.h"

namespace mhla::assign {
namespace {

using oracle::estimate_cost;
using oracle::make_objective;
using testing::make_ws;

/// Exact (bitwise) agreement between the engine's evaluation of its live
/// assignment and a from-scratch estimate_cost of the same assignment.
void expect_engine_matches_scratch(const AssignContext& ctx, const CostEngine& engine) {
  CostEstimate scratch = estimate_cost(ctx, engine.assignment());
  CostEstimate incremental = engine.cost();
  EXPECT_EQ(incremental.energy_nj, scratch.energy_nj);
  EXPECT_EQ(incremental.compute_cycles, scratch.compute_cycles);
  EXPECT_EQ(incremental.access_cycles, scratch.access_cycles);
  EXPECT_EQ(incremental.transfer_cycles, scratch.transfer_cycles);
  EXPECT_EQ(incremental.layer_reads, scratch.layer_reads);
  EXPECT_EQ(incremental.layer_writes, scratch.layer_writes);

  Objective objective = make_objective(ctx, 1.0, 1.0);
  EXPECT_EQ(engine.scalar(objective), objective.scalar(scratch));
  // The searches' objective: normalized by the engine's out-of-box totals,
  // whatever state the engine has moved to since.
  Objective from_engine = engine.objective(1.0, 1.0);
  EXPECT_EQ(from_engine.baseline_energy_nj, objective.baseline_energy_nj);
  EXPECT_EQ(from_engine.baseline_cycles, objective.baseline_cycles);

  // The maintained resolution must equal a fresh resolve.
  Resolution res = resolve(ctx, engine.assignment());
  for (std::size_t s = 0; s < ctx.sites.size(); ++s) {
    EXPECT_EQ(engine.serving_layer(s), res.site_layer[s]) << "site " << s;
  }
  EXPECT_EQ(engine.layering_valid(), layering_valid(ctx, engine.assignment()));
}

TEST(CostEngine, MatchesScratchOnFixtures) {
  for (auto builder : {testing::tiny_stream_program, testing::producer_consumer_program,
                       testing::blocked_reuse_program}) {
    auto ws = make_ws(builder());
    auto ctx = ws->context();
    CostEngine engine(ctx);
    expect_engine_matches_scratch(ctx, engine);

    // Select every candidate on L1 one by one, checking after each delta.
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      engine.select_copy(cc.id, 0);
      expect_engine_matches_scratch(ctx, engine);
    }
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      engine.remove_copy(cc.id);
      expect_engine_matches_scratch(ctx, engine);
    }
  }
}

TEST(CostEngine, MigrateMatchesDropInvalidCopies) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  CostEngine engine(ctx);
  // Select a copy of "data" on L2 (layer 1), then migrate "data" onto L2:
  // the copy becomes layering-invalid and must be dropped, exactly like the
  // from-scratch compound move.
  int cc_id = -1;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 0) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  engine.select_copy(cc_id, 1);

  Assignment expected = engine.assignment();
  expected.array_layer["data"] = 1;
  drop_invalid_copies(ctx, expected);

  int dropped = engine.migrate_array("data", 1);
  EXPECT_GE(dropped, 1);
  EXPECT_EQ(engine.assignment(), expected);
  expect_engine_matches_scratch(ctx, engine);
}

/// Property test: over random programs, a random apply/undo sequence keeps
/// the engine bit-identical to the from-scratch evaluation at every step.
TEST(CostEngine, PropertyRandomApplyUndoSequences) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    ir::Program program = gen::random_program(seed);
    mem::PlatformConfig platform = testing::small_platform();
    if (seed % 3 == 0) platform.l2_bytes = 0;  // single on-chip layer
    auto ws = make_ws(std::move(program), platform);
    auto ctx = ws->context();
    CostEngine engine(ctx);
    expect_engine_matches_scratch(ctx, engine);

    std::mt19937 rng(seed * 977);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int num_layers = ctx.hierarchy.num_layers();
    const auto& candidates = ctx.reuse.candidates();
    const auto& arrays = ctx.program.arrays();

    // Checkpoint/snapshot pairs for undo verification.
    std::vector<std::pair<CostEngine::Checkpoint, Assignment>> marks;

    for (int step = 0; step < 60; ++step) {
      int action = pick(0, 4);
      if (action == 0 && !candidates.empty()) {
        int cc = pick(0, static_cast<int>(candidates.size()) - 1);
        if (!engine.has_copy(cc)) {
          engine.select_copy(cc, pick(0, num_layers - 1));
        }
      } else if (action == 1 && !engine.assignment().copies.empty()) {
        const auto& copies = engine.assignment().copies;
        engine.remove_copy(copies[static_cast<std::size_t>(
                                      pick(0, static_cast<int>(copies.size()) - 1))]
                               .cc_id);
      } else if (action == 2 && !arrays.empty()) {
        const auto& array = arrays[static_cast<std::size_t>(
            pick(0, static_cast<int>(arrays.size()) - 1))];
        engine.migrate_array(array.name, pick(0, num_layers - 1));
      } else if (action == 3) {
        marks.emplace_back(engine.checkpoint(), engine.assignment());
      } else if (action == 4 && !marks.empty()) {
        auto [mark, snapshot] = marks.back();
        marks.pop_back();
        engine.undo_to(mark);
        EXPECT_EQ(engine.assignment(), snapshot) << "seed " << seed << " step " << step;
      }
      expect_engine_matches_scratch(ctx, engine);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
  }
}

/// Greedy with the engine must make the exact decisions of the from-scratch
/// greedy oracle: same moves, same evaluations, same result bits.
TEST(CostEngine, GreedyEquivalenceOnRandomPrograms) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    auto ws = make_ws(gen::random_program(seed));
    auto ctx = ws->context();
    SearchResult fast = greedy_assign(ctx);
    SearchResult slow = oracle::greedy(ctx);
    EXPECT_EQ(fast.assignment, slow.assignment) << "seed " << seed;
    EXPECT_EQ(fast.scalar, slow.scalar) << "seed " << seed;
    EXPECT_EQ(fast.evaluations, slow.evaluations) << "seed " << seed;
    ASSERT_EQ(fast.moves.size(), slow.moves.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fast.moves.size(); ++i) {
      EXPECT_EQ(static_cast<int>(fast.moves[i].kind), static_cast<int>(slow.moves[i].kind));
      EXPECT_EQ(fast.moves[i].cc_id, slow.moves[i].cc_id);
      EXPECT_EQ(fast.moves[i].array, slow.moves[i].array);
      EXPECT_EQ(fast.moves[i].layer, slow.moves[i].layer);
      EXPECT_EQ(fast.moves[i].gain, slow.moves[i].gain);
    }
  }
}

/// Every move delta of the live state whose move touches an array other
/// than `skip`, in one fixed order: a select on each on-chip layer for an
/// unselected candidate, a remove for a placed one, then a migrate to every
/// layer but the home.
std::vector<CostEngine::MoveDelta> deltas_off(const AssignContext& ctx, const CostEngine& engine,
                                              std::size_t skip) {
  std::vector<CostEngine::MoveDelta> deltas;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (static_cast<std::size_t>(cc.array_id) == skip) continue;
    if (engine.has_copy(cc.id)) {
      deltas.push_back(engine.remove_delta(cc.id));
      continue;
    }
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      deltas.push_back(engine.select_delta(cc.id, layer));
    }
  }
  for (std::size_t a = 0; a < engine.num_arrays(); ++a) {
    if (a == skip) continue;
    for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
      if (layer != engine.home_of(a)) deltas.push_back(engine.migrate_delta(a, layer));
    }
  }
  return deltas;
}

bool same_bits(const CostEngine::MoveDelta& x, const CostEngine::MoveDelta& y) {
  return x.ok == y.ok &&
         std::bit_cast<std::uint64_t>(x.energy_nj) == std::bit_cast<std::uint64_t>(y.energy_nj) &&
         std::bit_cast<std::uint64_t>(x.cycles) == std::bit_cast<std::uint64_t>(y.cycles);
}

/// A random walk of feasible moves from the out-of-box state.  Before and
/// after each move on array A, every select, migrate and remove delta of
/// every other array must be bit-identical: verdict, energy and cycles.
/// Greedy's delta cache (assign/greedy.cpp) rests on this contract.
long check_deltas_stay_local(const AssignContext& ctx, std::uint32_t seed) {
  using Kind = GreedyMove::Kind;
  struct Move {
    Kind kind;
    int cc_id;
    std::size_t array;
    int layer;
  };
  CostEngine engine(ctx);
  std::mt19937 rng(seed);
  long compared = 0;
  std::vector<Move> moves;
  for (int step = 0; step < 16; ++step) {
    // The moves greedy would gate in: the delta's local verdict and the
    // footprint's query.
    moves.clear();
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      std::size_t array = static_cast<std::size_t>(cc.array_id);
      if (engine.has_copy(cc.id)) {
        moves.push_back({Kind::RemoveCopy, cc.id, array, -1});
        continue;
      }
      for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
        if (engine.select_delta(cc.id, layer).ok &&
            engine.footprint().feasible_with_copy(cc.id, layer)) {
          moves.push_back({Kind::SelectCopy, cc.id, array, layer});
        }
      }
    }
    for (std::size_t a = 0; a < engine.num_arrays(); ++a) {
      for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
        if (layer != engine.home_of(a) && engine.migrate_delta(a, layer).ok &&
            engine.footprint().feasible_with_home(a, layer, engine.migrate_drops(a, layer))) {
          moves.push_back({Kind::MigrateArray, -1, a, layer});
        }
      }
    }
    if (moves.empty()) break;
    const Move move = moves[std::uniform_int_distribution<std::size_t>(0, moves.size() - 1)(rng)];
    SCOPED_TRACE("step " + std::to_string(step) + " kind " +
                 std::to_string(static_cast<int>(move.kind)) + " cc " +
                 std::to_string(move.cc_id) + " array " + std::to_string(move.array) +
                 " layer " + std::to_string(move.layer));
    std::vector<CostEngine::MoveDelta> before = deltas_off(ctx, engine, move.array);
    switch (move.kind) {
      case Kind::SelectCopy:
        engine.select_copy(move.cc_id, move.layer);
        break;
      case Kind::MigrateArray:
        engine.migrate_array(move.array, move.layer);
        break;
      case Kind::RemoveCopy:
        engine.remove_copy(move.cc_id);
        break;
    }
    EXPECT_TRUE(engine.fits() && engine.layering_valid());
    std::vector<CostEngine::MoveDelta> after = deltas_off(ctx, engine, move.array);
    EXPECT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < std::min(before.size(), after.size()); ++i) {
      EXPECT_TRUE(same_bits(before[i], after[i])) << "delta " << i;
    }
    compared += static_cast<long>(before.size());
    if (::testing::Test::HasFailure()) break;
  }
  return compared;
}

TEST(CostEngine, MoveDeltasDependOnlyOnTheirArray) {
  long compared = 0;
  for (const mem::PlatformConfig& platform : testing::platform_slice()) {
    for (const apps::AppInfo& app : apps::all_apps()) {
      SCOPED_TRACE(app.name + " L1 " + std::to_string(platform.l1_bytes) + " L2 " +
                   std::to_string(platform.l2_bytes));
      auto ws = core::make_workspace(app.build(), platform, {});
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        compared += check_deltas_stay_local(ws->context(), seed);
      }
    }
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("random program " + std::to_string(seed));
      auto ws = core::make_workspace(gen::random_program(seed), platform, {});
      compared += check_deltas_stay_local(ws->context(), seed);
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(compared, 10000);
  RecordProperty("deltas_compared", std::to_string(compared));
}

/// Branch-and-bound must return the same optimum as the un-pruned oracle
/// enumeration whenever the instance is small enough for both.
TEST(CostEngine, ExhaustiveEquivalenceOnRandomPrograms) {
  int checked = 0;
  for (std::uint32_t seed = 1; seed <= 20 && checked < 5; ++seed) {
    gen::RandomProgramConfig config;
    config.max_nests = 2;
    config.max_depth = 2;
    config.max_arrays = 2;
    auto ws = make_ws(gen::random_program(seed, config));
    auto ctx = ws->context();
    if (oracle::candidate_placements(ctx) > oracle::kReferencePlacementGuard) continue;
    SearchResult pruned = exhaustive_assign(ctx);
    SearchResult reference = oracle::enumerate(ctx);
    if (pruned.status != SearchStatus::Optimal || reference.status != SearchStatus::Optimal) {
      continue;
    }
    EXPECT_EQ(pruned.assignment, reference.assignment) << "seed " << seed;
    EXPECT_EQ(pruned.scalar, reference.scalar) << "seed " << seed;
    EXPECT_LE(pruned.states_explored, reference.states_explored) << "seed " << seed;
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no random instance was small enough to cross-check";
}

}  // namespace
}  // namespace mhla::assign
