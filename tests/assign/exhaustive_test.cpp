#include "assign/search.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "oracle/oracle.h"

namespace mhla::assign {
namespace {

using ir::av;
using testing::make_ws;

/// Minimal program: one array, one loop, few candidates — exhaustively
/// searchable.
ir::Program micro_program() {
  ir::ProgramBuilder pb("micro");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("r", 0, 8);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  pb.end_loop();
  return pb.finish();
}

TEST(Exhaustive, FindsAtLeastAsGoodAsGreedy) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();

  SearchResult oracle = exhaustive_assign(ctx);
  SearchResult greedy = greedy_assign(ctx);
  EXPECT_LE(oracle.scalar, greedy.scalar + 1e-9);
  EXPECT_GT(oracle.states_explored, 0);
  EXPECT_EQ(oracle.status, SearchStatus::Optimal);
}

TEST(Exhaustive, BestIsFeasibleAndValid) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult oracle = exhaustive_assign(ctx);
  EXPECT_TRUE(fits(ctx, oracle.assignment));
  EXPECT_TRUE(layering_valid(ctx, oracle.assignment));
}

TEST(Exhaustive, BeatsBaselineOnReuseProgram) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult oracle = exhaustive_assign(ctx);
  Objective obj = make_objective(ctx, 1.0, 1.0);
  EXPECT_LT(oracle.scalar, obj.scalar(estimate_cost(ctx, out_of_box(ctx))));
}

TEST(Exhaustive, ThrowsOnLargeInstance) {
  // wavelet: 54 candidates x 2 on-chip layers = 108 placements, over the
  // engine guard (64) and far over the oracle's guard (24).
  auto ws = make_ws(mhla::apps::build_wavelet());
  auto ctx = ws->context();
  EXPECT_THROW(exhaustive_assign(ctx), std::invalid_argument);
  EXPECT_THROW(exhaustive_parallel_assign(ctx), std::invalid_argument);
  EXPECT_THROW(oracle::enumerate(ctx), std::invalid_argument);
}

TEST(Exhaustive, ReferenceGuardStillRejectsMediumInstance) {
  // motion_estimation (46 placements) is too big for the un-pruned
  // oracle enumeration but within the branch-and-bound guard.
  auto ws = make_ws(mhla::apps::build_motion_estimation());
  auto ctx = ws->context();
  EXPECT_THROW(oracle::enumerate(ctx), std::invalid_argument);
}

TEST(Exhaustive, BranchAndBoundAcceptsMediumInstance) {
  // The raised guard admits motion_estimation; a small state budget keeps
  // the test fast while proving the search runs and returns a valid result.
  auto ws = make_ws(mhla::apps::build_motion_estimation());
  auto ctx = ws->context();
  SearchOptions options;
  options.max_states = 20000;
  SearchResult result = exhaustive_assign(ctx, options);
  EXPECT_GT(result.states_explored, 0);
  EXPECT_TRUE(fits(ctx, result.assignment));
  EXPECT_TRUE(layering_valid(ctx, result.assignment));
  SearchResult greedy = greedy_assign(ctx);
  if (result.status == SearchStatus::Optimal) {
    EXPECT_LE(result.scalar, greedy.scalar + 1e-9);
  }
}

TEST(Exhaustive, EngineMatchesReferenceEnumeration) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult pruned = exhaustive_assign(ctx);
  SearchResult reference = oracle::enumerate(ctx);
  EXPECT_EQ(pruned.assignment, reference.assignment);
  EXPECT_EQ(pruned.scalar, reference.scalar);  // bit-identical
  EXPECT_LE(pruned.states_explored, reference.states_explored);
}

TEST(Exhaustive, StateBudgetIsHonored) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchOptions options;
  options.max_states = 2;
  // With the greedy incumbent seed the whole search can legitimately finish
  // inside two states; unseeded it cannot, which is what this test needs.
  options.bnb_seed_incumbent = false;
  SearchResult result = exhaustive_assign(ctx, options);
  EXPECT_EQ(result.status, SearchStatus::BudgetExhausted);
  EXPECT_LE(result.states_explored, 3);
}

}  // namespace
}  // namespace mhla::assign
