#include "assign/search.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "assign/cost.h"
#include "core/pipeline.h"
#include "helpers.h"
#include "oracle/model.h"

namespace mhla::assign {
namespace {

using oracle::estimate_cost;
using oracle::fits;
using oracle::make_objective;

TEST(Anneal, BitIdenticalForAFixedSeed) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.anneal_seed = 42;
  SearchResult first = anneal_assign(ctx, options);
  SearchResult second = anneal_assign(ctx, options);
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_EQ(first.scalar, second.scalar);
  EXPECT_EQ(first.evaluations, second.evaluations);
}

TEST(Anneal, FeasibleAndNeverWorseThanOutOfBox) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Objective objective = make_objective(ctx, 1.0, 1.0);
  double baseline = objective.scalar(estimate_cost(ctx, out_of_box(ctx)));
  for (std::uint32_t seed : {1u, 7u, 1234u}) {
    SearchOptions options;
    options.anneal_seed = seed;
    SearchResult result = anneal_assign(ctx, options);
    EXPECT_TRUE(fits(ctx, result.assignment)) << "seed " << seed;
    EXPECT_TRUE(layering_valid(ctx, result.assignment)) << "seed " << seed;
    EXPECT_LE(result.scalar, baseline) << "seed " << seed;
    EXPECT_EQ(objective.scalar(estimate_cost(ctx, result.assignment)), result.scalar)
        << "seed " << seed;
  }
}

TEST(Anneal, FindsImprovementsOnAReuseWorkload) {
  // The blocked program has an obvious winning copy; a 2000-iteration walk
  // that never finds *any* improvement would be broken.
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Objective objective = make_objective(ctx, 1.0, 1.0);
  double baseline = objective.scalar(estimate_cost(ctx, out_of_box(ctx)));
  SearchResult result = anneal_assign(ctx, {});
  EXPECT_LT(result.scalar, baseline);
}

TEST(Anneal, HandlesAProgramWithNoArrays) {
  // A compute-only program is valid; the migrate branch must not draw from
  // an empty array list (regression: modulo-by-zero).
  ir::ProgramBuilder pb("no_arrays");
  pb.begin_loop("i", 0, 8);
  pb.stmt("spin", 3);
  pb.end_loop();
  auto ws = testing::make_ws(pb.finish());
  auto ctx = ws->context();
  SearchOptions options;
  options.anneal_iterations = 200;
  SearchResult result = anneal_assign(ctx, options);
  EXPECT_TRUE(result.assignment.copies.empty());
  EXPECT_GT(result.scalar, 0.0);
}

TEST(Anneal, RegisteredAndInvocableByName) {
  std::vector<std::string> names = searcher_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "anneal"), names.end());

  const Searcher& strategy = searcher("anneal");
  EXPECT_EQ(strategy.name, "anneal");

  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.anneal_iterations = 500;
  options.anneal_seed = 9;
  SearchResult via_registry = strategy.search(ctx, options);
  SearchResult reference = anneal_assign(ctx, options);
  EXPECT_EQ(via_registry.assignment, reference.assignment);
  EXPECT_EQ(via_registry.scalar, reference.scalar);
  EXPECT_EQ(via_registry.evaluations, reference.evaluations);
}

TEST(Anneal, RunsThroughThePipelineByStrategyName) {
  core::PipelineConfig config;
  config.strategy = "anneal";
  config.platform = testing::small_platform();
  config.search.anneal_iterations = 300;
  core::Pipeline pipeline(config);
  core::PipelineResult run = pipeline.run(testing::blocked_reuse_program());
  EXPECT_EQ(run.strategy, "anneal");
  EXPECT_GT(run.search.evaluations, 0);
  EXPECT_TRUE(run.points.mhla.feasible);
}

}  // namespace
}  // namespace mhla::assign
