#include "assign/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "helpers.h"
#include "oracle/model.h"
#include "oracle/oracle.h"

namespace mhla::assign {
namespace {

using ir::av;
using oracle::fits;
using testing::make_ws;

/// Small single-array program every registered strategy (and the oracle
/// enumeration with its 24-placement guard) accepts.
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

mem::PlatformConfig micro_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  return platform;
}

TEST(Search, TargetWeightsMappingIsCanonical) {
  EXPECT_EQ(target_weights(Target::Energy), std::make_pair(1.0, 0.0));
  EXPECT_EQ(target_weights(Target::Time), std::make_pair(0.0, 1.0));
  EXPECT_EQ(target_weights(Target::Balanced), std::make_pair(1.0, 1.0));

  SearchOptions options;
  options.set_target(Target::Energy);
  EXPECT_EQ(options.energy_weight, 1.0);
  EXPECT_EQ(options.time_weight, 0.0);
}

TEST(Search, TargetNamesRoundTrip) {
  for (Target t : {Target::Energy, Target::Time, Target::Balanced}) {
    EXPECT_EQ(parse_target(to_string(t)), t);
  }
  EXPECT_THROW(parse_target("speed"), std::invalid_argument);
}

TEST(Search, AllRegisteredStrategiesRunOnAMicroInstance) {
  auto ws = make_ws(micro_program(), micro_platform());
  auto ctx = ws->context();
  std::vector<std::string> names = searcher_names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    const Searcher& strategy = searcher(name);
    EXPECT_EQ(strategy.name, name);
    EXPECT_FALSE(strategy.description.empty());
    SearchResult result = strategy.search(ctx, {});
    EXPECT_TRUE(fits(ctx, result.assignment)) << name;
    EXPECT_TRUE(layering_valid(ctx, result.assignment)) << name;
    EXPECT_GT(result.scalar, 0.0) << name;
  }
}

TEST(Search, ExhaustiveVariantsAgreeOnTheOptimum) {
  auto ws = make_ws(micro_program(), micro_platform());
  auto ctx = ws->context();
  SearchResult reference = oracle::enumerate(ctx);
  SearchResult bnb = searcher("bnb").search(ctx, {});
  SearchResult bnb_par = searcher("bnb-par").search(ctx, {});
  EXPECT_EQ(bnb.scalar, reference.scalar);
  EXPECT_EQ(bnb.assignment, reference.assignment);
  EXPECT_EQ(bnb_par.scalar, bnb.scalar);
  EXPECT_EQ(bnb_par.assignment, bnb.assignment);
  EXPECT_GT(reference.states_explored, 0);
  // The bound must have cut states, never added them.
  EXPECT_LE(bnb.states_explored, reference.states_explored);
}

TEST(Search, GreedyMatchesTheOracleForEveryTarget) {
  // The registry's "greedy" must match the from-scratch oracle bit for bit
  // (the engine contract) under every canonical Target -> weights mapping.
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  for (Target target : {Target::Energy, Target::Time, Target::Balanced}) {
    SearchOptions options;
    options.set_target(target);
    SearchResult ref = oracle::greedy(ctx, options);
    SearchResult fast = searcher("greedy").search(ctx, options);
    EXPECT_EQ(ref.assignment, fast.assignment);
    EXPECT_EQ(ref.scalar, fast.scalar);
    EXPECT_EQ(ref.evaluations, fast.evaluations);
    EXPECT_EQ(ref.moves.size(), fast.moves.size());
  }
}

TEST(Search, UnknownNameThrowsListingTheRegistry) {
  // The table is exactly the four production strategies; the removed
  // reference strategies are unknown names now.
  std::vector<std::string> names = searcher_names();
  EXPECT_EQ(names, (std::vector<std::string>{"anneal", "bnb", "bnb-par", "greedy"}));
  for (const std::string unknown : {"tabu", "greedy-ref"}) {
    try {
      searcher(unknown);
      FAIL() << "expected std::out_of_range for " << unknown;
    } catch (const std::out_of_range& e) {
      std::string message = e.what();
      EXPECT_NE(message.find("'" + unknown + "'"), std::string::npos) << message;
      std::string menu = message.substr(message.find("registered strategies:"));
      for (const std::string& name : names) {
        EXPECT_NE(menu.find(" " + name), std::string::npos) << name;
      }
      EXPECT_EQ(menu.find("-ref"), std::string::npos) << menu;
    }
  }
}

}  // namespace
}  // namespace mhla::assign
