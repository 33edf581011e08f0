// Differential-testing harness for the search-strategy registry: every
// production strategy must agree with its from-scratch oracle
// (tests/oracle/) over a randomized corpus, and every heuristic must be
// dominated by the exact optimum wherever the optimum is computable.
//
//   greedy   vs oracle::greedy    — bit-identical moves/result (engine contract)
//   bnb      vs oracle::enumerate — identical optimum (pruning never changes it)
//   bnb-par  vs bnb               — identical optimum for any thread count,
//                                   under both the work-stealing scheduler and
//                                   the static-split baseline
//   greedy / anneal               — scalar dominated by the exact optimum
//
// Corpus size: MHLA_DIFF_SEEDS (default 50).  CI runs the full corpus in
// Release and a reduced one under ASan (the generator is seeded, so seed k
// names the same program in both).  Comparisons are skipped when an
// instance exceeds a path's placement limit or exhausts its node cap
// (budget-bound runs are legitimately path-dependent); the harness asserts
// minimum comparison counts so the suite cannot silently go vacuous.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "assign/search.h"
#include "explore/explorer.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracle/model.h"
#include "oracle/oracle.h"

namespace mhla {
namespace {

int corpus_seeds() {
  if (const char* env = std::getenv("MHLA_DIFF_SEEDS")) {
    int seeds = std::atoi(env);
    if (seeds > 0) return seeds;
  }
  return 50;
}

/// Move-for-move bit identity of two greedy walks.
void expect_same_moves(const assign::SearchResult& a, const assign::SearchResult& b) {
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    SCOPED_TRACE("move " + std::to_string(i));
    EXPECT_EQ(a.moves[i].kind, b.moves[i].kind);
    EXPECT_EQ(a.moves[i].cc_id, b.moves[i].cc_id);
    EXPECT_EQ(a.moves[i].array, b.moves[i].array);
    EXPECT_EQ(a.moves[i].layer, b.moves[i].layer);
    EXPECT_EQ(a.moves[i].gain, b.moves[i].gain);
    EXPECT_EQ(a.moves[i].gain_per_byte, b.moves[i].gain_per_byte);
  }
}

TEST(Differential, RegistryStrategyPairsAgreeOverRandomCorpus) {
  const int seeds = corpus_seeds();
  int greedy_compared = 0;
  int exact_compared = 0;
  int parallel_compared = 0;
  int dominance_checked = 0;

  for (std::uint32_t seed = 1; seed <= static_cast<std::uint32_t>(seeds); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    auto ctx = ws->context();
    std::size_t placements = oracle::candidate_placements(ctx);

    // Heuristic pair: engine-backed greedy must replay the from-scratch
    // oracle move for move on every instance.
    assign::SearchOptions options;
    assign::SearchResult greedy = assign::searcher("greedy").search(ctx, options);
    assign::SearchResult greedy_ref = oracle::greedy(ctx, options);
    EXPECT_EQ(greedy.assignment, greedy_ref.assignment);
    EXPECT_EQ(greedy.scalar, greedy_ref.scalar);
    EXPECT_EQ(greedy.evaluations, greedy_ref.evaluations);
    expect_same_moves(greedy, greedy_ref);
    EXPECT_TRUE(oracle::fits(ctx, greedy.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
    ++greedy_compared;

    // Exact pair: branch-and-bound against the un-pruned oracle enumeration,
    // where the oracle's guard admits the instance and neither search runs
    // out of budget (120k leaves for the oracle, 120k nodes for bnb; the
    // largest bnb search among the first 50 seeds takes under 2k nodes).
    bool have_optimum = false;
    assign::SearchResult optimum;
    if (placements <= oracle::kReferencePlacementGuard) {
      assign::SearchOptions exact = options;
      exact.max_states = 120000;
      assign::SearchResult reference = oracle::enumerate(ctx, exact);
      assign::SearchResult bnb = assign::searcher("bnb").search(ctx, exact);
      if (reference.status == assign::SearchStatus::Optimal && bnb.status == assign::SearchStatus::Optimal) {
        EXPECT_EQ(bnb.assignment, reference.assignment);
        EXPECT_EQ(bnb.scalar, reference.scalar);
        EXPECT_LE(bnb.states_explored, reference.states_explored);
        have_optimum = true;
        optimum = std::move(bnb);
        ++exact_compared;
      }
    }

    // Parallel pair: bnb-par must reproduce serial bnb bit for bit at
    // several thread counts (the shared incumbent only prunes).  The cap
    // clears the largest full search among the first 50 seeds (546,005
    // nodes), so every one of them is compared.
    if (placements <= oracle::kExactCorpusPlacements) {
      assign::SearchOptions serial_options = options;
      serial_options.max_states = 1'000'000;
      assign::SearchResult serial = assign::searcher("bnb").search(ctx, serial_options);
      if (serial.status == assign::SearchStatus::Optimal) {
        if (!have_optimum) {
          have_optimum = true;
          optimum = serial;
        }
        for (unsigned threads : {2u, 3u}) {
          assign::SearchOptions par_options = serial_options;
          par_options.bnb_threads = threads;
          assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, par_options);
          // max_states bounds each worker separately and pruning depends on
          // incumbent timing, so a worker can run out of budget even when
          // the serial search did not; bit-identity is only guaranteed
          // budget-free.
          if (parallel.status != assign::SearchStatus::Optimal) continue;
          EXPECT_EQ(parallel.assignment, serial.assignment) << "threads " << threads;
          EXPECT_EQ(parallel.scalar, serial.scalar) << "threads " << threads;
        }
        ++parallel_compared;
      }
    }

    // Dominance: no heuristic may beat the exact optimum (the tiny margin
    // absorbs the heuristics' independently accumulated float sums).
    if (have_optimum) {
      EXPECT_TRUE(oracle::fits(ctx, optimum.assignment));
      EXPECT_TRUE(assign::layering_valid(ctx, optimum.assignment));
      EXPECT_GE(greedy.scalar, optimum.scalar * (1.0 - 1e-9));
      assign::SearchResult anneal = assign::searcher("anneal").search(ctx, options);
      EXPECT_TRUE(oracle::fits(ctx, anneal.assignment));
      EXPECT_GE(anneal.scalar, optimum.scalar * (1.0 - 1e-9));
      ++dominance_checked;
    }
  }

  // The corpus must actually exercise every pair — if the generator or the
  // guards drift, fail loudly instead of passing on zero comparisons.
  EXPECT_EQ(greedy_compared, seeds);
  EXPECT_GE(exact_compared, std::max(1, seeds / 5));
  EXPECT_GE(parallel_compared, std::max(1, seeds / 2));
  EXPECT_GE(dominance_checked, std::max(1, seeds / 2));
}

/// The two registry applications the determinism stress runs on: both are
/// small exact instances (`oracle::kExactCorpusPlacements`) on the default
/// platform.
std::vector<std::string> stress_apps() { return {"conv_filter", "cavity_detection"}; }

TEST(Differential, BnbParIsBitIdenticalAcrossThreadCounts) {
  // The work-stealing search must reproduce the serial optimum bit for bit
  // at every thread count.  The subtree interleaving depends on steal
  // timing, so repeating each count covers several steal schedules.
  for (const std::string& app : stress_apps()) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    assign::SearchOptions options;
    assign::SearchResult serial = assign::searcher("bnb").search(ctx, options);
    ASSERT_EQ(serial.status, assign::SearchStatus::Optimal);
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        assign::SearchOptions par_options = options;
        par_options.bnb_threads = threads;
        assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, par_options);
        EXPECT_EQ(parallel.assignment, serial.assignment);
        EXPECT_EQ(parallel.scalar, serial.scalar);
        EXPECT_EQ(parallel.status, assign::SearchStatus::Optimal);
      }
    }
  }
}

TEST(Differential, GreedyMatchesOracleMoveForMove) {
  // The engine walk — screened rounds that fold only the moves that could
  // win, tracker feasibility — must make every decision of the
  // from-scratch oracle on all nine registry applications: every score,
  // verdict, tie-break and accepted move, not merely the final assignment.
  // The platform slice puts the screen against tight capacities (256 B L1,
  // no L2) as well as roomy ones, under every target; it holds the default
  // platform (4 KiB L1, 128 KiB L2).
  int compared = 0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    const std::string& app = info.name;
    for (ir::i64 l1 : {256, 4096, 65536}) {
      for (ir::i64 l2 : {0, 128 * 1024, 256 * 1024}) {
        mem::PlatformConfig platform;
        platform.l1_bytes = l1;
        platform.l2_bytes = l2;
        auto ws = core::make_workspace(apps::build_app(app), platform, {});
        auto ctx = ws->context();
        for (assign::Target target :
             {assign::Target::Balanced, assign::Target::Energy, assign::Target::Time}) {
          SCOPED_TRACE(app + " L1 " + std::to_string(l1) + " L2 " + std::to_string(l2) + " " +
                       assign::to_string(target));
          assign::SearchOptions options;
          options.set_target(target);
          assign::SearchResult fast = assign::searcher("greedy").search(ctx, options);
          assign::SearchResult slow = oracle::greedy(ctx, options);
          EXPECT_EQ(fast.assignment, slow.assignment);
          EXPECT_EQ(fast.scalar, slow.scalar);
          EXPECT_EQ(fast.evaluations, slow.evaluations);
          expect_same_moves(fast, slow);
          compared += fast.moves.empty() ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GE(compared, 150);  // most of the 243 cells take at least one move
}

TEST(Differential, ExplorerWithBnbParIsBitIdenticalAcrossThreadCounts) {
  // The exploration engine can put the parallel searcher on its strategy
  // axis; the joint result — every sample and the frontier — must not
  // depend on the explorer's own worker count or on bnb-par's.
  for (const std::string& app : stress_apps()) {
    SCOPED_TRACE(app);
    xplore::ExplorerConfig config;
    config.l1_axis = {256, 1024, 4096};
    config.l2_axis = {0, 8192};
    config.strategies = {"greedy", "bnb-par"};
    config.pipeline.search.bnb_threads = 2;

    config.pipeline.num_threads = 1;
    xplore::ExploreResult serial = xplore::Explorer(config).run(apps::build_app(app));
    ASSERT_FALSE(serial.samples.empty());

    for (unsigned threads : {2u, 4u, 8u}) {
      config.pipeline.num_threads = threads;
      xplore::ExploreResult parallel = xplore::Explorer(config).run(apps::build_app(app));
      ASSERT_EQ(parallel.samples.size(), serial.samples.size()) << "threads " << threads;
      for (std::size_t i = 0; i < serial.samples.size(); ++i) {
        EXPECT_EQ(parallel.samples[i].cell, serial.samples[i].cell);
        EXPECT_EQ(parallel.samples[i].point.cycles, serial.samples[i].point.cycles);
        EXPECT_EQ(parallel.samples[i].point.energy_nj, serial.samples[i].point.energy_nj);
      }
      ASSERT_EQ(parallel.frontier.size(), serial.frontier.size()) << "threads " << threads;
      for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
        EXPECT_EQ(parallel.frontier[i].cycles, serial.frontier[i].cycles);
        EXPECT_EQ(parallel.frontier[i].energy_nj, serial.frontier[i].energy_nj);
      }
    }
  }
}

}  // namespace
}  // namespace mhla
