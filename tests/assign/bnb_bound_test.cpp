// The branch-and-bound lower bound solves each array's reuse tree exactly
// (capacity relaxed) and charges a selected copy the transfer from its
// actual parent store.  These tests pin the precondition that makes the
// parent charge exact, the guard-64 instance the old per-site bound never
// pruned, and arrays with pinned traffic but no access site.  The guard-64
// instance also anchors the check that "bnb" is exactly the one-worker
// "bnb-par".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "core/run_budget.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracle/oracle.h"

namespace mhla {
namespace {

using ir::av;

/// Every candidate's ancestors (the shallower members of its reuse chain)
/// have smaller ids and share its array and nest, and every member site
/// names the same ancestors.  A search deciding candidates in id order
/// therefore knows a candidate's parent store exactly when it decides it.
void expect_ancestors_precede(const assign::AssignContext& ctx) {
  assign::CostEngine engine(ctx);
  const auto& candidates = ctx.reuse.candidates();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const analysis::CopyCandidate& cc = candidates[c];
    SCOPED_TRACE("candidate " + std::to_string(c));
    ASSERT_EQ(cc.id, static_cast<int>(c));
    core::IntSpan ancestors = engine.ancestors(cc.id);
    int previous_level = cc.level;
    for (int anc : ancestors) {
      EXPECT_LT(anc, cc.id);
      const analysis::CopyCandidate& a = candidates[static_cast<std::size_t>(anc)];
      EXPECT_EQ(a.array_id, cc.array_id);
      EXPECT_EQ(a.nest, cc.nest);
      EXPECT_LT(a.level, previous_level);  // deepest first
      previous_level = a.level;
    }
    for (int site : engine.candidate_sites(cc.id)) {
      core::IntSpan row = engine.covering(static_cast<std::size_t>(site));
      const int* self = std::find(row.begin(), row.end(), cc.id);
      ASSERT_NE(self, row.end());
      EXPECT_TRUE(std::equal(self + 1, row.end(), ancestors.begin(), ancestors.end()))
          << "site " << site;
    }
  }
}

TEST(BnbBound, AncestorsHaveSmallerIdsOnTheAppsAndTheRandomCorpus) {
  for (const apps::AppInfo& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    auto ws = testing::make_ws(info.build(), mem::PlatformConfig{});
    expect_ancestors_precede(ws->context());
  }
  for (std::uint32_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    expect_ancestors_precede(ws->context());
  }
}

TEST(BnbBound, Guard64PrunesToAHandfulOfLeaves) {
  // The full enumeration has 10,024,964 leaves.  The parent-exact charge
  // leaves single digits (charging the cheapest source instead evaluates
  // about 560k).  The serial run's probe count is one per node plus the
  // greedy seed's: 756, of which 556 are the seed's.  The allowance is
  // twice that count: room for a small change in greedy's walk or the node
  // order, while a bound that prunes like the old per-site one (about 163k
  // probes) breaks it.
  auto ws = testing::make_ws(testing::guard64_program(), testing::guard64_platform());
  auto ctx = ws->context();
  ASSERT_LE(oracle::candidate_placements(ctx), oracle::kExactCorpusPlacements);
  constexpr double kOptimum = 0x1.1c0bf8063e98cp-2;
  constexpr long kMaxLeaves = 1000;
  constexpr long kMaxSerialProbes = 1'500;

  core::RunBudget token{core::BudgetSpec{}};
  assign::SearchOptions counted;
  counted.shared_budget = &token;
  assign::SearchResult serial = assign::searcher("bnb").search(ctx, counted);
  EXPECT_EQ(serial.status, assign::SearchStatus::Optimal);
  EXPECT_EQ(serial.scalar, kOptimum);
  EXPECT_LE(serial.states_explored, kMaxLeaves);
  EXPECT_LE(token.probes(), kMaxSerialProbes);
  EXPECT_GT(serial.lower_bound, 0.0);
  EXPECT_LE(serial.lower_bound, serial.scalar);

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    assign::SearchOptions options;
    options.bnb_threads = threads;
    assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, options);
    EXPECT_EQ(parallel.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(parallel.scalar, kOptimum);
    EXPECT_EQ(parallel.assignment, serial.assignment);
    EXPECT_LE(parallel.states_explored, kMaxLeaves);
  }
}

/// Run `strategy` on `ctx` against a shared budget token; returns the
/// result and the probes the token counted.
std::pair<assign::SearchResult, long> run_counted(const assign::AssignContext& ctx,
                                                  const std::string& strategy,
                                                  const assign::SearchOptions& options,
                                                  const core::BudgetSpec& spec) {
  core::RunBudget token(spec);
  assign::SearchOptions counted = options;
  counted.shared_budget = &token;
  assign::SearchResult result = assign::searcher(strategy).search(ctx, counted);
  return {std::move(result), token.probes()};
}

void expect_same_search(const assign::SearchResult& a, const assign::SearchResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.scalar, b.scalar);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.bound_prunes, b.bound_prunes);
  EXPECT_EQ(a.capacity_prunes, b.capacity_prunes);
}

TEST(Exhaustive, BnbIsTheOneWorkerBnbPar) {
  // "bnb" is the branch-and-bound driver on one worker, so "bnb-par" with
  // one thread must match it in every field, counters included.  A lone
  // worker charges the budget one unit at a time, so a probe allowance
  // stops both at the same probe: the allowance plus the one it refused.
  std::vector<std::pair<std::string, std::unique_ptr<core::Workspace>>> instances;
  instances.emplace_back("guard64",
                         testing::make_ws(testing::guard64_program(), testing::guard64_platform()));
  std::size_t apps_under_guard = 0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = testing::make_ws(info.build(), mem::PlatformConfig{});
    if (oracle::candidate_placements(ws->context()) > oracle::kExactCorpusPlacements) continue;
    ++apps_under_guard;
    instances.emplace_back(info.name, std::move(ws));
  }
  EXPECT_EQ(apps_under_guard, 4u) << "corpus drifted";
  std::size_t random_under_guard = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    auto ws = testing::make_ws(gen::random_program(seed));
    if (oracle::candidate_placements(ws->context()) > oracle::kExactCorpusPlacements) continue;
    ++random_under_guard;
    instances.emplace_back("seed " + std::to_string(seed), std::move(ws));
  }
  EXPECT_GE(random_under_guard, 10u) << "corpus drifted";

  assign::SearchOptions one_worker;
  one_worker.bnb_threads = 1;
  std::size_t budget_bound = 0;
  for (const auto& [name, ws] : instances) {
    SCOPED_TRACE(name);
    auto ctx = ws->context();
    auto [serial, full] = run_counted(ctx, "bnb", {}, {});
    auto [parallel, full_par] = run_counted(ctx, "bnb-par", one_worker, {});
    ASSERT_EQ(serial.status, assign::SearchStatus::Optimal);
    expect_same_search(serial, parallel);
    EXPECT_EQ(full, full_par);
    if (full < 4) continue;

    core::BudgetSpec spec;
    spec.max_probes = full / 2;
    auto [cut, cut_probes] = run_counted(ctx, "bnb", {}, spec);
    auto [cut_par, cut_par_probes] = run_counted(ctx, "bnb-par", one_worker, spec);
    EXPECT_EQ(cut.status, assign::SearchStatus::BudgetExhausted);
    expect_same_search(cut, cut_par);
    EXPECT_EQ(cut_probes, spec.max_probes + 1);
    EXPECT_EQ(cut_par_probes, spec.max_probes + 1);
    ++budget_bound;
  }
  EXPECT_GE(budget_bound, 5u);
}

/// A reuse program that also declares arrays no statement touches: an
/// input and an output, each with pinned traffic on any on-chip home but no
/// access site, and a temporary with neither.
ir::Program program_with_unaccessed_arrays() {
  ir::ProgramBuilder pb("unaccessed");
  pb.array("a", {16}, 4).input();
  pb.array("spare_in", {4}, 4).input();
  pb.array("spare_out", {4}, 4).output();
  pb.array("scratch", {4}, 4);
  pb.array("o", {8}, 4).output();
  pb.begin_loop("r", 0, 8);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  pb.stmt("w", 1).write("o", {av("r")});
  pb.end_loop();
  return pb.finish();
}

TEST(BnbBound, ArrayWithoutAccessSitesMatchesTheOracle) {
  for (bool migration : {true, false}) {
    SCOPED_TRACE(migration ? "migration" : "no migration");
    mem::PlatformConfig platform;
    platform.l1_bytes = 128;
    platform.l2_bytes = 1024;
    auto ws = testing::make_ws(program_with_unaccessed_arrays(), platform);
    auto ctx = ws->context();
    ASSERT_LE(oracle::candidate_placements(ctx), oracle::kReferencePlacementGuard);

    assign::SearchOptions options;
    options.allow_array_migration = migration;
    assign::SearchResult reference = oracle::enumerate(ctx, options);
    ASSERT_EQ(reference.status, assign::SearchStatus::Optimal);
    assign::SearchResult bnb = assign::searcher("bnb").search(ctx, options);
    EXPECT_EQ(bnb.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(bnb.assignment, reference.assignment);
    EXPECT_EQ(bnb.scalar, reference.scalar);
    EXPECT_TRUE(std::isfinite(bnb.lower_bound));
    EXPECT_LE(bnb.lower_bound, bnb.scalar);

    options.bnb_threads = 2;
    assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, options);
    EXPECT_EQ(parallel.assignment, reference.assignment);
    EXPECT_EQ(parallel.scalar, reference.scalar);
  }
}

}  // namespace
}  // namespace mhla
