// Fault-injection and graceful-degradation suite.
//
// Three layers of the robustness contract are pinned down here:
//
//  * core::FaultInjector forces deterministic failures at the three armed
//    sites — an I/O step inside ResultCache::save, a RunBudget probe, a
//    parallel_for body — and every consumer must degrade, not corrupt:
//    the cache never loses previously persisted entries, every search
//    strategy returns a consistent best-so-far state, the thread pool
//    joins its workers and stays reusable.
//
//  * Cancellation consistency (property over a randomized corpus): a run
//    budget that expires at an arbitrary probe leaves each strategy with
//    exactly the state a fresh rebuild of the returned assignment yields —
//    greedy's truncated move trace is a replayable prefix, the exact
//    strategies' incumbent re-evaluates bit for bit.
//
//  * Anytime exact search: the `max_states` node cap bounds every
//    branch-and-bound run, and a truncated one certifies an optimality
//    gap against its admissible root bound.
//
// The fault injector is process-global, so this suite never runs its
// tests concurrently (gtest runs them sequentially in one binary).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "assign/cost.h"
#include "assign/search.h"
#include "core/fault_injector.h"
#include "core/json.h"
#include "core/json_report.h"
#include "core/parallel_for.h"
#include "core/pipeline.h"
#include "core/run_budget.h"
#include "explore/explorer.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracle/oracle.h"

namespace mhla {
namespace {

using core::FaultInjector;

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Run a strategy under a fresh shared budget token and report how many
/// probes the complete run charges (the corpus tests draw truncation points
/// from this range).
long probes_of_full_run(const assign::AssignContext& ctx, const std::string& strategy,
                        const assign::SearchOptions& options, assign::SearchResult* out) {
  core::RunBudget token{core::BudgetSpec{}};
  assign::SearchOptions counted = options;
  counted.shared_budget = &token;
  assign::SearchResult result = assign::searcher(strategy).search(ctx, counted);
  if (out) *out = std::move(result);
  return token.probes();
}

// --- RunBudget unit behavior ------------------------------------------------

TEST(RunBudget, ProbeAllowanceExpiresStickily) {
  core::BudgetSpec spec;
  spec.max_probes = 3;
  core::RunBudget budget(spec);
  EXPECT_TRUE(budget.probe());
  EXPECT_TRUE(budget.probe());
  EXPECT_TRUE(budget.probe());
  EXPECT_FALSE(budget.probe());  // 4th probe is past the allowance
  EXPECT_TRUE(budget.expired());
  EXPECT_EQ(budget.reason(), core::StopReason::ProbeBudget);
  EXPECT_FALSE(budget.probe());  // expiry is one-way
}

TEST(RunBudget, CancelFlagExpiresTheBudget) {
  core::BudgetSpec spec;
  spec.cancel = std::make_shared<std::atomic<bool>>(false);
  core::RunBudget budget(spec);
  EXPECT_TRUE(budget.probe());
  spec.cancel->store(true);
  EXPECT_FALSE(budget.probe());
  EXPECT_EQ(budget.reason(), core::StopReason::Cancelled);
}

TEST(RunBudget, TinyDeadlineExpiresOnTheFirstProbe) {
  core::BudgetSpec spec;
  spec.deadline_seconds = 1e-9;
  core::RunBudget budget(spec);
  EXPECT_FALSE(budget.probe());
  EXPECT_EQ(budget.reason(), core::StopReason::Deadline);
}

TEST(RunBudget, UnboundedBudgetCountsButNeverExpires) {
  core::RunBudget budget;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.probe());
  EXPECT_EQ(budget.probes(), 1000);
  EXPECT_FALSE(budget.expired());
}

// --- Fault injector + parallel_for ------------------------------------------

TEST(FaultInjection, NthHitFiresExactlyOnce) {
  core::ScopedFault fault(FaultInjector::Site::BudgetProbe, 3);
  EXPECT_FALSE(FaultInjector::fire(FaultInjector::Site::BudgetProbe));
  EXPECT_FALSE(FaultInjector::fire(FaultInjector::Site::BudgetProbe));
  EXPECT_TRUE(FaultInjector::fire(FaultInjector::Site::BudgetProbe));
  EXPECT_FALSE(FaultInjector::fire(FaultInjector::Site::BudgetProbe));  // one-shot
  EXPECT_EQ(FaultInjector::hits(FaultInjector::Site::BudgetProbe), 4);
}

TEST(FaultInjection, InjectedProbeExpiresABudgetWithReasonInjected) {
  core::ScopedFault fault(FaultInjector::Site::BudgetProbe, 5);
  core::RunBudget budget;  // unbounded — only the injector can expire it
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(budget.probe());
  EXPECT_FALSE(budget.probe());
  EXPECT_EQ(budget.reason(), core::StopReason::Injected);
}

TEST(FaultInjection, ParallelForRethrowsInjectedBodyFaultAndStaysUsable) {
  // The Nth body invocation throws; parallel_for must join every worker and
  // rethrow on the calling thread, and the next call must work normally.
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    {
      core::ScopedFault fault(FaultInjector::Site::ParallelBody, 7);
      std::atomic<int> ran{0};
      EXPECT_THROW(core::parallel_for(64, threads, [&](std::size_t) { ++ran; }),
                   core::FaultInjectedError);
      EXPECT_LT(ran.load(), 64);  // the fault stopped the pool early
    }
    std::atomic<int> ran{0};
    core::parallel_for(64, threads, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(FaultInjection, ParallelForStopsClaimingOnceBudgetExpires) {
  core::BudgetSpec spec;
  spec.max_probes = 1;
  core::RunBudget budget(spec);
  budget.probe();
  budget.probe();  // expired now
  std::atomic<int> ran{0};
  core::parallel_for(100, 4, [&](std::size_t) { ++ran; }, &budget);
  EXPECT_EQ(ran.load(), 0);
}

// --- Injected budget expiry through every search strategy -------------------

TEST(FaultInjection, EveryStrategyDegradesOnInjectedExpiry) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  for (const std::string& strategy : assign::searcher_names()) {
    SCOPED_TRACE(strategy);
    core::ScopedFault fault(FaultInjector::Site::BudgetProbe, 10);
    assign::SearchResult result = assign::searcher(strategy).search(ctx, {});
    EXPECT_EQ(result.status, assign::SearchStatus::BudgetExhausted);
    EXPECT_EQ(result.stop, core::StopReason::Injected) << core::to_string(result.stop);
    EXPECT_TRUE(assign::fits(ctx, result.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, result.assignment));
  }
}

// --- Crash-safe cache persistence -------------------------------------------

TEST(FaultInjection, CacheSaveCrashNeverLosesPersistedEntries) {
  std::string path = temp_path("mhla_cache_crash.json");
  xplore::ResultCache first;
  first.insert(1, {256, 0, "greedy", false, 100.0, 200.0});
  first.insert(2, {512, 8192, "bnb", true, 300.0, 400.0});
  first.save(path);
  const std::string persisted = slurp(path);

  xplore::ResultCache second;
  second.load(path);
  second.insert(3, {1024, 0, "anneal", true, 500.0, 600.0});

  // Kill the save at each of its three I/O steps (open, write+flush,
  // rename).  Every crash must leave the previously persisted document
  // byte-identical and clean up its temp file.
  for (long nth = 1; nth <= 3; ++nth) {
    SCOPED_TRACE("I/O fault at step " + std::to_string(nth));
    core::ScopedFault fault(FaultInjector::Site::IoWrite, nth);
    try {
      second.save(path);
      FAIL() << "expected the injected I/O fault to surface";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos) << e.what();
    }
    EXPECT_EQ(slurp(path), persisted);
    xplore::ResultCache reloaded;
    xplore::ResultCache::LoadReport report = reloaded.load(path);
    EXPECT_EQ(reloaded.entries(), first.entries());
    EXPECT_TRUE(report.clean);
    // No temp wreckage left behind.
    for (const auto& entry : std::filesystem::directory_iterator(::testing::TempDir())) {
      EXPECT_EQ(entry.path().string().find("mhla_cache_crash.json.tmp"), std::string::npos)
          << entry.path();
    }
  }

  // With the injector quiet the same save goes through.
  second.save(path);
  xplore::ResultCache reloaded;
  reloaded.load(path);
  EXPECT_EQ(reloaded.entries(), second.entries());
  std::remove(path.c_str());
}

// --- Cancellation-consistency properties over a randomized corpus -----------

/// Deterministic truncation point in [1, total): the corpus must exercise
/// early, middle and late cancellations, so the draw is seeded per case.
long truncation_point(std::uint32_t seed, long total) {
  std::mt19937 rng(seed * 2654435761u + 13u);
  return 1 + static_cast<long>(rng() % static_cast<std::uint32_t>(total - 1));
}

TEST(CancellationConsistency, GreedyTruncatesToAReplayablePrefix) {
  int truncated_cases = 0;
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    auto ctx = ws->context();

    assign::SearchResult baseline;
    long total = probes_of_full_run(ctx, "greedy", {}, &baseline);
    if (total < 2) continue;

    assign::SearchOptions bounded;
    bounded.budget.max_probes = truncation_point(seed, total);
    assign::SearchResult truncated = assign::searcher("greedy").search(ctx, bounded);

    // Degraded, never broken: the returned assignment is always the exact
    // state after the last accepted move.
    EXPECT_TRUE(assign::fits(ctx, truncated.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, truncated.assignment));

    if (truncated.status != assign::SearchStatus::BudgetExhausted) {
      // The budget outlasted the search — the result must be the full one.
      EXPECT_EQ(truncated.assignment, baseline.assignment);
      EXPECT_EQ(truncated.scalar, baseline.scalar);
      continue;
    }
    ++truncated_cases;

    // The truncated move trace is a prefix of the unbounded run's trace.
    ASSERT_LE(truncated.moves.size(), baseline.moves.size());
    for (std::size_t i = 0; i < truncated.moves.size(); ++i) {
      EXPECT_EQ(truncated.moves[i].kind, baseline.moves[i].kind);
      EXPECT_EQ(truncated.moves[i].cc_id, baseline.moves[i].cc_id);
      EXPECT_EQ(truncated.moves[i].array, baseline.moves[i].array);
      EXPECT_EQ(truncated.moves[i].layer, baseline.moves[i].layer);
      EXPECT_EQ(truncated.moves[i].gain, baseline.moves[i].gain);
    }

    // Fresh rebuild of the same prefix (max_moves caps accepted moves, no
    // budget involved) reproduces assignment and scalar bit for bit: the
    // cancelled engine held exactly the state of the accepted moves.
    assign::SearchOptions replay;
    replay.max_moves = static_cast<int>(truncated.moves.size());
    assign::SearchResult rebuilt = assign::searcher("greedy").search(ctx, replay);
    EXPECT_EQ(rebuilt.assignment, truncated.assignment);
    EXPECT_EQ(rebuilt.scalar, truncated.scalar);

    // The oracle truncates at the identical probe, so the degraded result
    // stays engine/oracle bit-identical too.
    assign::SearchResult truncated_ref = oracle::greedy(ctx, bounded);
    EXPECT_EQ(truncated_ref.assignment, truncated.assignment);
    EXPECT_EQ(truncated_ref.scalar, truncated.scalar);
    EXPECT_EQ(truncated_ref.moves.size(), truncated.moves.size());

    // Determinism of the truncation point itself.
    assign::SearchResult again = assign::searcher("greedy").search(ctx, bounded);
    EXPECT_EQ(again.assignment, truncated.assignment);
    EXPECT_EQ(again.scalar, truncated.scalar);
  }
  EXPECT_GE(truncated_cases, 5);  // the property must not go vacuous
}

TEST(CancellationConsistency, BnbIncumbentMatchesAFreshEvaluation) {
  int truncated_cases = 0;
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    auto ctx = ws->context();
    if (oracle::candidate_placements(ctx) > oracle::kExactCorpusPlacements) continue;

    assign::SearchResult baseline;
    long total = probes_of_full_run(ctx, "bnb", {}, &baseline);
    if (baseline.status == assign::SearchStatus::BudgetExhausted || total < 2) continue;
    EXPECT_EQ(baseline.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(baseline.gap, 0.0);

    assign::SearchOptions bounded;
    bounded.budget.max_probes = truncation_point(seed, total);
    assign::SearchResult truncated = assign::searcher("bnb").search(ctx, bounded);

    EXPECT_TRUE(assign::fits(ctx, truncated.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, truncated.assignment));
    // The incumbent can only be at or above the true optimum.
    EXPECT_GE(truncated.scalar, baseline.scalar * (1.0 - 1e-9));

    // The returned state must equal a fresh rebuild: re-evaluating the
    // assignment from scratch reproduces the reported scalar (the engine's
    // incremental journal left no residue).  The greedy fallback incumbent
    // accumulates its scalar over moves, so the comparison carries the
    // usual float-accumulation tolerance.
    assign::Objective objective = assign::make_objective(ctx, 1.0, 1.0);
    double fresh = objective.scalar(assign::estimate_cost(ctx, truncated.assignment));
    EXPECT_NEAR(fresh, truncated.scalar, 1e-9 * std::max(1.0, std::abs(truncated.scalar)));

    if (truncated.status == assign::SearchStatus::BudgetExhausted) {
      ++truncated_cases;
      // Certified gap: the root bound is admissible, so it may not exceed
      // the true optimum, and the gap ties incumbent to bound.
      EXPECT_GE(truncated.gap, 0.0);
      EXPECT_LE(truncated.lower_bound, baseline.scalar * (1.0 + 1e-9));
      if (truncated.scalar > 0.0) {
        EXPECT_NEAR(truncated.gap,
                    std::max(0.0, (truncated.scalar - truncated.lower_bound) / truncated.scalar),
                    1e-12);
      }
      // Determinism: a probe allowance cuts the serial DFS at a fixed state.
      assign::SearchResult again = assign::searcher("bnb").search(ctx, bounded);
      EXPECT_EQ(again.assignment, truncated.assignment);
      EXPECT_EQ(again.scalar, truncated.scalar);
      EXPECT_EQ(again.states_explored, truncated.states_explored);
    } else {
      EXPECT_EQ(truncated.assignment, baseline.assignment);
      EXPECT_EQ(truncated.scalar, baseline.scalar);
    }
  }
  EXPECT_GE(truncated_cases, 3);
}

TEST(CancellationConsistency, AnnealTruncatesDeterministically) {
  int truncated_cases = 0;
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    auto ctx = ws->context();

    assign::SearchResult baseline;
    long total = probes_of_full_run(ctx, "anneal", {}, &baseline);
    if (total < 2) continue;

    assign::SearchOptions bounded;
    bounded.budget.max_probes = truncation_point(seed, total);
    assign::SearchResult truncated = assign::searcher("anneal").search(ctx, bounded);

    EXPECT_EQ(truncated.status, assign::SearchStatus::BudgetExhausted);
    ++truncated_cases;
    EXPECT_TRUE(assign::fits(ctx, truncated.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, truncated.assignment));

    // Best-so-far state re-evaluates from scratch to the reported scalar.
    assign::Objective objective = assign::make_objective(ctx, 1.0, 1.0);
    double fresh = objective.scalar(assign::estimate_cost(ctx, truncated.assignment));
    EXPECT_NEAR(fresh, truncated.scalar, 1e-9 * std::max(1.0, std::abs(truncated.scalar)));

    // The seeded walk truncated at a fixed iteration is fully reproducible.
    assign::SearchResult again = assign::searcher("anneal").search(ctx, bounded);
    EXPECT_EQ(again.assignment, truncated.assignment);
    EXPECT_EQ(again.scalar, truncated.scalar);
    EXPECT_EQ(again.evaluations, truncated.evaluations);
  }
  EXPECT_GE(truncated_cases, 5);
}

TEST(CancellationConsistency, BnbParBitIdenticalAcrossThreadsWithNonBindingBudget) {
  // A budget that never binds must leave the parallel search bit-identical
  // to serial for any thread count — attaching a deadline/allowance cannot
  // perturb a run that finishes inside it.
  for (const std::string& app : {"conv_filter", "cavity_detection"}) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    assign::SearchResult serial = assign::searcher("bnb").search(ctx, {});
    ASSERT_EQ(serial.status, assign::SearchStatus::Optimal);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      assign::SearchOptions options;
      options.bnb_threads = threads;
      options.budget.max_probes = 500'000'000;  // generous: attached, never binding
      assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, options);
      EXPECT_EQ(parallel.assignment, serial.assignment) << "threads " << threads;
      EXPECT_EQ(parallel.scalar, serial.scalar) << "threads " << threads;
      EXPECT_EQ(parallel.status, assign::SearchStatus::Optimal) << "threads " << threads;
      EXPECT_EQ(parallel.gap, 0.0) << "threads " << threads;
    }
  }
}

// --- Batched budget charging of the parallel search -------------------------

/// Units a bnb-par worker charges per budget call (see
/// exhaustive_parallel_assign in assign/search.h).
constexpr long kBnbParProbeBatch = 64;

TEST(CancellationConsistency, BnbParChargesEveryBatchedProbe) {
  // Workers count probes locally and charge them in batches; the remainder
  // of every task is flushed when the task ends, so a complete run charges
  // at least one probe per evaluated state — no batch remainder is lost.
  // The greedy seed is off: its own probes would mask a lost remainder.
  for (const std::string& app : {"conv_filter", "cavity_detection", "adpcm_coder"}) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    for (unsigned threads : {1u, 4u}) {
      assign::SearchOptions options;
      options.bnb_threads = threads;
      options.bnb_seed_incumbent = false;
      assign::SearchResult result;
      long probes = probes_of_full_run(ctx, "bnb-par", options, &result);
      EXPECT_EQ(result.status, assign::SearchStatus::Optimal) << "threads " << threads;
      EXPECT_GE(probes, result.states_explored) << "threads " << threads;
    }
  }
}

TEST(CancellationConsistency, BnbParProbeAllowanceOvershootsByAtMostOneBatchPerWorker) {
  // A probe allowance still truncates the parallel search; batching lets
  // each worker overshoot it by at most one batch.  The full adpcm_coder
  // search charges about 9,400 units (one per array- and copy-phase node);
  // the guard below keeps the allowance binding should the bound tighten
  // again.
  auto ws = core::make_workspace(apps::build_app("adpcm_coder"), mem::PlatformConfig{}, {});
  auto ctx = ws->context();
  constexpr unsigned kThreads = 4;
  constexpr long kAllowance = 4000;
  {
    assign::SearchOptions unbudgeted;
    unbudgeted.bnb_threads = kThreads;
    long full = probes_of_full_run(ctx, "bnb-par", unbudgeted, nullptr);
    ASSERT_GT(full, kAllowance + static_cast<long>(kThreads) * kBnbParProbeBatch)
        << "the allowance no longer binds: the full search fits inside it";
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    core::BudgetSpec spec;
    spec.max_probes = kAllowance;
    core::RunBudget token(spec);
    assign::SearchOptions options;
    options.bnb_threads = kThreads;
    options.shared_budget = &token;
    assign::SearchResult result = assign::searcher("bnb-par").search(ctx, options);
    EXPECT_EQ(result.status, assign::SearchStatus::BudgetExhausted);
    EXPECT_EQ(token.reason(), core::StopReason::ProbeBudget);
    EXPECT_GT(token.probes(), kAllowance);
    EXPECT_LE(token.probes(), kAllowance + static_cast<long>(kThreads) * kBnbParProbeBatch);
    EXPECT_TRUE(assign::fits(ctx, result.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, result.assignment));
  }
}

// --- Anytime exact search: the node cap bounds every run ---------------------

/// The anytime contract of a truncated exact search: a consumable
/// best-so-far assignment, a finite gap certified by a root bound that
/// does not exceed it, and the reason it stopped.
void expect_certified_best_so_far(const assign::AssignContext& ctx,
                                  const assign::SearchResult& result, core::StopReason stop) {
  EXPECT_EQ(result.status, assign::SearchStatus::BudgetExhausted);
  EXPECT_EQ(result.stop, stop) << core::to_string(result.stop);
  EXPECT_TRUE(assign::fits(ctx, result.assignment));
  EXPECT_TRUE(assign::layering_valid(ctx, result.assignment));
  EXPECT_GT(result.scalar, 0.0);
  EXPECT_GE(result.gap, 0.0);
  EXPECT_TRUE(std::isfinite(result.gap));
  EXPECT_GT(result.lower_bound, 0.0);
  EXPECT_LE(result.lower_bound, result.scalar);
}

TEST(Anytime, Mpeg2AboveGuardReturnsCertifiedBestSoFar) {
  auto ws = core::make_workspace(apps::build_app("mpeg2_encoder"), mem::PlatformConfig{}, {});
  auto ctx = ws->context();
  std::size_t placements = oracle::candidate_placements(ctx);
  ASSERT_GT(placements, oracle::kExactCorpusPlacements)
      << "corpus drifted: mpeg2_encoder is no longer a large exact instance";

  // A deterministic probe allowance truncates the large instance into a
  // certified best-so-far, reproducible run to run (the default node cap
  // alone is covered by DefaultNodeCapTruncatesTheHardApps below).
  assign::SearchOptions bounded;
  bounded.budget.max_probes = 20000;
  assign::SearchResult result = assign::searcher("bnb").search(ctx, bounded);
  expect_certified_best_so_far(ctx, result, core::StopReason::ProbeBudget);

  assign::SearchResult again = assign::searcher("bnb").search(ctx, bounded);
  EXPECT_EQ(again.assignment, result.assignment);
  EXPECT_EQ(again.scalar, result.scalar);
  EXPECT_EQ(again.gap, result.gap);

  // The parallel front end accepts the same anytime contract.
  assign::SearchOptions bounded_par = bounded;
  bounded_par.bnb_threads = 2;
  assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, bounded_par);
  EXPECT_EQ(parallel.status, assign::SearchStatus::BudgetExhausted);
  EXPECT_EQ(parallel.stop, core::StopReason::ProbeBudget) << core::to_string(parallel.stop);
  EXPECT_TRUE(assign::fits(ctx, parallel.assignment));
  EXPECT_GE(parallel.gap, 0.0);
}

TEST(Anytime, DefaultNodeCapTruncatesTheHardApps) {
  // The three apps whose exact search runs for seconds or more: default
  // options must return a certified best-so-far once `max_states` nodes
  // are spent, name the node cap as the stop, and leave the (unbounded)
  // shared budget unexpired.
  for (const char* app : {"mpeg2_encoder", "wavelet", "fft_filter"}) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    core::RunBudget token;
    assign::SearchOptions options;
    options.shared_budget = &token;
    expect_certified_best_so_far(ctx, assign::searcher("bnb").search(ctx, options),
                                 core::StopReason::NodeCap);
    EXPECT_EQ(token.reason(), core::StopReason::None) << core::to_string(token.reason());
  }
}

TEST(Anytime, EveryStrategyNamesAProbeBudgetStop) {
  // A probe allowance that binds names itself as the stop in every
  // strategy, including bnb-par's batched charging on two workers (its
  // greedy seed is off, so the allowance binds inside the parallel search).
  auto ws = core::make_workspace(apps::build_app("wavelet"), mem::PlatformConfig{}, {});
  auto ctx = ws->context();
  for (const std::string& strategy : {"greedy", "anneal", "bnb", "bnb-par"}) {
    SCOPED_TRACE(strategy);
    assign::SearchOptions options;
    options.budget.max_probes = 1000;
    options.bnb_threads = 2;
    options.bnb_seed_incumbent = strategy != "bnb-par";
    assign::SearchResult result = assign::searcher(strategy).search(ctx, options);
    EXPECT_EQ(result.status, assign::SearchStatus::BudgetExhausted);
    EXPECT_EQ(result.stop, core::StopReason::ProbeBudget) << core::to_string(result.stop);
  }
}

TEST(Anytime, ARaisedCancelFlagNamesTheStopCancelled) {
  // A serve job's cancel-only budget, raised: the cancel, not the node cap,
  // ends the search and names the stop, serially and on two workers.
  auto ws = core::make_workspace(apps::build_app("wavelet"), mem::PlatformConfig{}, {});
  auto ctx = ws->context();
  for (const char* strategy : {"bnb", "bnb-par"}) {
    SCOPED_TRACE(strategy);
    core::BudgetSpec spec;
    spec.cancel = std::make_shared<std::atomic<bool>>(true);
    core::RunBudget token(spec);
    assign::SearchOptions options;
    options.shared_budget = &token;
    options.bnb_threads = 2;
    expect_certified_best_so_far(ctx, assign::searcher(strategy).search(ctx, options),
                                 core::StopReason::Cancelled);
    EXPECT_EQ(token.reason(), core::StopReason::Cancelled);
  }
}

TEST(Anytime, DefaultNodeCapLetsTheLargeEasyAppsFinish) {
  // qsdpcm (100 placements) and jpeg_compress (68) finish well inside the
  // default cap, and two workers reproduce the serial optimum bit for bit.
  for (const char* app : {"qsdpcm", "jpeg_compress"}) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    ASSERT_GT(oracle::candidate_placements(ctx), oracle::kExactCorpusPlacements);
    assign::SearchResult serial = assign::searcher("bnb").search(ctx, {});
    EXPECT_EQ(serial.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(serial.gap, 0.0);

    assign::SearchOptions two_workers;
    two_workers.bnb_threads = 2;
    assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, two_workers);
    EXPECT_EQ(parallel.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(parallel.assignment, serial.assignment);
    EXPECT_EQ(parallel.scalar, serial.scalar);
  }
}

TEST(Anytime, NodeCapStopsASearchWhoseOnlyBudgetIsACancelFlag) {
  // A serve job's budget is a cancel flag nobody raises.  The node cap,
  // not the clock, must end the search: the 60 s deadline is only a
  // backstop, and the shared token must not have expired.
  auto ws = core::make_workspace(apps::build_app("wavelet"), mem::PlatformConfig{}, {});
  auto ctx = ws->context();
  core::BudgetSpec spec;
  spec.cancel = std::make_shared<std::atomic<bool>>(false);
  spec.deadline_seconds = 60.0;
  core::RunBudget token(spec);
  assign::SearchOptions options;
  options.shared_budget = &token;
  assign::SearchResult result = assign::searcher("bnb").search(ctx, options);
  expect_certified_best_so_far(ctx, result, core::StopReason::NodeCap);
  EXPECT_EQ(token.reason(), core::StopReason::None) << core::to_string(token.reason());
}

// --- Pipeline / report integration ------------------------------------------

TEST(Robustness, PipelineDeadlineDegradesInsteadOfFailing) {
  core::PipelineConfig config;
  config.search.budget.deadline_seconds = 1e-9;  // expires on the first probe
  core::Pipeline pipeline(config);
  core::PipelineResult run = pipeline.run(apps::build_app("conv_filter"));
  EXPECT_EQ(run.search.status, assign::SearchStatus::BudgetExhausted);
  // The degraded run still produces the full four-point report.
  EXPECT_GT(run.points.out_of_box.total_cycles(), 0.0);
  EXPECT_GT(run.points.mhla_te.total_cycles(), 0.0);

  std::string json = core::to_json("conv_filter", run);
  EXPECT_NE(json.find("\"status\": \"budget_exhausted\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stop\": \"deadline\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gap\": "), std::string::npos) << json;
}

TEST(Robustness, ReportStopFollowsStatusAcrossAnInjectionSweep) {
  // A probe allowance one past the search's own probe count lets the search
  // finish and cuts only the TE pass: the run is BudgetExhausted, and the
  // report's `stop` names the allowance.
  core::PipelineConfig config;
  auto ws = core::make_workspace(apps::build_app("conv_filter"), config.platform, config.dma);
  assign::SearchOptions options = config.search;
  options.set_target(config.target);
  assign::SearchResult search;
  long probes = probes_of_full_run(ws->context(), config.strategy, options, &search);
  ASSERT_EQ(search.status, assign::SearchStatus::Feasible);

  config.search.budget.max_probes = probes + 1;
  core::PipelineResult run = core::Pipeline(config).run(*ws);
  EXPECT_EQ(run.search.assignment, search.assignment);
  EXPECT_EQ(run.search.status, assign::SearchStatus::BudgetExhausted);
  core::Json report = core::Json::parse(core::to_json("conv_filter", run));
  EXPECT_EQ(report.at("search").at("status").string(), "budget_exhausted");
  EXPECT_EQ(report.at("search").at("stop").string(), "probe_budget");

  // An injected expiry swept over the probes of the whole run (a bounded
  // spec shares one token between the search and the TE pass): `stop` is
  // "injected" exactly where the injector fired, and it is not "none"
  // exactly when the status is budget_exhausted.
  config.search.budget.max_probes = 1'000'000'000;  // attached, never binding
  for (const char* strategy : {"greedy", "bnb"}) {
    SCOPED_TRACE(strategy);
    config.strategy = strategy;
    core::Pipeline pipeline(config);
    long hits = 0;
    {
      core::ScopedFault count(FaultInjector::Site::BudgetProbe, std::numeric_limits<long>::max());
      pipeline.run(*ws);
      hits = FaultInjector::hits(FaultInjector::Site::BudgetProbe);
    }
    ASSERT_GT(hits, 2);
    std::vector<long> sweep;
    for (long nth = 1; nth < hits; nth += std::max(1L, hits / 40)) sweep.push_back(nth);
    sweep.insert(sweep.end(), {hits, hits + 1});
    for (long nth : sweep) {
      SCOPED_TRACE("injected at probe " + std::to_string(nth) + " of " + std::to_string(hits));
      core::ScopedFault fault(FaultInjector::Site::BudgetProbe, nth);
      core::Json search = core::Json::parse(core::to_json("conv_filter", pipeline.run(*ws)))
                              .at("search");
      const std::string& stop = search.at("stop").string();
      EXPECT_EQ(stop != "none", search.at("status").string() == "budget_exhausted") << stop;
      EXPECT_EQ(stop == "injected", nth <= hits) << stop;
    }
  }
}

TEST(Robustness, BudgetKnobsRoundTripThroughConfigJson) {
  core::PipelineConfig config;
  config.search.budget.deadline_seconds = 1.5;
  config.search.budget.max_probes = 123456;
  core::PipelineConfig reparsed = core::pipeline_config_from_json(core::to_json(config));
  EXPECT_EQ(reparsed.search.budget.deadline_seconds, 1.5);
  EXPECT_EQ(reparsed.search.budget.max_probes, 123456);
  EXPECT_EQ(reparsed.search, config.search);

  core::PipelineConfig sparse = core::pipeline_config_from_json(
      "{\"search\": {\"deadline_seconds\": 0.25, \"max_probes\": 7}}");
  EXPECT_EQ(sparse.search.budget.deadline_seconds, 0.25);
  EXPECT_EQ(sparse.search.budget.max_probes, 7);
}

TEST(Robustness, SearchStatusNamesRoundTrip) {
  for (assign::SearchStatus status :
       {assign::SearchStatus::Optimal, assign::SearchStatus::Feasible,
        assign::SearchStatus::BudgetExhausted, assign::SearchStatus::Infeasible}) {
    EXPECT_EQ(assign::parse_search_status(assign::to_string(status)), status);
  }
  EXPECT_THROW(assign::parse_search_status("bogus"), std::invalid_argument);
}

TEST(Robustness, SharedBudgetCoversSearchAndTimeExtension) {
  // One token threads through the whole pipeline run: the TE stage observes
  // the same expiry the search hit, yet the run still produces a complete,
  // feasible four-point report over the truncated assignment.
  core::PipelineConfig config;
  config.search.budget.max_probes = 5;
  core::Pipeline pipeline(config);
  core::PipelineResult run = pipeline.run(apps::build_app("conv_filter"));
  EXPECT_EQ(run.search.status, assign::SearchStatus::BudgetExhausted);
  EXPECT_TRUE(run.points.mhla.feasible);
  EXPECT_TRUE(run.points.mhla_te.feasible);
  EXPECT_GT(run.points.mhla_te.total_cycles(), 0.0);
}

}  // namespace
}  // namespace mhla
