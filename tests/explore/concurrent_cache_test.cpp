#include "explore/concurrent_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "explore/explorer.h"
#include "helpers.h"

namespace mhla::xplore {
namespace {

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Deterministic entry derived from its key — the property tests' oracle:
/// whatever interleaving happened, the entry at `key` can only ever be
/// `entry_for(key)`.
CacheEntry entry_for(std::uint64_t key, assign::SearchStatus status = assign::SearchStatus::Feasible) {
  CacheEntry entry;
  entry.l1_bytes = static_cast<i64>(key * 2 + 128);
  entry.l2_bytes = static_cast<i64>(key % 3 == 0 ? 0 : key * 64);
  entry.strategy = key % 2 ? "greedy" : "bnb";
  entry.with_te = key % 2 == 0;
  entry.cycles = static_cast<double>(key) * 1.5 + 0.25;
  entry.energy_nj = static_cast<double>(key) * 2.5 + 0.125;
  entry.status = status;
  return entry;
}

// --- The cacheability guard lives in the cache layer itself ------------------

TEST(CacheStatusGuard, ResultCacheRefusesNonCompletedResults) {
  ResultCache cache;
  EXPECT_TRUE(cache.insert(1, entry_for(1, assign::SearchStatus::Optimal)));
  EXPECT_TRUE(cache.insert(2, entry_for(2, assign::SearchStatus::Feasible)));
  // A budget-truncated or infeasible result must be dropped by the cache
  // itself, not just by well-behaved callers: a truncated value depends on
  // knobs the key normalizes away and would poison every later lookup.
  EXPECT_FALSE(cache.insert(3, entry_for(3, assign::SearchStatus::BudgetExhausted)));
  EXPECT_FALSE(cache.insert(4, entry_for(4, assign::SearchStatus::Infeasible)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_EQ(cache.find(4), nullptr);

  // An overwrite attempt with a truncated result must not clobber the
  // completed entry either.
  EXPECT_FALSE(cache.insert(1, entry_for(1, assign::SearchStatus::BudgetExhausted)));
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(1)->status, assign::SearchStatus::Optimal);
}

TEST(CacheStatusGuard, ConcurrentCacheRefusesNonCompletedResults) {
  ConcurrentResultCache cache;
  EXPECT_TRUE(cache.insert(1, entry_for(1, assign::SearchStatus::Optimal)));
  EXPECT_FALSE(cache.insert(2, entry_for(2, assign::SearchStatus::BudgetExhausted)));
  EXPECT_FALSE(cache.insert(3, entry_for(3, assign::SearchStatus::Infeasible)));
  EXPECT_EQ(cache.size(), 1u);
  CacheEntry out;
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_FALSE(cache.lookup(3, out));
  EXPECT_EQ(cache.stats().rejected, 2u);
}

TEST(CacheStatusGuard, StatusRoundTripsAndVersionOneDocumentsAreStale) {
  ResultCache cache;
  cache.insert(7, entry_for(7, assign::SearchStatus::Optimal));
  ResultCache reloaded = ResultCache::from_json(cache.to_json());
  ASSERT_NE(reloaded.find(7), nullptr);
  EXPECT_EQ(reloaded.find(7)->status, assign::SearchStatus::Optimal);
  EXPECT_EQ(reloaded.entries(), cache.entries());

  // A version-1 document (keys hashed over the old config text) is stale:
  // the parser names its version instead of returning entries that can
  // never hit.
  const std::string legacy =
      "{\n  \"version\": 1,\n  \"entries\": [\n"
      "    {\"key\": \"000000000000002a\", \"l1_bytes\": 256, \"l2_bytes\": 0,"
      " \"strategy\": \"greedy\", \"with_te\": true, \"cycles\": 10.0,"
      " \"energy_nj\": 20.0}\n  ]\n}";
  try {
    ResultCache::from_json(legacy);
    FAIL() << "expected a stale-version error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stale cache version 1"), std::string::npos) << e.what();
  }
}

// --- Bounds: LRU eviction above the cap, a hard floor below ------------------

TEST(ConcurrentCache, EvictsLeastRecentlyUsedPastTheCap) {
  // One shard makes the LRU order globally observable.
  ConcurrentResultCache cache({/*max_entries=*/4, /*evict_floor=*/0}, /*shard_count=*/1);
  for (std::uint64_t key = 0; key < 4; ++key) ASSERT_TRUE(cache.insert(key, entry_for(key)));

  // Touch key 0 so key 1 is now the cold tail.
  CacheEntry out;
  ASSERT_TRUE(cache.lookup(0, out));
  EXPECT_EQ(out, entry_for(0));

  ASSERT_TRUE(cache.insert(10, entry_for(10)));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.lookup(1, out)) << "cold tail should have been evicted";
  EXPECT_TRUE(cache.lookup(0, out)) << "recently used entry must survive";
  EXPECT_TRUE(cache.lookup(10, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ConcurrentCache, OverwriteDoesNotGrowOrEvict) {
  ConcurrentResultCache cache({/*max_entries=*/2, /*evict_floor=*/0}, 1);
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  ASSERT_TRUE(cache.insert(2, entry_for(2)));
  CacheEntry updated = entry_for(1);
  updated.cycles = 999.0;
  ASSERT_TRUE(cache.insert(1, updated));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  CacheEntry out;
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out.cycles, 999.0);
}

TEST(ConcurrentCache, EvictionNeverDropsBelowTheFloorUnderContention) {
  const std::size_t kFloor = 24;
  // Cap below the floor: the floor wins, so this is the worst-case eviction
  // pressure — every insert past the cap wants to evict and the floor must
  // hold under any interleaving.
  ConcurrentResultCache cache({/*max_entries=*/8, /*evict_floor=*/kFloor}, /*shard_count=*/4);

  // Warm past the floor, then hammer it from writers while readers assert
  // the floor invariant on every observation.
  for (std::uint64_t key = 0; key < kFloor; ++key) ASSERT_TRUE(cache.insert(key, entry_for(key)));
  ASSERT_GE(cache.size(), kFloor);

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 2000; ++i) {
        std::uint64_t key = 1000 + static_cast<std::uint64_t>(t) * 10000 + i;
        cache.insert(key, entry_for(key));
        if (cache.size() < kFloor) violated.store(true);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      if (cache.size() < kFloor) violated.store(true);
      CacheEntry out;
      cache.lookup(3, out);  // recency churn while evictions race
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  reader.join();

  EXPECT_FALSE(violated.load()) << "cache shrank below the eviction floor";
  EXPECT_GE(cache.size(), kFloor);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// --- Concurrent property: N threads vs the single-threaded model -------------

TEST(ConcurrentCache, ConcurrentInsertsAndLookupsMatchReferenceModel) {
  const int kThreads = 8;
  const std::uint64_t kKeys = 512;
  ConcurrentResultCache cache({}, /*shard_count=*/8);

  // Every thread inserts every key (same derived value — the oracle) in a
  // different order and verifies whatever it reads back.
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        std::uint64_t key = (i * 2654435761u + static_cast<std::uint64_t>(t)) % kKeys;
        cache.insert(key, entry_for(key));
        CacheEntry out;
        if (cache.lookup(key, out) && !(out == entry_for(key))) wrong_value.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(wrong_value.load());

  // The single-threaded reference model: the same inserts in any order.
  ResultCache reference;
  for (std::uint64_t key = 0; key < kKeys; ++key) reference.insert(key, entry_for(key));
  EXPECT_EQ(cache.snapshot().entries(), reference.entries());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kThreads) * kKeys);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kKeys);
}

// --- Merge convergence -------------------------------------------------------

TEST(ConcurrentCache, MergeFromShardsConvergesOnTheReferenceMerge) {
  ResultCache shard_a, shard_b;
  for (std::uint64_t key = 0; key < 40; ++key) shard_a.insert(key, entry_for(key));
  for (std::uint64_t key = 20; key < 60; ++key) shard_b.insert(key, entry_for(key));

  ConcurrentResultCache cache;
  cache.merge_from(shard_a);
  cache.merge_from(shard_b);

  ResultCache reference;
  reference.merge_from(shard_a);
  reference.merge_from(shard_b);
  EXPECT_EQ(cache.snapshot().entries(), reference.entries());

  // Concurrent-to-concurrent merge too (server adopting another server's
  // in-memory cache).
  ConcurrentResultCache other;
  other.merge_from(cache);
  EXPECT_EQ(other.snapshot().entries(), reference.entries());
}

// --- Crash-safe persistence --------------------------------------------------

TEST(ConcurrentCache, SaveCrashNeverLosesThePersistedDocument) {
  std::string path = temp_path("mhla_ccache_crash.json");
  ConcurrentResultCache cache;
  for (std::uint64_t key = 0; key < 8; ++key) ASSERT_TRUE(cache.insert(key, entry_for(key)));
  cache.save(path);
  const std::string persisted = slurp(path);

  ASSERT_TRUE(cache.insert(100, entry_for(100)));

  // Kill the save at each of its I/O steps (open, write+flush, rename);
  // the previously persisted document must survive byte-identically.
  for (long nth = 1; nth <= 3; ++nth) {
    SCOPED_TRACE("I/O fault at step " + std::to_string(nth));
    core::ScopedFault fault(core::FaultInjector::Site::IoWrite, nth);
    EXPECT_THROW(cache.save(path), std::runtime_error);
    EXPECT_EQ(slurp(path), persisted);
  }

  // A crash-interrupted periodic save must leave save_if_dirty dirty, so
  // the next tick retries instead of believing the failed pass.
  {
    core::ScopedFault fault(core::FaultInjector::Site::IoWrite, 2);
    EXPECT_THROW(cache.save_if_dirty(path), std::runtime_error);
  }
  EXPECT_TRUE(cache.save_if_dirty(path));
  ResultCache::LoadReport report;
  ConcurrentResultCache reloaded;
  report = reloaded.load_file(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(reloaded.snapshot().entries(), cache.snapshot().entries());
  std::remove(path.c_str());
}

TEST(ConcurrentCache, SaveIfDirtySkipsWhenNothingChanged) {
  std::string path = temp_path("mhla_ccache_dirty.json");
  ConcurrentResultCache cache;
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_FALSE(cache.save_if_dirty(path)) << "clean cache must skip the I/O";
  ASSERT_TRUE(cache.insert(2, entry_for(2)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_EQ(cache.stats().saves, 2u);
  std::remove(path.c_str());
}

TEST(ConcurrentCache, LoadFileSalvagesDamagedDocuments) {
  std::string path = temp_path("mhla_ccache_salvage.json");
  ResultCache seed;
  seed.insert(1, entry_for(1));
  seed.insert(2, entry_for(2));
  seed.save(path);

  // Truncate mid-document inside the second entry's line: the first entry
  // line stays intact and must be salvaged into the concurrent cache.
  std::string document = slurp(path);
  std::size_t second_entry = document.find("\"key\"", document.find("\"key\"") + 1);
  ASSERT_NE(second_entry, std::string::npos);
  std::ofstream(path, std::ios::trunc) << document.substr(0, second_entry);

  ConcurrentResultCache cache;
  ResultCache::LoadReport report = cache.load_file(path);
  EXPECT_FALSE(report.clean);
  EXPECT_GE(report.salvaged, 1u);
  CacheEntry out;
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, entry_for(1));
  std::filesystem::remove(path);
  std::filesystem::remove(report.quarantine_path);
}

// --- The explorer over the concurrent store ----------------------------------

TEST(ConcurrentCache, ExplorerWarmReplayHasZeroEvaluations) {
  ExplorerConfig config;
  config.l1_axis = {128, 256, 512, 1024, 2048};
  config.l2_axis = {0, 8192};
  config.pipeline.platform = mhla::testing::small_platform();
  Explorer explorer(config);
  auto program = mhla::testing::blocked_reuse_program;

  // Reference: the single-threaded cache the batch drivers use.
  ResultCache reference_cache;
  ExploreResult reference = explorer.run(program(), reference_cache);

  ConcurrentResultCache cache;
  ExploreResult cold = explorer.run(program(), cache);
  EXPECT_GT(cold.evaluations, 0u);
  ASSERT_EQ(cold.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(cold.samples[i].point.cycles, reference.samples[i].point.cycles);
    EXPECT_EQ(cold.samples[i].point.energy_nj, reference.samples[i].point.energy_nj);
  }
  EXPECT_EQ(cache.snapshot().entries(), reference_cache.entries());

  // Warm replay: identical samples, zero pipeline runs.
  ExploreResult warm = explorer.run(program(), cache);
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, warm.samples.size());
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size());
  for (std::size_t i = 0; i < warm.frontier.size(); ++i) {
    EXPECT_EQ(warm.frontier[i].cycles, cold.frontier[i].cycles);
    EXPECT_EQ(warm.frontier[i].energy_nj, cold.frontier[i].energy_nj);
  }
}

}  // namespace
}  // namespace mhla::xplore
