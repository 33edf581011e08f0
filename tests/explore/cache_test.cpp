#include "explore/cache.h"

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
  CacheEntry out;
  EXPECT_FALSE(cache.lookup(3, out));
  EXPECT_FALSE(cache.lookup(4, out));

  // An overwrite attempt with a truncated result must not clobber the
  // completed entry either.
  EXPECT_FALSE(cache.insert(1, entry_for(1, assign::SearchStatus::BudgetExhausted)));
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out.status, assign::SearchStatus::Optimal);
  EXPECT_EQ(cache.stats().rejected, 3u);
}

TEST(CacheStatusGuard, StatusRoundTripsAndVersionOneDocumentsAreStale) {
  std::string path = temp_path("mhla_cache_status.json");
  ResultCache cache;
  cache.insert(7, entry_for(7, assign::SearchStatus::Optimal));
  cache.save(path);
  ResultCache reloaded;
  EXPECT_TRUE(reloaded.load(path).clean);
  CacheEntry out;
  ASSERT_TRUE(reloaded.lookup(7, out));
  EXPECT_EQ(out.status, assign::SearchStatus::Optimal);
  EXPECT_EQ(reloaded.entries(), cache.entries());

  // A version-1 document (keys hashed over the old config text) is stale:
  // the load names its version instead of keeping entries that can never
  // hit.
  std::ofstream(path, std::ios::trunc)
      << "{\n  \"version\": 1,\n  \"entries\": [\n"
         "    {\"key\": \"000000000000002a\", \"l1_bytes\": 256, \"l2_bytes\": 0,"
         " \"strategy\": \"greedy\", \"with_te\": true, \"cycles\": 10.0,"
         " \"energy_nj\": 20.0}\n  ]\n}";
  ResultCache legacy;
  ResultCache::LoadReport report = legacy.load(path);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(legacy.size(), 0u);
  EXPECT_NE(report.message.find("stale format version 1"), std::string::npos) << report.message;
  std::remove(path.c_str());
}

// --- Bound: an exact cap, least recently used evicted first -----------------

TEST(ConcurrentCache, EvictsLeastRecentlyUsedPastTheCap) {
  ResultCache cache(/*max_entries=*/4);
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
  ResultCache cache(/*max_entries=*/2);
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

TEST(ConcurrentCache, CapIsExactAndEvictionIsGlobalLruUnderContention) {
  const std::size_t kCap = 10;
  const int kWriters = 4;
  const std::uint64_t kPerWriter = 2000;
  ResultCache cache(kCap);

  // Writer t inserts its own keys t*kPerWriter .. in ascending order, and
  // every observer checks the cap on every observation.
  std::atomic<bool> stop{false};
  std::atomic<bool> over_cap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        std::uint64_t key = static_cast<std::uint64_t>(t) * kPerWriter + i;
        cache.insert(key, entry_for(key));
        if (cache.size() > kCap) over_cap.store(true);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      if (cache.size() > kCap || cache.stats().entries > kCap) over_cap.store(true);
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  reader.join();
  EXPECT_FALSE(over_cap.load()) << "cache grew past max_entries";

  // Quiesced: the cache holds exactly the kCap most recent inserts of the
  // lock order.  That order keeps each writer's program order, so from every
  // writer the cache holds a suffix of its keys (a later key of the same
  // writer can never be evicted before an earlier one), and nothing else.
  std::vector<std::pair<std::uint64_t, CacheEntry>> held = cache.entries();
  ASSERT_EQ(held.size(), kCap);
  std::vector<std::uint64_t> per_writer(kWriters, 0);
  for (const auto& [key, entry] : held) {
    EXPECT_EQ(entry, entry_for(key));
    ++per_writer[key / kPerWriter];
  }
  for (int t = 0; t < kWriters; ++t) {
    for (std::uint64_t back = 0; back < per_writer[t]; ++back) {
      std::uint64_t key = (static_cast<std::uint64_t>(t) + 1) * kPerWriter - 1 - back;
      CacheEntry out;
      EXPECT_TRUE(cache.lookup(key, out)) << "writer " << t << " holds a gap at key " << key;
    }
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, kCap);
  EXPECT_EQ(stats.evictions, kWriters * kPerWriter - kCap);
}

// --- Concurrent property: N threads vs the single-threaded model -------------

TEST(ConcurrentCache, ConcurrentInsertsAndLookupsMatchReferenceModel) {
  const int kThreads = 8;
  const std::uint64_t kKeys = 512;
  ResultCache cache;

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
  EXPECT_EQ(cache.entries(), reference.entries());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kThreads) * kKeys);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kKeys);
}

// --- Merge convergence -------------------------------------------------------

TEST(ConcurrentCache, LoadingShardsConvergesOnTheReferenceMerge) {
  // Shard b overlaps shard a on keys 20..39 with different values: loading
  // a then b must leave b's values there (the later document wins).
  auto b_entry = [](std::uint64_t key) {
    CacheEntry entry = entry_for(key);
    entry.cycles += 1000.0;
    return entry;
  };
  std::string path_a = temp_path("mhla_ccache_shard_a.json");
  std::string path_b = temp_path("mhla_ccache_shard_b.json");
  ResultCache shard_a, shard_b;
  for (std::uint64_t key = 0; key < 40; ++key) shard_a.insert(key, entry_for(key));
  for (std::uint64_t key = 20; key < 60; ++key) shard_b.insert(key, b_entry(key));
  shard_a.save(path_a);
  shard_b.save(path_b);

  ResultCache cache;
  ResultCache::LoadReport report = cache.load(path_a);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, 40u);
  report = cache.load(path_b);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, 40u);

  ResultCache reference;
  for (std::uint64_t key = 0; key < 20; ++key) reference.insert(key, entry_for(key));
  for (std::uint64_t key = 20; key < 60; ++key) reference.insert(key, b_entry(key));
  EXPECT_EQ(cache.entries(), reference.entries());

  // A server adopting another server's cache: through its saved document.
  cache.save(path_a);
  ResultCache other;
  other.load(path_a);
  EXPECT_EQ(other.entries(), reference.entries());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- Crash-safe persistence --------------------------------------------------

TEST(ConcurrentCache, SaveCrashNeverLosesThePersistedDocument) {
  std::string path = temp_path("mhla_ccache_crash.json");
  ResultCache cache;
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
  ResultCache reloaded;
  ResultCache::LoadReport report = reloaded.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(reloaded.entries(), cache.entries());
  std::remove(path.c_str());
}

TEST(ConcurrentCache, SaveIfDirtySkipsWhenNothingChanged) {
  std::string path = temp_path("mhla_ccache_dirty.json");
  ResultCache cache;
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_FALSE(cache.save_if_dirty(path)) << "clean cache must skip the I/O";
  ASSERT_TRUE(cache.insert(2, entry_for(2)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_EQ(cache.stats().saves, 2u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadLeavesTheCacheDirtyOnlyWhenTheDocumentNeedsRewriting) {
  std::string path = temp_path("mhla_ccache_load_dirty.json");
  std::string other_path = temp_path("mhla_ccache_load_dirty_other.json");
  ResultCache seed;
  for (std::uint64_t key = 0; key < 4; ++key) ASSERT_TRUE(seed.insert(key, entry_for(key)));
  seed.save(path);
  const std::string document = slurp(path);

  // A clean load into an empty cache matches the document: nothing to save.
  ResultCache clean;
  ASSERT_TRUE(clean.load(path).clean);
  EXPECT_FALSE(clean.save_if_dirty(other_path));

  // A clean load into a non-empty cache merges, so memory differs from
  // every document on disk.
  ResultCache merged;
  ASSERT_TRUE(merged.insert(100, entry_for(100)));
  ASSERT_TRUE(merged.load(path).clean);
  EXPECT_TRUE(merged.save_if_dirty(other_path));

  // A salvaged load is dirty, and the save it triggers repairs the document.
  std::string damaged = document;
  damaged.replace(damaged.find("\"version\": 3,"), 13, "\"version\": 3,,");
  std::ofstream(path, std::ios::trunc) << damaged;
  ResultCache salvaged;
  ResultCache::LoadReport report = salvaged.load(path);
  ASSERT_FALSE(report.clean);
  EXPECT_EQ(report.salvaged, 4u);
  EXPECT_TRUE(salvaged.save_if_dirty(path));
  ResultCache repaired;
  EXPECT_TRUE(repaired.load(path).clean);
  EXPECT_EQ(repaired.entries(), seed.entries());
  EXPECT_EQ(slurp(path), document);

  // A stale load keeps nothing and is dirty: the save replaces the document
  // with an empty current-version one.
  std::string stale = document;
  stale.replace(stale.find("\"version\": 3"), 12, "\"version\": 2");
  std::ofstream(path, std::ios::trunc) << stale;
  ResultCache dropped;
  ASSERT_FALSE(dropped.load(path).clean);
  EXPECT_TRUE(dropped.save_if_dirty(path));
  ResultCache current;
  EXPECT_TRUE(current.load(path).clean);
  EXPECT_EQ(current.size(), 0u);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".quarantine");
  std::filesystem::remove(other_path);
}

TEST(ConcurrentCache, LoadSalvagesDamagedDocuments) {
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

  ResultCache cache;
  ResultCache::LoadReport report = cache.load(path);
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

  // Reference: an independent cold run into its own cache.
  ResultCache reference_cache;
  ExploreResult reference = explorer.run(program(), reference_cache);

  ResultCache cache;
  ExploreResult cold = explorer.run(program(), cache);
  EXPECT_GT(cold.evaluations, 0u);
  ASSERT_EQ(cold.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(cold.samples[i].point.cycles, reference.samples[i].point.cycles);
    EXPECT_EQ(cold.samples[i].point.energy_nj, reference.samples[i].point.energy_nj);
  }
  EXPECT_EQ(cache.entries(), reference_cache.entries());

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
