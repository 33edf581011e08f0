// Concurrent result-cache throughput: how the sharded, lock-striped
// ResultCache behind mhla_serve scales with reader/writer threads, against
// the single-mutex alternative (the same cache with one shard, so every
// operation takes one lock), and what bounded LRU eviction costs on the
// insert path.
//
// The interesting comparisons:
//   * Lookup/Insert at ->Threads(1..8): per-op time should stay roughly flat
//     as threads grow (shards contend only on key collisions), where the
//     GlobalLock variants serialize and degrade.
//   * BoundedInsert vs Insert: the eviction bookkeeping (LRU splice + floor
//     CAS) on every insert past the cap.
//   * Serialize: the periodic persister's pause — what save_if_dirty pays
//     before any I/O happens.

#include "bench_common.h"

#include <chrono>
#include <thread>
#include <vector>

#include "explore/cache.h"

namespace {

using namespace mhla;
using xplore::CacheEntry;

CacheEntry entry_for(std::uint64_t key) {
  CacheEntry entry;
  entry.l1_bytes = static_cast<xplore::i64>(128 + key % 4096);
  entry.l2_bytes = static_cast<xplore::i64>(key % 3 ? 8192 : 0);
  entry.strategy = "greedy";
  entry.with_te = true;
  entry.cycles = static_cast<double>(key) * 1.5;
  entry.energy_nj = static_cast<double>(key) * 2.5;
  entry.status = assign::SearchStatus::Feasible;
  return entry;
}

constexpr std::uint64_t kWorkingSet = 4096;

/// Per-thread key stream: fixed-stride walks with different offsets, so
/// threads touch the same working set but rarely the same key at once.
std::uint64_t nth_key(int thread, std::uint64_t i) {
  return (i * 2654435761u + static_cast<std::uint64_t>(thread) * 7919u) % kWorkingSet;
}

void ConcurrentCacheLookup(benchmark::State& state) {
  static xplore::ResultCache cache;
  if (state.thread_index() == 0) {
    for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));
  }
  std::uint64_t i = 0;
  CacheEntry out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(nth_key(state.thread_index(), i++), out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ConcurrentCacheLookup)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

void ConcurrentCacheInsert(benchmark::State& state) {
  static xplore::ResultCache cache;
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t key = nth_key(state.thread_index(), i++);
    benchmark::DoNotOptimize(cache.insert(key, entry_for(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ConcurrentCacheInsert)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// Bounded cache under eviction pressure: cap at half the working set, so
/// roughly every other insert pays the LRU eviction + floor CAS.
void ConcurrentCacheBoundedInsert(benchmark::State& state) {
  static xplore::ResultCache cache(
      {/*max_entries=*/kWorkingSet / 2, /*evict_floor=*/kWorkingSet / 4});
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t key = nth_key(state.thread_index(), i++);
    benchmark::DoNotOptimize(cache.insert(key, entry_for(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ConcurrentCacheBoundedInsert)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// The baseline the striping replaces: one shard, so every operation
/// serializes on one mutex.
void GlobalLockLookup(benchmark::State& state) {
  static xplore::ResultCache cache({}, /*shard_count=*/1);
  if (state.thread_index() == 0) {
    for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));
  }
  std::uint64_t i = 0;
  CacheEntry out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(nth_key(state.thread_index(), i++), out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(GlobalLockLookup)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

void GlobalLockInsert(benchmark::State& state) {
  static xplore::ResultCache cache({}, /*shard_count=*/1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t key = nth_key(state.thread_index(), i++);
    benchmark::DoNotOptimize(cache.insert(key, entry_for(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(GlobalLockInsert)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// The persister's synchronous cost: copying every shard out and rendering
/// the sorted document the crash-safe saver writes.
void ConcurrentCacheSerialize(benchmark::State& state) {
  xplore::ResultCache cache;
  for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));
  for (auto _ : state) {
    std::string document = cache.to_json();
    benchmark::DoNotOptimize(document.size());
  }
  state.SetItemsProcessed(state.iterations() * kWorkingSet);
}
BENCHMARK(ConcurrentCacheSerialize);

/// One-shot scaling table: mixed lookup/insert operations per second over
/// thread counts, sharded vs global-lock — the headline number that
/// justifies the striping in mhla_serve's hot path.
template <typename Op>
double ops_per_second(int threads, Op op) {
  constexpr std::uint64_t kOpsPerThread = 200'000;
  std::vector<std::thread> pool;
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, &op] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) op(t, i);
    });
  }
  for (std::thread& thread : pool) thread.join();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(kOpsPerThread) * threads / seconds;
}

void print_scaling_report() {
  bench::print_header(
      "Concurrent result-cache scaling (mhla_serve hot path)",
      "lock-striped shards keep cache throughput flat as server workers grow");

  xplore::ResultCache sharded;
  xplore::ResultCache global({}, /*shard_count=*/1);
  for (std::uint64_t key = 0; key < kWorkingSet; ++key) {
    sharded.insert(key, entry_for(key));
    global.insert(key, entry_for(key));
  }

  std::printf("%8s  %18s  %18s  %8s\n", "threads", "sharded ops/s", "global-lock ops/s",
              "speedup");
  for (int threads : {1, 2, 4, 8}) {
    double shard_rate = ops_per_second(threads, [&](int t, std::uint64_t i) {
      CacheEntry out;
      std::uint64_t key = nth_key(t, i);
      if (i % 8 == 0) {
        sharded.insert(key, entry_for(key));
      } else {
        benchmark::DoNotOptimize(sharded.lookup(key, out));
      }
    });
    double global_rate = ops_per_second(threads, [&](int t, std::uint64_t i) {
      CacheEntry out;
      std::uint64_t key = nth_key(t, i);
      if (i % 8 == 0) {
        global.insert(key, entry_for(key));
      } else {
        benchmark::DoNotOptimize(global.lookup(key, out));
      }
    });
    std::printf("%8d  %18.0f  %18.0f  %7.2fx\n", threads, shard_rate, global_rate,
                shard_rate / global_rate);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_scaling_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
