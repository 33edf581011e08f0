#include "core/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mhla::core {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) h.store(0);
    parallel_for(hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 16, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  parallel_for(hits.size(), 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsIndicesInAscendingOrder) {
  // The pool pops a worker's own deque last-in first-out, so the indices
  // are seeded last-first: a lone worker still visits 0, 1, 2, ...
  std::vector<std::size_t> order;
  parallel_for(37, 1, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> ascending(37);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(order, ascending);
}

TEST(ParallelFor, DeterministicSlotWrites) {
  std::vector<int> serial(64), parallel(64);
  parallel_for(serial.size(), 1, [&](std::size_t i) { serial[i] = static_cast<int>(i * i); });
  parallel_for(parallel.size(), 4, [&](std::size_t i) { parallel[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(32, 4,
                   [&](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, DefaultParallelismIsPositive) { EXPECT_GE(default_parallelism(), 1u); }

}  // namespace
}  // namespace mhla::core
