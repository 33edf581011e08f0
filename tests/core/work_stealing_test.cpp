#include "core/work_stealing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "assign/search.h"
#include "core/fault_injector.h"
#include "core/run_budget.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mhla::core {
namespace {

/// Spin (yielding) until `ready` holds or ten seconds pass; false on the
/// timeout, so a broken pool fails the test instead of hanging it.
template <typename Ready>
bool wait_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

std::uint64_t idle_samples() {
  return obs::Registry::instance().histogram("core.pool_idle_us").snapshot().count;
}

TEST(WorkStealing, RunsEverySeededTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    WorkStealingPool pool(threads);
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) h.store(0);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      pool.spawn(static_cast<unsigned>(i) % pool.num_workers(),
                 [&hits, i](unsigned) { hits[i].fetch_add(1); });
    }
    EXPECT_EQ(pool.run(), 0u) << "threads " << threads;
    EXPECT_EQ(pool.tasks_run(), static_cast<long>(hits.size())) << "threads " << threads;
    EXPECT_LE(pool.steals(), pool.tasks_run()) << "threads " << threads;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(WorkStealing, NestedSpawnsAllRunBeforeRunReturns) {
  // A binary spawn tree four levels deep: run() must not return while any
  // spawned descendant is pending, whichever worker stole it.
  for (unsigned threads : {1u, 4u}) {
    WorkStealingPool pool(threads);
    std::atomic<int> executed{0};
    std::function<void(unsigned, int)> node = [&](unsigned worker, int depth) {
      executed.fetch_add(1);
      if (depth == 0) return;
      for (int child = 0; child < 2; ++child) {
        pool.spawn(worker, [&node, depth](unsigned w) { node(w, depth - 1); });
      }
    };
    pool.spawn(0, [&node](unsigned w) { node(w, 4); });
    EXPECT_EQ(pool.run(), 0u);
    EXPECT_EQ(executed.load(), 31) << "threads " << threads;  // 2^5 - 1
  }
}

TEST(WorkStealing, SingleWorkerRunsInlineDeterministically) {
  // With one worker the calling thread drains its own deque LIFO — a plain
  // depth-first loop, no threads, so spawn order fully determines run order.
  WorkStealingPool pool(1);
  std::vector<int> order;
  pool.spawn(0, [&](unsigned) {
    order.push_back(0);
    pool.spawn(0, [&](unsigned) { order.push_back(1); });
    pool.spawn(0, [&](unsigned) { order.push_back(2); });
  });
  EXPECT_EQ(pool.run(), 0u);
  // LIFO: the last spawn of the root task runs first.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(WorkStealing, FirstExceptionPropagatesAndPeersAreSkipped) {
  for (unsigned threads : {1u, 4u}) {
    WorkStealingPool pool(threads);
    std::atomic<int> ran{0};
    pool.spawn(0, [](unsigned) { throw std::runtime_error("boom"); });
    for (int i = 0; i < 64; ++i) {
      pool.spawn(0, [&ran](unsigned) { ran.fetch_add(1); });
    }
    EXPECT_THROW(pool.run(), std::runtime_error) << "threads " << threads;
    // Tasks claimed before the failure still ran; none ran after being
    // skipped, so executed + skipped covers the whole spawn set.  With one
    // worker the throwing task runs LAST (LIFO), so nothing is skipped;
    // the invariant, not an exact skip count, is what the pool promises.
    EXPECT_LE(ran.load(), 64);
  }
}

TEST(WorkStealing, ExpiredBudgetSkipsUnclaimedTasks) {
  BudgetSpec spec;
  spec.cancel = std::make_shared<std::atomic<bool>>(false);
  RunBudget budget(spec);
  budget.expire();  // expired before the pool even starts
  WorkStealingPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.spawn(0, [&ran](unsigned) { ran.fetch_add(1); });
  }
  EXPECT_EQ(pool.run(&budget), 32u);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.tasks_run(), 0);  // skipped tasks are not counted as run
}

TEST(WorkStealing, StarvingReflectsQueueDepth) {
  WorkStealingPool pool(4);
  EXPECT_TRUE(pool.starving());  // empty pool: any task should split
  pool.spawn(0, [](unsigned) {});
  EXPECT_FALSE(pool.starving());  // one queued task is reserve enough
  pool.spawn(1, [](unsigned) {});
  EXPECT_FALSE(pool.starving());
  EXPECT_EQ(pool.run(), 0u);
  EXPECT_TRUE(pool.starving());  // drained again
}

TEST(WorkStealing, StressManyUnevenTasksAcrossWorkers) {
  // Uneven split-on-demand load: every task spawns a shrinking chain, so
  // queues drain at different rates and stealing must rebalance.  The sum
  // over all executed chain lengths is the checkable invariant.
  WorkStealingPool pool(4);
  std::atomic<long> total{0};
  std::function<void(unsigned, int)> chain = [&](unsigned worker, int n) {
    total.fetch_add(n);
    if (n > 1) pool.spawn(worker, [&chain, n](unsigned w) { chain(w, n - 1); });
  };
  const int kChains = 64;
  long expected = 0;
  for (int n = 1; n <= kChains; ++n) {
    expected += static_cast<long>(n) * (n + 1) / 2;  // 1 + 2 + ... + n
    pool.spawn(static_cast<unsigned>(n) % pool.num_workers(),
               [&chain, n](unsigned w) { chain(w, n); });
  }
  EXPECT_EQ(pool.run(), 0u);
  EXPECT_EQ(total.load(), expected);
}

TEST(WorkStealing, BackToBackRunsReuseTheirHelpers) {
  // The caller is worker 0 and the helpers come from the process-wide
  // cache, so 100 runs start at most the first run's three threads (none if
  // an earlier test already grew the cache).  Every run records one idle
  // sample per worker that joined it, the caller at least.
  const std::uint64_t started = WorkStealingPool::helper_threads_started();
  for (int run = 0; run < 100; ++run) {
    WorkStealingPool pool(4);
    std::atomic<int> ran{0};
    for (unsigned w = 0; w < pool.num_workers(); ++w) {
      pool.spawn(w, [&ran](unsigned) { ran.fetch_add(1); });
    }
    const std::uint64_t samples = idle_samples();
    ASSERT_EQ(pool.run(), 0u);
    ASSERT_EQ(ran.load(), 4);
    const std::uint64_t recorded = idle_samples() - samples;
    ASSERT_GE(recorded, 1u);
    ASSERT_LE(recorded, 4u);
  }
  EXPECT_LE(WorkStealingPool::helper_threads_started() - started, 3u);

  // A one-worker run borrows nothing and records nothing.
  const std::uint64_t samples = idle_samples();
  WorkStealingPool alone(1);
  alone.spawn(0, [](unsigned) {});
  EXPECT_EQ(alone.run(), 0u);
  EXPECT_EQ(idle_samples(), samples);
}

TEST(WorkStealing, TracedBnbParSearchesShareOneTrackPerWorker) {
  // Tracer rings are per thread.  The caller is worker 0 and the second
  // search borrows the same three helpers the first gave back, so two
  // traced 4-worker searches write at most four tracks between them.  When
  // every search started its own four threads, each added up to four new
  // tracks (a traced 10 s exact_search run wrote 116).
  auto ws = testing::make_ws(testing::guard64_program(), testing::guard64_platform());
  assign::SearchOptions options;
  options.bnb_threads = 4;
  obs::Tracer& tracer = obs::Tracer::instance();
  auto traced_search = [&] {
    obs::Span span("test_search", "test");  // the caller's own track
    return assign::searcher("bnb-par").search(ws->context(), options);
  };
  auto tids = [&tracer] {
    std::set<int> out;
    for (const obs::TraceEvent& event : tracer.events()) out.insert(event.tid);
    return out;
  };
  tracer.clear();
  tracer.enable(true);
  assign::SearchResult first = traced_search();
  std::set<int> first_tids = tids();
  assign::SearchResult second = traced_search();
  std::set<int> both_tids = tids();
  tracer.enable(false);
  tracer.clear();

  EXPECT_EQ(first.scalar, second.scalar);
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_GE(first_tids.size(), 1u);
  EXPECT_LE(both_tids.size(), 4u) << "first search alone: " << first_tids.size();
}

TEST(WorkStealing, ThousandsOfBackToBackRunsRevokeUnclaimedHelpers) {
  // One trivial task: the caller usually drains it before any helper
  // claims its post, so most runs take the revoke path; the rest wait for
  // a helper that claimed late to leave the run.
  for (int run = 0; run < 2000; ++run) {
    WorkStealingPool pool(4);
    std::atomic<int> ran{0};
    pool.spawn(0, [&ran](unsigned) { ran.fetch_add(1); });
    ASSERT_EQ(pool.run(), 0u) << "run " << run;
    ASSERT_EQ(ran.load(), 1) << "run " << run;
    ASSERT_EQ(pool.tasks_run(), 1) << "run " << run;
  }
}

TEST(WorkStealing, ConcurrentRunsGrowTheCacheAndStayBitIdentical) {
  auto ws = testing::make_ws(testing::guard64_program(), testing::guard64_platform());
  const assign::SearchResult serial = assign::searcher("bnb").search(ws->context(), {});

  // Two 4-worker bnb-par searches at once, each on its own thread.
  assign::SearchResult results[2];
  {
    std::atomic<int> ready{0};
    auto search = [&](int i) {
      ready.fetch_add(1);
      wait_until([&] { return ready.load() == 2; });
      assign::SearchOptions options;
      options.bnb_threads = 4;
      results[i] = assign::searcher("bnb-par").search(ws->context(), options);
    };
    std::thread a(search, 0);
    std::thread b(search, 1);
    a.join();
    b.join();
  }
  for (const assign::SearchResult& result : results) {
    EXPECT_EQ(result.status, serial.status);
    EXPECT_EQ(result.scalar, serial.scalar);
    EXPECT_EQ(result.assignment, serial.assignment);
  }

  // Two runs that provably overlap: each holds its first task open until
  // the other run is inside a task too, and a run borrows its helpers
  // before it runs any task, so six helpers are out at once.
  std::atomic<int> inside{0};
  auto overlapping_run = [&inside] {
    WorkStealingPool pool(4);
    pool.spawn(0, [&inside](unsigned) {
      inside.fetch_add(1);
      wait_until([&inside] { return inside.load() == 2; });
    });
    pool.run();
  };
  std::thread a(overlapping_run);
  std::thread b(overlapping_run);
  a.join();
  b.join();
  EXPECT_EQ(inside.load(), 2);
  EXPECT_GE(WorkStealingPool::helper_threads_started(), 6u);
}

TEST(WorkStealing, FaultOnAHelperIsRethrownAndTheHelpersServeTheNextRun) {
  // Each helper pops its own deque first, so it takes its decoy and holds
  // it until the gate has started; nobody but the caller can then take the
  // gate from deque 0.  Once all three decoys run, the gate spawns one task
  // onto its own deque and waits until that task has been claimed — by a
  // helper, since the caller is inside the gate.  Hits 1-4 of the armed
  // ParallelBody site are the gate and the decoys, so hit 5, the spawned
  // task, throws on a helper.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id gate_thread;
  std::atomic<bool> gate_started{false};
  std::atomic<int> decoys_started{0};
  {
    WorkStealingPool pool(4);
    pool.spawn(0, [&](unsigned worker) {
      gate_thread = std::this_thread::get_id();
      gate_started.store(true);
      wait_until([&] { return decoys_started.load() == 3; });
      pool.spawn(worker, [](unsigned) {});
      wait_until([] { return FaultInjector::hits(FaultInjector::Site::ParallelBody) >= 5; });
    });
    for (unsigned w = 1; w < pool.num_workers(); ++w) {
      pool.spawn(w, [&](unsigned) {
        decoys_started.fetch_add(1);
        wait_until([&] { return gate_started.load(); });
      });
    }
    ScopedFault fault(FaultInjector::Site::ParallelBody, 5);
    EXPECT_THROW(pool.run(), FaultInjectedError);
    EXPECT_EQ(FaultInjector::hits(FaultInjector::Site::ParallelBody), 5);
  }
  EXPECT_EQ(gate_thread, caller);
  EXPECT_EQ(decoys_started.load(), 3);

  // The next run needs all four workers at once: each task waits until all
  // four have started, which only four distinct threads can do.  It starts
  // no thread: the helpers that ran the faulted task serve it.
  const std::uint64_t started = WorkStealingPool::helper_threads_started();
  WorkStealingPool pool(4);
  std::atomic<int> started_tasks{0};
  std::atomic<int> met{0};
  for (unsigned w = 0; w < pool.num_workers(); ++w) {
    pool.spawn(w, [&](unsigned) {
      started_tasks.fetch_add(1);
      if (wait_until([&] { return started_tasks.load() == 4; })) met.fetch_add(1);
    });
  }
  EXPECT_EQ(pool.run(), 0u);
  EXPECT_EQ(met.load(), 4);
  EXPECT_EQ(WorkStealingPool::helper_threads_started(), started);
}

}  // namespace
}  // namespace mhla::core
