#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace mhla::core {

class RunBudget;

/// A pool of workers draining per-worker deques of tasks, with on-demand
/// stealing — the one thread pool of the library: it runs the
/// branch-and-bound search ("bnb" with one worker, "bnb-par" with many),
/// whose subtrees are far too uneven to split up front, and every
/// `core::parallel_for` (one task per index).
///
/// Each worker owns one lock-striped deque: it pushes and pops its own tasks
/// LIFO (depth-first, cache-warm), and steals from a victim's deque FIFO
/// when its own runs dry — the oldest task of a busy worker is the
/// shallowest, i.e. the largest stolen subtree.  Tasks may `spawn` further
/// tasks at any point; `starving()` is the cheap hint a task consults to
/// decide whether splitting itself up is worth the bookkeeping (it is true
/// while some worker is hunting for work or the queues are empty).
///
/// Threads: the calling thread is worker 0.  Workers 1..n-1 run on helper
/// threads borrowed from one lazily started, process-wide cache that no run
/// owns: `run` creates no thread unless more helpers are borrowed at once
/// than ever before, so the process holds as many helpers as its peak
/// concurrent demand and keeps them until exit.  A helper that finishes a
/// run spins briefly for the next post before it parks, and a worker that
/// finds no task spins briefly before it sleeps, so back-to-back runs of a
/// few milliseconds pay neither a thread start nor a wake-up.  Every task
/// can be stolen by any worker, so a helper that claims its post late, or
/// not at all (once the run has drained, an unclaimed post is revoked; a
/// run the system refuses a new thread goes ahead with fewer helpers),
/// costs parallelism, never a task.
///
/// Semantics:
///
///  * `run` blocks until every task (seeded and spawned) has finished and
///    every helper that joined the run has left it, then returns the number
///    of tasks *skipped*.  Tasks are skipped — claimed and discarded unrun —
///    once the budget has expired or a peer task has thrown; already-running
///    tasks always run to completion.  A zero return means complete
///    coverage.
///  * The first exception thrown by any task is rethrown on the calling
///    thread after the pool has drained; the remaining tasks are skipped.
///  * With `num_threads <= 1` the calling thread runs every task itself (no
///    helper is borrowed), so a single-worker run is an ordinary
///    deterministic loop.
///  * The budget is observed, never charged — tasks that want to spend
///    probes do so themselves.
///  * The fault injector's `ParallelBody` site fires once per task run: an
///    armed injector makes the Nth task throw `FaultInjectedError`, which
///    then follows the exception path above.
///  * Telemetry: the `core.pool_threads_started` counter counts the helper
///    threads the cache has started, and each multi-worker run records one
///    `core.pool_idle_us` sample per worker that joined it (µs spent
///    without a task), from per-worker plain fields like `tasks_run`.
///
/// The pool makes no ordering promise between tasks: callers needing a
/// deterministic reduction must make their per-task results order-free
/// (the branch-and-bound search keys its incumbents by canonical path for
/// exactly this reason).
class WorkStealingPool {
 public:
  /// A unit of work; receives the index of the worker executing it, which
  /// is also the only valid `spawn` target for tasks it creates.
  using Task = std::function<void(unsigned worker)>;

  explicit WorkStealingPool(unsigned num_threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned num_workers() const { return num_workers_; }

  /// Push a task onto `worker`'s deque.  Called with the executing worker's
  /// own index from inside tasks, or with any index to seed the pool before
  /// `run`.  Thread-safe.
  void spawn(unsigned worker, Task task);

  /// True while some worker is idle or no task is queued anywhere — the
  /// moment a task should offload subtrees it would otherwise recurse into.
  /// One queued task is reserve enough: a deeper reserve is mostly popped
  /// back by the worker that spawned it, paying the split for nothing.  Two
  /// relaxed loads per call; a stale verdict merely splits a little earlier
  /// or later than ideal.
  bool starving() const {
    return idle_.load(std::memory_order_relaxed) > 0 ||
           queued_.load(std::memory_order_relaxed) == 0;
  }

  /// Drain the pool: run every seeded and spawned task, return the number
  /// skipped (see class comment).  Call once per pool instance.
  std::size_t run(RunBudget* budget = nullptr);

  /// Tasks executed (not skipped) and successful steals over the whole
  /// `run`.  Each worker counts into its own plain fields, summed here, so
  /// the scheduler pays no shared atomic per task; read only after `run`.
  long tasks_run() const;
  long steals() const;

  /// Helper threads the process-wide cache has started so far (it never
  /// shrinks, so this is also the number it holds); the registry reports
  /// it as the `core.pool_threads_started` counter.
  static std::uint64_t helper_threads_started();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
    long tasks_run = 0;         ///< written by the owning worker only
    long steals = 0;            ///< written by the owning worker only
    std::uint64_t idle_ns = 0;  ///< written by the owning worker only
    bool joined = false;        ///< written by the owning worker only
  };

  class HelperCache;  ///< the process-wide helper threads (work_stealing.cpp)

  bool try_pop(unsigned worker, Task& out);
  bool try_steal(unsigned thief, Task& out);
  void worker_loop(unsigned worker) noexcept;
  void wait_for_work(WorkerQueue& own);
  void finish_task();
  void record_idle() const;

  unsigned num_workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<long> pending_{0};  ///< spawned but not yet finished/skipped
  std::atomic<long> queued_{0};   ///< sitting in a deque right now
  std::atomic<unsigned> idle_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::size_t> skipped_{0};
  RunBudget* budget_ = nullptr;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace mhla::core
