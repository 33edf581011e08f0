#include "core/work_stealing.h"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "core/fault_injector.h"
#include "core/run_budget.h"
#include "obs/metrics.h"

namespace mhla::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Spin budgets of the two spin-then-block waits (Karlin et al., "Empirical
/// studies of competitive spinning for a shared-memory multiprocessor",
/// SOSP 1991): spin about as long as blocking would cost, then block.  A
/// helper between runs spins long enough to cover the gap between the
/// back-to-back searches of an exploration (waking a parked helper costs
/// tens of µs, handing a run to a spinning one under 1 µs); a worker
/// without a task spins briefly before it sleeps on the pool.
constexpr std::chrono::microseconds kHelperSpin{150};
constexpr std::chrono::microseconds kIdleSpin{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `ready` with a `pause` between polls for at most `budget`; true as
/// soon as it holds.
template <typename Ready>
bool spin_until(Ready&& ready, std::chrono::microseconds budget) {
  const Clock::time_point deadline = Clock::now() + budget;
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (Clock::now() >= deadline) return ready();
  }
}

}  // namespace

/// The process-wide helper threads behind workers 1..n-1 of every
/// multi-worker run.  A run borrows helpers, posts each one a worker index,
/// and gives them back after the drain; the cache starts a thread only when
/// every helper it has is out, so it holds as many threads as the peak
/// number borrowed at once.  Helpers live until the process exits, when the
/// cache stops and joins them.
class WorkStealingPool::HelperCache {
 public:
  /// One helper thread and its one-slot post box.  The slot moves
  /// kIdle -> kPosted (the run posts a worker) -> kClaimed (the helper takes
  /// it) -> kDone (the helper has left `worker_loop`) -> kIdle (the run
  /// takes it back), or kPosted -> kIdle when the run revokes a post nobody
  /// claimed before the drain.
  class Helper {
   public:
    Helper() : thread_([this] { serve(); }) {}
    ~Helper() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_.store(true, std::memory_order_relaxed);
      }
      cv_.notify_one();
      thread_.join();
    }
    Helper(const Helper&) = delete;
    Helper& operator=(const Helper&) = delete;

    /// Have this helper run `pool->worker_loop(worker)`.
    void post(WorkStealingPool* pool, unsigned worker) {
      pool_ = pool;  // published by the release store of kPosted
      worker_ = worker;
      bool wake = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        state_.store(kPosted, std::memory_order_release);
        wake = parked_;
      }
      if (wake) cv_.notify_one();
    }

    /// Called once the run has drained: revoke the post with one CAS if the
    /// helper has not claimed it, else wait until it has left the run, so
    /// it never touches the pool again.
    void retire() {
      int expected = kPosted;
      if (state_.compare_exchange_strong(expected, kIdle, std::memory_order_relaxed)) return;
      // Claimed: with nothing pending the helper is on its way out.
      while (state_.load(std::memory_order_acquire) != kDone) std::this_thread::yield();
      state_.store(kIdle, std::memory_order_relaxed);
    }

   private:
    enum : int { kIdle, kPosted, kClaimed, kDone };

    void serve() {
      auto posted = [this] {
        return state_.load(std::memory_order_acquire) == kPosted ||
               stop_.load(std::memory_order_relaxed);
      };
      for (;;) {
        if (!spin_until(posted, kHelperSpin)) {
          // Every change that makes `posted` true is made under mu_.
          std::unique_lock<std::mutex> lock(mu_);
          parked_ = true;
          cv_.wait(lock, posted);
          parked_ = false;
        }
        if (stop_.load(std::memory_order_relaxed)) return;
        int expected = kPosted;
        if (state_.compare_exchange_strong(expected, kClaimed, std::memory_order_acquire)) {
          pool_->worker_loop(worker_);
          state_.store(kDone, std::memory_order_release);
        }
      }
    }

    WorkStealingPool* pool_ = nullptr;  ///< read by the helper only after its claim
    unsigned worker_ = 0;
    std::atomic<int> state_{kIdle};
    std::atomic<bool> stop_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    bool parked_ = false;  ///< guarded by mu_
    std::thread thread_;   ///< last: starts after every member it reads
  };

  static HelperCache& instance() {
    static HelperCache cache;
    return cache;
  }

  /// Up to `count` helpers: free ones first, then newly started ones.  Fewer
  /// when the system refuses another thread; the run's stealing covers the
  /// unstaffed workers.
  std::vector<Helper*> borrow(std::size_t count) {
    std::vector<Helper*> out;
    out.reserve(count);
    std::lock_guard<std::mutex> lock(mu_);
    while (out.size() < count && !free_.empty()) {
      out.push_back(free_.back());
      free_.pop_back();
    }
    try {
      while (out.size() < count) {
        free_.reserve(helpers_.size() + 1);  // so give_back never allocates
        helpers_.push_back(std::make_unique<Helper>());
        out.push_back(helpers_.back().get());
      }
    } catch (const std::exception&) {
      // No new thread (std::system_error) or no memory: run with fewer.
    }
    return out;
  }

  /// Return helpers in reverse borrow order, so the next run borrows the
  /// same threads in the same order.
  void give_back(const std::vector<Helper*>& helpers) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = helpers.rbegin(); it != helpers.rend(); ++it) free_.push_back(*it);
  }

  /// Threads started so far; the cache never shrinks.
  std::uint64_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return helpers_.size();
  }

 private:
  // Reported as a registry source, so `reset_all` cannot zero a count of
  // threads that still exist.  Registered once every member exists; the
  // registry, constructed before the cache is, also outlives it.
  HelperCache() {
    source_ = obs::Registry::instance().add_source([this](obs::MetricsSnapshot& out) {
      out.counters.emplace_back("core.pool_threads_started", size());
    });
  }
  // Unhook the source; then each Helper stops and joins its thread.
  ~HelperCache() { obs::Registry::instance().remove_source(source_); }

  std::uint64_t source_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<Helper>> helpers_;  ///< guarded by mu_
  std::vector<Helper*> free_;                     ///< guarded by mu_; LIFO
};

WorkStealingPool::WorkStealingPool(unsigned num_threads)
    : num_workers_(num_threads > 0 ? num_threads : 1) {
  queues_.reserve(num_workers_);
  for (unsigned w = 0; w < num_workers_; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
}

WorkStealingPool::~WorkStealingPool() = default;

void WorkStealingPool::spawn(unsigned worker, Task task) {
  // pending before the push: a worker that drains the deque between the
  // push and the increment would otherwise observe pending == 0 and exit
  // with this task still queued.
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    WorkerQueue& queue = *queues_[worker % num_workers_];
    std::lock_guard<std::mutex> lock(queue.mu);
    queue.tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_relaxed);
  // Check for sleepers and notify under sleep_mu_: a worker registers as
  // idle, checks its wake predicate and starts waiting while holding the
  // mutex, so it either sees this task queued or is already waiting when
  // the notify lands — never in between.
  std::lock_guard<std::mutex> lock(sleep_mu_);
  if (idle_.load(std::memory_order_relaxed) > 0) sleep_cv_.notify_one();
}

bool WorkStealingPool::try_pop(unsigned worker, Task& out) {
  WorkerQueue& queue = *queues_[worker];
  std::lock_guard<std::mutex> lock(queue.mu);
  if (queue.tasks.empty()) return false;
  out = std::move(queue.tasks.back());  // own deque: LIFO, depth-first
  queue.tasks.pop_back();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool WorkStealingPool::try_steal(unsigned thief, Task& out) {
  for (unsigned offset = 1; offset < num_workers_; ++offset) {
    WorkerQueue& victim = *queues_[(thief + offset) % num_workers_];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    out = std::move(victim.tasks.front());  // victim: FIFO, largest subtree
    victim.tasks.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    ++queues_[thief]->steals;
    return true;
  }
  return false;
}

void WorkStealingPool::finish_task() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task down: wake every sleeper so the pool can drain out (under
    // sleep_mu_ for the same reason as in spawn).
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
}

void WorkStealingPool::wait_for_work(WorkerQueue& own) {
  const Clock::time_point start = Clock::now();
  idle_.fetch_add(1, std::memory_order_relaxed);
  auto ready = [this] {
    return queued_.load(std::memory_order_relaxed) > 0 ||
           pending_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(ready, kIdleSpin)) {
    // Sleep until a spawn or the final finish.  Both notify under
    // sleep_mu_ after making `ready` true, so no wakeup is lost; the
    // timeout is only a backstop.
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(1), ready);
  }
  idle_.fetch_sub(1, std::memory_order_relaxed);
  own.idle_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

void WorkStealingPool::worker_loop(unsigned worker) noexcept {
  WorkerQueue& own = *queues_[worker];
  own.joined = true;
  Task task;
  for (;;) {
    if (!try_pop(worker, task) && !try_steal(worker, task)) {
      if (pending_.load(std::memory_order_acquire) == 0) return;
      // Starved but tasks are still in flight elsewhere.
      wait_for_work(own);
      continue;
    }
    // Claim-then-check keeps the drain path trivial: once the budget has
    // expired or a peer has thrown, every worker keeps claiming tasks and
    // discards them unrun until the pool is empty.
    bool skip = failed_.load(std::memory_order_relaxed) ||
                (budget_ && budget_->expired());
    if (skip) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        if (FaultInjector::fire(FaultInjector::Site::ParallelBody)) {
          throw FaultInjectedError("work_stealing: injected fault in task");
        }
        task(worker);
        ++own.tasks_run;
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu_);
          if (!error_) error_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    task = nullptr;  // release captures before sleeping on an empty pool
    finish_task();
  }
}

std::size_t WorkStealingPool::run(RunBudget* budget) {
  budget_ = budget;
  if (num_workers_ <= 1) {
    worker_loop(0);
  } else {
    // The caller is worker 0; helpers staff the rest.  A helper may join
    // late or never: all of its worker's tasks can be stolen.
    HelperCache& cache = HelperCache::instance();
    std::vector<HelperCache::Helper*> helpers = cache.borrow(num_workers_ - 1);
    for (std::size_t i = 0; i < helpers.size(); ++i) {
      helpers[i]->post(this, static_cast<unsigned>(i + 1));
    }
    worker_loop(0);
    for (HelperCache::Helper* helper : helpers) helper->retire();
    cache.give_back(helpers);
    record_idle();
  }
  if (error_) std::rethrow_exception(error_);
  return skipped_.load(std::memory_order_relaxed);
}

void WorkStealingPool::record_idle() const {
  static obs::Histogram& idle_us = obs::Registry::instance().histogram("core.pool_idle_us");
  for (const auto& queue : queues_) {
    if (queue->joined) idle_us.record(queue->idle_ns / 1000);
  }
}

std::uint64_t WorkStealingPool::helper_threads_started() {
  return HelperCache::instance().size();
}

long WorkStealingPool::tasks_run() const {
  long total = 0;
  for (const auto& queue : queues_) total += queue->tasks_run;
  return total;
}

long WorkStealingPool::steals() const {
  long total = 0;
  for (const auto& queue : queues_) total += queue->steals;
  return total;
}

}  // namespace mhla::core
