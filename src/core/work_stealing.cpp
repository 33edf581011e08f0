#include "core/work_stealing.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/fault_injector.h"
#include "core/run_budget.h"

namespace mhla::core {

namespace {

/// Joins every joinable thread on scope exit: a throwing emplace_back
/// mid-spawn must not destruct an unjoined thread.
class ThreadJoiner {
 public:
  explicit ThreadJoiner(std::vector<std::thread>& threads) : threads_(threads) {}
  ~ThreadJoiner() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  ThreadJoiner(const ThreadJoiner&) = delete;
  ThreadJoiner& operator=(const ThreadJoiner&) = delete;

 private:
  std::vector<std::thread>& threads_;
};

}  // namespace

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

void WorkStealingPool::worker_loop(unsigned worker) {
  Task task;
  for (;;) {
    if (!try_pop(worker, task) && !try_steal(worker, task)) {
      if (pending_.load(std::memory_order_acquire) == 0) return;
      // Starved but tasks are still in flight elsewhere: sleep until a
      // spawn or the final finish.  Both notify under sleep_mu_, so no wakeup
      // is lost; the timeout is only a backstop.
      std::unique_lock<std::mutex> lock(sleep_mu_);
      idle_.fetch_add(1, std::memory_order_relaxed);
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return queued_.load(std::memory_order_relaxed) > 0 ||
               pending_.load(std::memory_order_acquire) == 0;
      });
      idle_.fetch_sub(1, std::memory_order_relaxed);
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
        ++queues_[worker]->tasks_run;
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
    std::vector<std::thread> threads;
    threads.reserve(num_workers_);
    {
      ThreadJoiner joiner(threads);
      for (unsigned w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w] { worker_loop(w); });
      }
    }
  }
  if (error_) std::rethrow_exception(error_);
  return skipped_.load(std::memory_order_relaxed);
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
