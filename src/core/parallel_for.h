#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace mhla::core {

class RunBudget;

/// Number of worker threads `parallel_for` uses when the caller passes 0:
/// the hardware concurrency, with a floor of 1.
unsigned default_parallelism();

/// Run `body(i)` for every i in [0, count) as one `WorkStealingPool` task
/// per index, so exceptions, budget skipping and the `ParallelBody` fault
/// site follow the pool's rules.
///
///  * `num_threads == 0` picks `default_parallelism()`; the pool gets at
///    most `count` workers.  The calling thread is worker 0 (a single
///    worker runs every body on it); the others run on helper threads
///    borrowed from the pool's process-wide cache (see `WorkStealingPool`).
///  * Index i is seeded onto worker i % workers so that each worker runs its
///    own indices in ascending order (a lone worker runs 0, 1, 2, ...); idle
///    workers steal the rest.  Each index runs at most once, so a body that
///    only writes its own index's slot is deterministic for any thread count.
///  * The first exception thrown by any body is rethrown on the calling
///    thread after the pool has drained; bodies not yet started are
///    skipped.
///  * With a `budget`, bodies not yet started once it has expired are
///    skipped; running bodies finish.  The caller decides what a partially
///    covered index space means (e.g. mark the run budget-exhausted).  The
///    budget is observed, never charged.
void parallel_for(std::size_t count, unsigned num_threads,
                  const std::function<void(std::size_t)>& body,
                  RunBudget* budget = nullptr);

/// Lock-free running minimum over doubles, shared by concurrent workers.
///
/// `update` folds a candidate in with a compare-exchange loop; min is
/// commutative and associative, so the final value is the true minimum of
/// every folded candidate regardless of interleaving.  `load` may observe a
/// stale (larger) value mid-run but never a smaller-than-true one, which is
/// exactly the guarantee a parallel branch-and-bound needs from its shared
/// incumbent: pruning against a stale bound is merely less effective, never
/// unsound.  NaN candidates are ignored.
class AtomicMin {
 public:
  explicit AtomicMin(double initial) : value_(initial) {}

  double load() const { return value_.load(std::memory_order_relaxed); }

  /// Returns true if `candidate` became the new minimum.
  bool update(double candidate) {
    double current = value_.load(std::memory_order_relaxed);
    while (candidate < current) {
      if (value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<double> value_;
};

}  // namespace mhla::core
