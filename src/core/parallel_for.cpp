#include "core/parallel_for.h"

#include <algorithm>
#include <thread>

#include "core/work_stealing.h"

namespace mhla::core {

unsigned default_parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, unsigned num_threads,
                  const std::function<void(std::size_t)>& body, RunBudget* budget) {
  if (count == 0) return;
  if (num_threads == 0) num_threads = default_parallelism();
  WorkStealingPool pool(static_cast<unsigned>(std::min<std::size_t>(num_threads, count)));
  // Index i goes to worker i % n, seeded last-first: each worker pops its
  // own deque LIFO, so it runs its indices in ascending order.
  const unsigned n = pool.num_workers();
  for (std::size_t i = count; i-- > 0;) {
    pool.spawn(static_cast<unsigned>(i % n), [&body, i](unsigned) { body(i); });
  }
  pool.run(budget);
}

}  // namespace mhla::core
