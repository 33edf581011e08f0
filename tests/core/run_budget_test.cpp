// RunBudget's inline probe: on a token no knob can expire, with no fault
// site armed, a probe only counts.  The count stays exact across threads,
// an expiry from outside still stops it, and a fault armed after the token
// was built fires on exactly the probe it names.

#include "core/run_budget.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/fault_injector.h"

namespace mhla::core {
namespace {

TEST(RunBudget, SharedUnboundedTokenCountsEveryProbe) {
  // Unbounded tokens are shared across parallel workers (bnb-par), so the
  // fast path keeps the atomic increment.
  RunBudget budget;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(budget.probe());
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(budget.probes(), 40'000);
  EXPECT_FALSE(budget.expired());
}

TEST(RunBudget, UnboundedTokenStopsOnAnExternalExpiry) {
  RunBudget budget(BudgetSpec{});
  EXPECT_TRUE(budget.probe());
  budget.expire(StopReason::Cancelled);
  EXPECT_FALSE(budget.probe());
  EXPECT_EQ(budget.probes(), 2);
  EXPECT_EQ(budget.reason(), StopReason::Cancelled);
}

TEST(RunBudget, ArmingAfterConstructionFiresOnTheNthProbe) {
  RunBudget budget;
  EXPECT_TRUE(budget.probe());  // nothing armed: counted, no fault hit
  ScopedFault fault(FaultInjector::Site::BudgetProbe, 5);
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(budget.probe()) << "probe " << i;
  EXPECT_EQ(FaultInjector::hits(FaultInjector::Site::BudgetProbe), 4);
  EXPECT_FALSE(budget.probe());
  EXPECT_EQ(budget.reason(), StopReason::Injected);
  EXPECT_FALSE(budget.probe());  // expiry is one-way
  EXPECT_EQ(budget.probes(), 7);
}

}  // namespace
}  // namespace mhla::core
