#include "core/run_budget.h"

namespace mhla::core {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::None: return "none";
    case StopReason::Deadline: return "deadline";
    case StopReason::ProbeBudget: return "probe_budget";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Injected: return "injected";
    case StopReason::NodeCap: return "node_cap";
    case StopReason::CellBudget: return "cell_budget";
  }
  return "none";
}

RunBudget::RunBudget() = default;

RunBudget::RunBudget(const BudgetSpec& spec)
    : max_probes_(spec.max_probes > 0 ? spec.max_probes : 0), cancel_(spec.cancel) {
  unbounded_ = !spec.bounded();
  if (spec.deadline_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(spec.deadline_seconds));
  }
}

void RunBudget::expire(StopReason reason) {
  if (reason == StopReason::None) return;
  StopReason expected = StopReason::None;
  reason_.compare_exchange_strong(expected, reason, std::memory_order_relaxed);
}

bool RunBudget::probe_bounded(long n) {
  long count = probes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (FaultInjector::fire(FaultInjector::Site::BudgetProbe)) {
    expire(StopReason::Injected);
  }
  if (expired()) return false;
  if (max_probes_ > 0 && count > max_probes_) {
    expire(StopReason::ProbeBudget);
    return false;
  }
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    expire(StopReason::Cancelled);
    return false;
  }
  // The clock is a syscall, so only consult it on the first probe and then
  // every 64th; a tight search loop pays pure-arithmetic probes in between.
  if (has_deadline_ && (count <= n || (count & 63) < n) && Clock::now() >= deadline_) {
    expire(StopReason::Deadline);
    return false;
  }
  return true;
}

}  // namespace mhla::core
