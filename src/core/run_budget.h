#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "core/fault_injector.h"

namespace mhla::core {

/// Why a run stopped early, the one vocabulary of every early stop.  Where
/// an expired `RunBudget` and a count cap both bound, the budget's wins.
enum class StopReason {
  None,         ///< nothing bound
  Deadline,     ///< wall-clock deadline passed
  ProbeBudget,  ///< cooperative probe allowance spent
  Cancelled,    ///< external cancel flag raised
  Injected,     ///< fault injector forced an expiry (tests only)
  NodeCap,      ///< exact search spent `max_states` nodes on a worker
  CellBudget,   ///< Explorer sampled its `budget` of cells
};

/// Snake-case wire name ("none", "node_cap", "probe_budget", ...).
std::string to_string(StopReason reason);

/// Serializable knobs of a cooperative run budget.  Part of
/// `assign::SearchOptions` (JSON keys "deadline_seconds"/"max_probes" in the
/// "search" object), so a config document can bound any search; the cancel
/// flag is a live process object and deliberately never serialized.
struct BudgetSpec {
  /// Wall-clock allowance in seconds, counted from RunBudget construction;
  /// <= 0 means no deadline.
  double deadline_seconds = 0.0;

  /// Cooperative probe allowance (every engine charges one probe per unit
  /// of work: a search state, a scored candidate, an annealing iteration, a
  /// TE freedom unit); <= 0 means unlimited.
  long max_probes = 0;

  /// External cancel flag: the budget expires as soon as the flag is set.
  /// Shared so a controller thread can hold the flag while any number of
  /// budgeted runs observe it.
  std::shared_ptr<std::atomic<bool>> cancel;

  /// True when any knob can make the budget expire.  Drivers use this to
  /// decide whether a run needs one shared token across its stages.
  bool bounded() const {
    return deadline_seconds > 0.0 || max_probes > 0 || cancel != nullptr;
  }

  friend bool operator==(const BudgetSpec&, const BudgetSpec&) = default;
};

/// Cooperative cancellation / deadline / probe-budget token.
///
/// One RunBudget is threaded through a whole run — search, time extension,
/// batch, exploration — and every engine calls `probe()` at each unit of
/// work.  The first probe past the allowance (or past the deadline, or
/// after the cancel flag rises) marks the budget expired; every later probe
/// on any thread observes the expiry, so a parallel run drains promptly.
/// Expiry is sticky and one-way: a budget never un-expires.
///
/// Thread-safe throughout.  With no knob set and no fault site armed,
/// `probe()` is an inline relaxed atomic increment plus the expiry read;
/// otherwise the wall clock is only consulted every 64th probe, so tight
/// search loops do not pay a syscall per state.
///
/// The fault injector's `BudgetProbe` site hooks `probe()`: an armed
/// injector forces expiry at the Nth probe with reason
/// `StopReason::Injected`, which is how the fault-injection suite exercises
/// every engine's degradation path deterministically.
class RunBudget {
 public:
  /// Unlimited budget: probes count but never expire (the fault injector
  /// can still force an expiry).
  RunBudget();

  /// Budget per `spec`; the deadline clock starts now.
  explicit RunBudget(const BudgetSpec& spec);

  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  /// Charge `n` units of work.  Returns true while the budget holds;
  /// returns false — forever after — once it has expired.
  bool probe(long n = 1) {
    if (unbounded_ && !FaultInjector::any_armed()) {
      probes_.fetch_add(n, std::memory_order_relaxed);
      return !expired();
    }
    return probe_bounded(n);
  }

  /// Non-charging expiry check (used between waves / before claiming work).
  bool expired() const {
    return reason_.load(std::memory_order_relaxed) != StopReason::None;
  }

  /// Why the budget expired; StopReason::None while it holds.
  StopReason reason() const { return reason_.load(std::memory_order_relaxed); }

  /// Expire the budget now (default reason Cancelled).  Idempotent: the
  /// first reason recorded wins.
  void expire(StopReason reason = StopReason::Cancelled);

  /// Probes charged so far.
  long probes() const { return probes_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  bool probe_bounded(long n);  ///< `probe` with a knob set or a site armed

  std::atomic<StopReason> reason_{StopReason::None};
  std::atomic<long> probes_{0};
  long max_probes_ = 0;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::shared_ptr<std::atomic<bool>> cancel_;
  bool unbounded_ = true;  ///< no knob can expire the budget
};

/// The budget token a strategy charges: the caller's `shared` token wins;
/// else `local` is built from `spec`, even an unbounded one, so the fault
/// injector's BudgetProbe site is live on every run.
inline RunBudget* resolve_budget(const BudgetSpec& spec, RunBudget* shared,
                                 std::optional<RunBudget>& local) {
  return shared ? shared : &local.emplace(spec);
}

}  // namespace mhla::core
