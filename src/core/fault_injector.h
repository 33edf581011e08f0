#pragma once

#include <stdexcept>
#include <string>

namespace mhla::core {

/// Error thrown by a fault-injected failure point.  Distinct from the
/// production error types so tests can assert that a failure came from the
/// injector and not from a real defect.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what) : std::runtime_error(what) {}
};

/// Deterministic process-wide fault-injection hook layer.
///
/// Production code calls `fire(site)` at each failure point it wants to be
/// testable; the call is a single relaxed atomic load while no site is
/// armed, so shipping the hooks costs nothing measurable.  A test arms a
/// site with `arm(site, nth)` and the injector fires on exactly the nth
/// subsequent hit (1-based, one-shot): the nth `IoWrite` hit makes
/// `ResultCache::save` fail mid-write, the nth `BudgetProbe` hit expires a
/// `RunBudget` with `StopReason::Injected`, the nth `ParallelBody` hit
/// throws `FaultInjectedError` out of a `WorkStealingPool` task (one task
/// per `parallel_for` index, and every branch-and-bound task, including the
/// single task of a one-worker "bnb" search).  Because the trigger is a hit
/// count, not a timer or a random draw, every injected failure is
/// reproducible run to run.
///
/// The registry is process-global (the hooks live in hot paths that cannot
/// thread a handle), so tests that arm sites must not run concurrently
/// with each other; the suite keeps them in one test binary.  Prefer
/// `ScopedFault` over raw arm/disarm so a failing assertion cannot leak an
/// armed site into later tests.
class FaultInjector {
 public:
  enum class Site : int {
    IoWrite = 0,       ///< persistence write/flush/rename steps
    BudgetProbe = 1,   ///< RunBudget::probe
    ParallelBody = 2,  ///< WorkStealingPool task run
  };
  static constexpr int kNumSites = 3;

  /// Arm `site` to fire on its `nth` hit from now (1-based).  Re-arming
  /// resets the hit count.  `nth <= 0` disarms.
  static void arm(Site site, long nth);

  /// Disarm `site`; its hit count keeps the value it had.
  static void disarm(Site site);

  /// Disarm every site and zero all hit counts.
  static void reset();

  /// Production hook: record a hit at `site` and return true iff the site
  /// is armed and this hit is the one it was armed for.
  static bool fire(Site site);

  /// Hits recorded at `site` since it was last armed (or reset).  Lets a
  /// test count the hits of a clean run, then re-run with a fault at each
  /// k in [1, hits].
  static long hits(Site site);
};

/// Arms a site for the current scope and disarms it on exit, so a throwing
/// assertion cannot leave the process-global injector armed.
class ScopedFault {
 public:
  ScopedFault(FaultInjector::Site site, long nth) : site_(site) {
    FaultInjector::arm(site, nth);
  }
  ~ScopedFault() { FaultInjector::disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultInjector::Site site_;
};

}  // namespace mhla::core
