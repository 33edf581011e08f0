#include "core/fault_injector.h"

namespace mhla::core {
namespace {

struct SiteState {
  std::atomic<long> nth{0};  ///< 0 = disarmed
  std::atomic<long> hits{0};
};

SiteState g_sites[FaultInjector::kNumSites];

SiteState& state(FaultInjector::Site site) {
  return g_sites[static_cast<int>(site)];
}

}  // namespace

void FaultInjector::arm(Site site, long nth) {
  if (nth <= 0) {
    disarm(site);
    return;
  }
  SiteState& s = state(site);
  s.hits.store(0, std::memory_order_relaxed);
  if (s.nth.exchange(nth, std::memory_order_relaxed) == 0) {
    armed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FaultInjector::disarm(Site site) {
  if (state(site).nth.exchange(0, std::memory_order_relaxed) != 0) {
    armed_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::reset() {
  for (int i = 0; i < kNumSites; ++i) {
    disarm(static_cast<Site>(i));
    g_sites[i].hits.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::fire(Site site) {
  if (!any_armed()) return false;
  SiteState& s = state(site);
  long nth = s.nth.load(std::memory_order_relaxed);
  if (nth == 0) return false;
  return s.hits.fetch_add(1, std::memory_order_relaxed) + 1 == nth;
}

long FaultInjector::hits(Site site) {
  return state(site).hits.load(std::memory_order_relaxed);
}

}  // namespace mhla::core
