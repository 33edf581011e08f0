#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench.h"

namespace mhla::ebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void Samples::push_back(double value) {
  if (seen_ < kCapacity) {
    kept_[seen_] = value;
  } else {
    rng_ ^= rng_ << 13;  // xorshift64
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t slot = rng_ % (seen_ + 1);
    if (slot < kCapacity) kept_[slot] = value;
  }
  ++seen_;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string hex_double(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

const Report::Metric* Report::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

unsigned pinned_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

}  // namespace mhla::ebench
