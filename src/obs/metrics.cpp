#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "core/json.h"

namespace mhla::obs {

using core::json_escape;
using core::json_pad;

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

std::uint64_t HistogramSnapshot::quantile_bound(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      if (i == 0) return 0;
      if (i >= 64) return ~std::uint64_t{0};
      return (std::uint64_t{1} << i) - 1;  // inclusive upper bound of bucket i
    }
  }
  return ~std::uint64_t{0};
}

void Histogram::record(std::uint64_t value) {
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::uint64_t Registry::add_source(Source source) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t id = next_source_++;
  sources_.emplace(id, std::move(source));
  return id;
}

void Registry::remove_source(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.erase(id);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::vector<Source> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) out.counters.emplace_back(name, counter->value());
    for (const auto& [name, gauge] : gauges_) out.gauges.emplace_back(name, gauge->value());
    for (const auto& [name, histogram] : histograms_) {
      out.histograms.emplace_back(name, histogram->snapshot());
    }
    for (const auto& [id, source] : sources_) sources.push_back(source);
  }
  // Sources run outside the registry lock: they read component-owned
  // counters and may themselves take component locks (the result cache's mutex).
  for (const Source& source : sources) source(out);
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->set(0);
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::string to_text(const MetricsSnapshot& snapshot) {
  core::JsonText out;
  for (const auto& [name, value] : snapshot.counters) out << name << " " << value << "\n";
  for (const auto& [name, value] : snapshot.gauges) out << name << " " << value << "\n";
  for (const auto& [name, h] : snapshot.histograms) {
    // mean= keeps the stream default: 6 significant digits.
    out << name << " count=" << h.count << " mean=" << core::format_general(h.mean(), 6)
        << " p50<=" << h.quantile_bound(0.5) << " p99<=" << h.quantile_bound(0.99) << "\n";
  }
  return out.take();
}

std::string to_json(const MetricsSnapshot& snapshot, int indent) {
  core::JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  std::string p2 = json_pad(indent + 2);
  out << p0 << "{\n";
  out << p1 << "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i ? "," : "") << "\n" << p2 << "\"" << json_escape(snapshot.counters[i].first)
        << "\": " << snapshot.counters[i].second;
  }
  out << (snapshot.counters.empty() ? "" : "\n" + p1) << "},\n";
  out << p1 << "\"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i ? "," : "") << "\n" << p2 << "\"" << json_escape(snapshot.gauges[i].first)
        << "\": " << snapshot.gauges[i].second;
  }
  out << (snapshot.gauges.empty() ? "" : "\n" + p1) << "},\n";
  out << p1 << "\"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i].second;
    out << (i ? "," : "") << "\n" << p2 << "\"" << json_escape(snapshot.histograms[i].first)
        << "\": {\"count\": " << h.count
        << ", \"sum\": " << h.sum << ", \"p50\": " << h.quantile_bound(0.5)
        << ", \"p99\": " << h.quantile_bound(0.99) << "}";
  }
  out << (snapshot.histograms.empty() ? "" : "\n" + p1) << "}\n";
  out << p0 << "}";
  return out.take();
}

}  // namespace mhla::obs
