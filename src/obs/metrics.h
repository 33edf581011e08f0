#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mhla::obs {

/// Monotonic event count.  `add` is a single relaxed fetch-add — safe from
/// any thread, never a synchronization point, and cheap enough that a
/// per-run flush (accumulate locally, add once at the end) keeps hot loops
/// untouched entirely.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections, frontier size).
/// Signed so a transient add/sub imbalance under concurrency reads as a
/// negative blip instead of wrapping to 2^64.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d = 1) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d = 1) { value_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Mergeable point-in-time view of a Histogram.  Bucket `i` counts the
/// values whose bit width is `i`: bucket 0 holds exactly the zeros, bucket
/// i >= 1 holds [2^(i-1), 2^i).  Power-of-two buckets make the merge a
/// bucket-wise sum — associative and lossless (no re-binning ever).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void merge(const HistogramSnapshot& other);

  double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }

  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]); 0 on an
  /// empty histogram.  Exact to within the power-of-two bucket resolution.
  std::uint64_t quantile_bound(double q) const;

  friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

/// Histogram over power-of-two buckets.  `record` is three relaxed
/// fetch-adds (bucket, count, sum) — no locks.  A snapshot taken while
/// writers are still running is a consistent-enough view (each bucket read
/// is atomic); tests quiesce writers first for exact counts.
class Histogram {
 public:
  void record(std::uint64_t value);
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Everything the registry knows at one instant, sorted by name within each
/// kind.  Sources (below) contribute rows the same way the registry's own
/// instruments do, so one snapshot is the single source of truth across
/// owned and external counters.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Human-readable dump (one `name value` line per row, histograms with
/// count/mean/p50/p99 bounds).
std::string to_text(const MetricsSnapshot& snapshot);

/// JSON dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
/// Embeddable in any result document (core::to_json forwards here so report
/// assemblers stay obs-agnostic); parses with core/json.
std::string to_json(const MetricsSnapshot& snapshot, int indent = 0);

/// Process-wide metrics registry.  Instruments are created on first use and
/// never destroyed (stable references: cache the result of `counter()` at a
/// call site and `add` forever).  Components that keep their own counters as
/// the source of truth — the result cache's counters, the job
/// queue's depth — register a *source*: a callback that appends rows to
/// every snapshot, so `snapshot()` reports owned and external instruments
/// through one door without double counting.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  using Source = std::function<void(MetricsSnapshot&)>;
  std::uint64_t add_source(Source source);
  void remove_source(std::uint64_t id);

  MetricsSnapshot snapshot() const;

  /// Zero every owned instrument (sources are untouched).  Test isolation
  /// only — production code never resets.
  void reset_all();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::uint64_t, Source> sources_;
  std::uint64_t next_source_ = 1;
};

}  // namespace mhla::obs
