#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <locale>
#include <sstream>
#include <thread>
#include <vector>

#include "core/json.h"

namespace mhla::obs {
namespace {

/// Deterministic per-thread value sequence, so the concurrent runs below can
/// be replayed single-threaded into an exact reference model.
std::uint64_t sample(unsigned thread, unsigned i) {
  std::uint64_t x = thread * 2654435761u + i * 40503u;
  x ^= x >> 7;
  return x % 100000;  // spread over ~17 buckets, zeros included
}

TEST(ObsMetrics, CounterUnderContentionMatchesTheArithmetic) {
  constexpr unsigned kThreads = 8;
  constexpr unsigned kAdds = 20000;
  Counter counter;
  Gauge gauge;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (unsigned i = 0; i < kAdds; ++i) {
        counter.add();
        counter.add(2);
        gauge.add(3);
        gauge.sub();
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  EXPECT_EQ(counter.value(), std::uint64_t{kThreads} * kAdds * 3);
  EXPECT_EQ(gauge.value(), std::int64_t{kThreads} * kAdds * 2);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsMetrics, HistogramConcurrentRecordsMatchSingleThreadedReference) {
  constexpr unsigned kThreads = 8;
  constexpr unsigned kRecords = 5000;

  // Reference model: plain arrays, same bucket rule (index = bit width).
  HistogramSnapshot expected;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = 0; i < kRecords; ++i) {
      std::uint64_t v = sample(t, i);
      ++expected.buckets[static_cast<std::size_t>(std::bit_width(v))];
      ++expected.count;
      expected.sum += v;
    }
  }

  Histogram histogram;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&histogram, t] {
      for (unsigned i = 0; i < kRecords; ++i) histogram.record(sample(t, i));
    });
  }
  for (std::thread& worker : pool) worker.join();

  // Writers quiesced: the snapshot must be exactly the reference.
  EXPECT_EQ(histogram.snapshot(), expected);

  histogram.reset();
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(ObsMetrics, HistogramMergeIsAssociativeAndLossless) {
  Histogram ha, hb, hc;
  for (unsigned i = 0; i < 1000; ++i) {
    ha.record(sample(1, i));
    hb.record(sample(2, i));
    hc.record(sample(3, i));
  }
  HistogramSnapshot a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

  HistogramSnapshot left = a;
  left.merge(b);
  left.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left.count, a.count + b.count + c.count);
  EXPECT_EQ(left.sum, a.sum + b.sum + c.sum);
}

TEST(ObsMetrics, HistogramQuantileBoundsBracketTheData) {
  Histogram histogram;
  for (std::uint64_t v = 0; v < 1024; ++v) histogram.record(v);
  HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1024u);
  // Every recorded value is <= 1023; the p99/p100 bucket bound must cover it
  // and the p50 bound must sit near the middle (power-of-two resolution).
  EXPECT_GE(snap.quantile_bound(1.0), 1023u);
  EXPECT_GE(snap.quantile_bound(0.5), 511u);
  EXPECT_LE(snap.quantile_bound(0.5), 1023u);
  EXPECT_EQ(HistogramSnapshot{}.quantile_bound(0.5), 0u);
}

TEST(ObsMetrics, RegistryHandsOutStableCellsAndSortedSnapshots) {
  Registry& registry = Registry::instance();
  registry.reset_all();

  Counter& cell = registry.counter("test.obs.zulu");
  registry.counter("test.obs.alpha").add(7);
  cell.add(5);
  EXPECT_EQ(&cell, &registry.counter("test.obs.zulu"));  // stable reference
  registry.gauge("test.obs.depth").set(-3);
  registry.histogram("test.obs.sizes").record(42);

  MetricsSnapshot snap = registry.snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first);
  }
  auto find_counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(find_counter("test.obs.zulu"), 5u);
  EXPECT_EQ(find_counter("test.obs.alpha"), 7u);

  registry.reset_all();
  MetricsSnapshot cleared = registry.snapshot();
  for (const auto& [name, value] : cleared.counters) {
    // Sources report component-owned cells reset_all does not touch; only
    // the registry-owned rows must be back to zero.
    if (name.rfind("test.obs.", 0) == 0) EXPECT_EQ(value, 0u) << name;
  }
}

TEST(ObsMetrics, RegistrySourcesContributeRowsUntilRemoved) {
  Registry& registry = Registry::instance();
  std::uint64_t id = registry.add_source([](MetricsSnapshot& out) {
    out.counters.emplace_back("test.obs.source_row", 11);
  });
  MetricsSnapshot with = registry.snapshot();
  bool found = false;
  for (const auto& [name, value] : with.counters) {
    found |= name == "test.obs.source_row" && value == 11;
  }
  EXPECT_TRUE(found);

  registry.remove_source(id);
  MetricsSnapshot without = registry.snapshot();
  for (const auto& [name, value] : without.counters) {
    EXPECT_NE(name, "test.obs.source_row");
  }
}

TEST(ObsMetrics, TextAndJsonDumpsAreWellFormed) {
  Registry& registry = Registry::instance();
  registry.reset_all();
  registry.counter("test.obs.dump").add(3);
  registry.gauge("test.obs.level").set(2);
  registry.histogram("test.obs.dist").record(100);

  MetricsSnapshot snap = registry.snapshot();
  std::string text = to_text(snap);
  EXPECT_NE(text.find("test.obs.dump 3"), std::string::npos);
  EXPECT_NE(text.find("test.obs.level 2"), std::string::npos);

  core::Json document = core::Json::parse(to_json(snap));
  EXPECT_EQ(document.at("counters").at("test.obs.dump").integer(), 3);
  EXPECT_EQ(document.at("gauges").at("test.obs.level").integer(), 2);
  EXPECT_EQ(document.at("histograms").at("test.obs.dist").at("count").integer(), 1);
}

TEST(ObsMetrics, TextMeanKeepsTheStreamDefaultSixDigits) {
  // to_text's mean= is the bytes a classic-locale stream prints for a double
  // (6 significant digits), for every magnitude it can take.
  for (std::uint64_t sum : {0ull, 1ull, 7ull, 1000ull, 3703ull, 1234567ull, 98765432109ull}) {
    for (std::uint64_t count : {1ull, 3ull, 7ull}) {
      MetricsSnapshot snap;
      HistogramSnapshot h;
      h.count = count;
      h.sum = sum;
      h.buckets[1] = count;
      snap.histograms = {{"h", h}};
      std::ostringstream expected;
      expected.imbue(std::locale::classic());
      expected << "mean=" << h.mean() << " ";
      EXPECT_NE(to_text(snap).find(expected.str()), std::string::npos)
          << to_text(snap) << " vs " << expected.str();
    }
  }
}

}  // namespace
}  // namespace mhla::obs
