#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "core/pipeline.h"
#include "obs/metrics.h"

namespace mhla::obs {
namespace {

/// Every trace test owns the process tracer for its duration: clear first
/// (other suites ran pipelines), disable on the way out so the suites after
/// us see the compiled-in default (off).
struct TracerLease {
  TracerLease() {
    Tracer::instance().clear();
    Tracer::instance().enable(true);
  }
  ~TracerLease() {
    Tracer::instance().enable(false);
    Tracer::instance().clear();
    Tracer::instance().set_ring_capacity(Tracer::kDefaultRingCapacity);
  }
};

TEST(ObsTrace, SpansAndInstantsLandInTimestampOrder) {
  TracerLease lease;
  Tracer& tracer = Tracer::instance();
  {
    Span outer("outer", "test");
    Span inner("inner", "test");
    inner.set_args("{\"k\": 1}");
    tracer.instant("mark", "test");
  }
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  bool saw_args = false, saw_instant = false;
  for (const TraceEvent& event : events) {
    if (event.name == "inner") saw_args = event.args_json == "{\"k\": 1}";
    if (event.name == "mark") saw_instant = event.phase == 'i';
  }
  EXPECT_TRUE(saw_args);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, RingOverflowDropsOldestAndCountsTheLoss) {
  TracerLease lease;
  Tracer& tracer = Tracer::instance();
  tracer.set_ring_capacity(8);
  // This thread's ring may predate the capacity change; record on a fresh
  // thread whose ring is created under the new capacity.
  std::thread([&tracer] {
    for (int i = 0; i < 20; ++i) {
      tracer.record_complete("e" + std::to_string(i), "test", static_cast<std::uint64_t>(i),
                             static_cast<std::uint64_t>(i + 1));
    }
  }).join();
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // The survivors are the 8 *newest* events, still in order.
  EXPECT_EQ(events.front().name, "e12");
  EXPECT_EQ(events.back().name, "e19");
}

TEST(ObsTrace, DisabledTracerBuffersNothing) {
  TracerLease lease;
  Tracer& tracer = Tracer::instance();
  tracer.enable(false);
  {
    Span span("ghost", "test");
    tracer.instant("ghost_mark", "test");
    EXPECT_GE(span.seconds(), 0.0);  // timing works regardless
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTrace, ChromeTraceJsonParsesAndCarriesPipelineSpans) {
  TracerLease lease;

  core::PipelineConfig config;
  core::PipelineResult result = core::Pipeline(config).run(apps::build_app("conv_filter"));
  ASSERT_GT(result.total_seconds, 0.0);

  core::Json document = core::Json::parse(Tracer::instance().chrome_trace_json());
  const auto& events = document.at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  std::vector<std::string> stages;
  bool search_internal = false;
  for (const core::Json& event : events) {
    const std::string& name = event.at("name").string();
    const std::string& phase = event.at("ph").string();
    EXPECT_TRUE(phase == "X" || phase == "i") << phase;
    EXPECT_GE(event.at("ts").number(), 0.0);
    if (phase == "X") EXPECT_GE(event.at("dur").number(), 0.0);
    if (event.at("cat").string() == "pipeline") stages.push_back(name);
    if (event.at("cat").string() == "search") search_internal = true;
  }
  // Every pipeline stage spans the timeline, plus at least one
  // search-internal span (the strategy's walk).
  for (const char* stage : {"analyze", "assign", "time_extend", "simulate"}) {
    EXPECT_NE(std::find(stages.begin(), stages.end(), stage), stages.end()) << stage;
  }
  EXPECT_TRUE(search_internal);
}

TEST(ObsTrace, TracingNeverChangesResults) {
  // The hard gate of the whole subsystem: instrumentation observes, it never
  // steers.  Run the same configs with tracing off and on; every simulated
  // number and the chosen assignment must be bit-identical.
  struct Case {
    const char* app;
    const char* strategy;
  };
  const Case cases[] = {
      {"conv_filter", "greedy"},
      {"adpcm_coder", "bnb"},
      {"wavelet", "anneal"},
  };
  for (const Case& c : cases) {
    core::PipelineConfig config;
    config.strategy = c.strategy;

    Tracer::instance().enable(false);
    core::PipelineResult off = core::Pipeline(config).run(apps::build_app(c.app));

    core::PipelineResult on;
    {
      TracerLease lease;
      on = core::Pipeline(config).run(apps::build_app(c.app));
      EXPECT_FALSE(Tracer::instance().events().empty());
    }

    EXPECT_EQ(on.search.scalar, off.search.scalar) << c.app << "/" << c.strategy;
    EXPECT_TRUE(on.search.assignment == off.search.assignment) << c.app << "/" << c.strategy;
    EXPECT_EQ(on.points.mhla_te.total_cycles(), off.points.mhla_te.total_cycles());
    EXPECT_EQ(on.points.mhla_te.energy_nj, off.points.mhla_te.energy_nj);
    EXPECT_EQ(on.points.mhla.total_cycles(), off.points.mhla.total_cycles());
    EXPECT_EQ(on.search.states_explored, off.search.states_explored);
    EXPECT_EQ(on.search.evaluations, off.search.evaluations);
  }
}

TEST(ObsTrace, BnbParTelemetryIsRecordedOncePerSearchEitherWay) {
  // bnb-par records its scheduler telemetry — tasks run per search into the
  // search.bnb_tasks histogram, steals into the search.bnb_steals counter —
  // exactly once per search, whether tracing is on or off, and the optimum
  // stays bit-identical across the two.
  auto bnb_tasks = [] {
    MetricsSnapshot snapshot = Registry::instance().snapshot();
    for (const auto& [name, histogram] : snapshot.histograms) {
      if (name == "search.bnb_tasks") return histogram;
    }
    return HistogramSnapshot{};
  };
  auto has_steals_counter = [] {
    MetricsSnapshot snapshot = Registry::instance().snapshot();
    return std::any_of(snapshot.counters.begin(), snapshot.counters.end(),
                       [](const auto& row) { return row.first == "search.bnb_steals"; });
  };
  core::PipelineConfig config;
  config.strategy = "bnb-par";
  config.search.bnb_threads = 4;

  Tracer::instance().enable(false);
  HistogramSnapshot before = bnb_tasks();
  core::PipelineResult off = core::Pipeline(config).run(apps::build_app("cavity_detection"));
  HistogramSnapshot after_off = bnb_tasks();
  EXPECT_EQ(after_off.count, before.count + 1);
  EXPECT_GE(after_off.sum, before.sum + 1);  // at least the root task ran
  EXPECT_TRUE(has_steals_counter());

  core::PipelineResult on;
  {
    TracerLease lease;
    on = core::Pipeline(config).run(apps::build_app("cavity_detection"));
  }
  EXPECT_EQ(bnb_tasks().count, after_off.count + 1);
  EXPECT_EQ(on.search.scalar, off.search.scalar);
  EXPECT_TRUE(on.search.assignment == off.search.assignment);
}

TEST(ObsTrace, ConcurrentRecordingFromManyThreadsIsLosslessUnderCapacity) {
  TracerLease lease;
  Tracer& tracer = Tracer::instance();
  constexpr unsigned kThreads = 8;
  constexpr unsigned kEach = 200;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer] {
      for (unsigned i = 0; i < kEach; ++i) {
        Span span("work", "test");
        (void)span;
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  // Per-thread rings at default capacity: nothing dropped, every span kept,
  // and the export is one consistent sorted stream.
  EXPECT_EQ(tracer.events().size(), std::size_t{kThreads} * kEach);
  core::Json document = core::Json::parse(tracer.chrome_trace_json());
  EXPECT_EQ(document.at("traceEvents").array().size(), std::size_t{kThreads} * kEach);
}

}  // namespace
}  // namespace mhla::obs
