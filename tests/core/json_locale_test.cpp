// Every JSON document the library emits is locale-independent: a host that
// installs a grouping, comma-decimal global locale changes no byte of any
// emitter, and every document still parses.

#include <gtest/gtest.h>

#include <locale>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "core/json_report.h"
#include "explore/cache.h"
#include "explore/corpus.h"
#include "explore/explorer.h"
#include "mem/hierarchy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace mhla {
namespace {

/// "1234567.5" would print as "1,234,567,5" through a stream that follows
/// this locale.
struct GroupingCommaPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a global locale for its lifetime and restores the previous one
/// on the way out, failed assertions included.
class GlobalLocaleGuard {
 public:
  explicit GlobalLocaleGuard(const std::locale& locale) : previous_(std::locale::global(locale)) {}
  ~GlobalLocaleGuard() { std::locale::global(previous_); }
  GlobalLocaleGuard(const GlobalLocaleGuard&) = delete;
  GlobalLocaleGuard& operator=(const GlobalLocaleGuard&) = delete;

 private:
  std::locale previous_;
};

struct Document {
  std::string name;
  std::string text;
  bool json = true;
};

std::vector<Document> emit_every_document() {
  std::vector<Document> docs;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable(true);

  // A traced bnb pipeline run (its "incumbent" instants carry %.17g-style
  // scalars) and a traced exploration (its "wave" spans carry counts).
  core::PipelineConfig config;
  config.strategy = "bnb";
  config.platform.l1_bytes = 4096;
  config.platform.l2_bytes = 65536;
  core::PipelineResult run = core::Pipeline(config).run(apps::build_app("adpcm_coder"));
  run.timings = {{"assign", 1234.5}, {"simulate", 0.125}};
  run.total_seconds = 1234.625;

  xplore::ExplorerConfig explore;
  explore.pipeline.strategy = "greedy";
  explore.l1_axis = {1024, 4096};
  explore.l2_axis = {0, 65536};
  xplore::ResultCache cache;
  xplore::ExploreResult frontier =
      xplore::Explorer(explore).run(apps::build_app("conv_filter"), cache);

  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "incumbent" || event.name == "wave") {
      docs.push_back({"trace args " + event.name, event.args_json});
    }
  }
  tracer.clear();
  tracer.record_complete("job_submit", "serve", 1234567891, 2234567891, "{\"job\": 1234}");
  docs.push_back({"chrome trace", tracer.chrome_trace_json()});
  tracer.enable(false);
  tracer.clear();

  docs.push_back({"sim result", core::to_json(run.points.mhla_te)});
  docs.push_back({"four point", core::to_json("adpcm_coder", run.points)});
  docs.push_back({"pipeline result", core::to_json("adpcm_coder", run)});
  docs.push_back({"tradeoff points", core::to_json(frontier.frontier)});
  docs.push_back({"footprints", core::to_json(run.points.mhla_te.footprints,
                                              mem::make_hierarchy(config.platform))});
  docs.push_back({"config", core::to_json(config)});

  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"pipeline.runs", 1234567}};
  snapshot.gauges = {{"serve.queue_depth", -4096}};
  obs::HistogramSnapshot latency;
  latency.count = 3;
  latency.sum = 3703;  // mean 1234.33
  latency.buckets[11] = 3;
  snapshot.histograms = {{"serve.event_us", latency}};
  docs.push_back({"metrics", obs::to_json(snapshot)});
  docs.push_back({"metrics via core", core::to_json(snapshot)});
  docs.push_back({"metrics text", obs::to_text(snapshot), false});

  docs.push_back({"explore result", xplore::to_json(frontier)});
  xplore::CorpusResult corpus;
  corpus.entries.push_back({"conv_filter", frontier});
  corpus.evaluations = 4096;
  corpus.cache_hits = 1000;
  docs.push_back({"corpus result", xplore::to_json(corpus)});
  docs.push_back({"cache document", cache.to_json()});

  serve::Request request;
  request.command = serve::Command::Explore;
  request.program_text = "program p\n";
  request.config = config;
  request.has_config = true;
  request.job = 1234;
  request.has_job = true;
  request.explore.l1_axis = {1024, 65536};
  request.explore.l2_axis = {0, 262144};
  request.explore.strategies = {"greedy", "bnb"};
  request.explore.seed_stride = 1000;
  request.explore.budget = 2048;
  docs.push_back({"request", serve::to_json(request)});

  xplore::CacheStats stats;
  stats.entries = 4096;
  stats.hits = 123456;
  stats.misses = 7890;
  stats.insertions = 4096;
  stats.saves = 1001;
  serve::ServerMetricsView view;
  view.jobs_accepted = 12345;
  view.jobs_done = 12000;
  view.queue_depth = 1500;
  view.bytes_sent = 9876543;
  view.uptime_seconds = 1234.5;
  view.cache = stats;
  view.latency_us = {{"parse", latency}};
  view.pool_threads_started = 1024;
  view.pool_idle_us = latency;
  view.search_evaluations = 1234567;
  view.search_exact_folds = 12345;
  docs.push_back({"accepted", serve::event_accepted(1234, serve::Command::Submit)});
  docs.push_back({"frontier", serve::event_frontier(1234, frontier)});
  docs.push_back({"done explore", serve::event_done_explore(1234, "done", frontier)});
  docs.push_back({"done submit",
                  serve::event_done_submit(1234, "done", assign::SearchStatus::Optimal, 0.0,
                                           1234567.5, 7654.25, false, 4096,
                                           core::StopReason::None)});
  docs.push_back({"done failed", serve::event_done_failed(1234, "bad program")});
  docs.push_back({"done cancelled", serve::event_done_cancelled(1234)});
  docs.push_back({"status", serve::event_status({{1234, serve::Command::Submit, "running"}})});
  docs.push_back({"cache stats", serve::event_cache_stats(stats)});
  docs.push_back({"metrics event", serve::event_metrics(view)});
  docs.push_back({"stats event", serve::event_stats(view)});
  docs.push_back({"cancelled", serve::event_cancelled(1234, true)});
  docs.push_back({"error", serve::event_error("unknown command")});
  docs.push_back({"shutdown", serve::event_shutdown()});
  return docs;
}

TEST(JsonLocale, EveryEmitterIgnoresTheGlobalLocale) {
  std::vector<Document> classic;
  {
    GlobalLocaleGuard guard(std::locale::classic());
    classic = emit_every_document();
  }
  std::vector<Document> grouped;
  {
    GlobalLocaleGuard guard(std::locale(std::locale::classic(), new GroupingCommaPunct));
    grouped = emit_every_document();
  }
  ASSERT_EQ(classic.size(), grouped.size());
  bool saw_incumbent = false;
  bool saw_wave = false;
  for (std::size_t i = 0; i < classic.size(); ++i) {
    SCOPED_TRACE(classic[i].name);
    ASSERT_EQ(classic[i].name, grouped[i].name);
    EXPECT_EQ(grouped[i].text, classic[i].text);
    if (classic[i].json) {
      EXPECT_NO_THROW(core::Json::parse(grouped[i].text)) << grouped[i].text;
    }
    saw_incumbent = saw_incumbent || classic[i].name == "trace args incumbent";
    saw_wave = saw_wave || classic[i].name == "trace args wave";
  }
  EXPECT_TRUE(saw_incumbent);
  EXPECT_TRUE(saw_wave);
}

}  // namespace
}  // namespace mhla
