#ifndef _WIN32

#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "core/pipeline.h"
#include "core/work_stealing.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace mhla::serve {
namespace {

using core::Json;

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// One protocol connection against a Server under test.
class TestClient {
 public:
  /// Longest wait for one event.  A missing event fails the test (the read
  /// throws) instead of blocking the suite forever.
  static constexpr int kReceiveTimeoutSeconds = 60;

  explicit TestClient(int port)
      : socket_(connect_to("127.0.0.1", port)), reader_(socket_) {
    timeval timeout{};
    timeout.tv_sec = kReceiveTimeoutSeconds;
    if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) != 0) {
      throw std::runtime_error("cannot set the test socket's receive timeout");
    }
  }

  void send(const Request& request) { ASSERT_TRUE(write_line(socket_, to_json(request))); }
  void send_raw(const std::string& line) { ASSERT_TRUE(write_line(socket_, line)); }

  /// Next event object; fails the test on EOF or after
  /// `kReceiveTimeoutSeconds` without one.
  Json next() {
    std::string line;
    if (!reader_.read_line(line)) throw std::runtime_error("server closed the connection");
    return Json::parse(line);
  }

  /// Skip events until one named `name` arrives (a frontier stream may be
  /// interleaved before the terminal event).  An unexpected `error` event
  /// fails immediately — waiting past it would block forever.
  Json next_named(const std::string& name) {
    for (;;) {
      Json event = next();
      const std::string& got = event.at("event").string();
      if (got == name) return event;
      if (got == "error") {
        throw std::runtime_error("server error while waiting for '" + name +
                                 "': " + event.at("message").string());
      }
    }
  }

 private:
  Socket socket_;
  LineReader reader_;
};

Request submit_request(const ir::Program& program) {
  Request request;
  request.command = Command::Submit;
  request.program_text = ir::serialize(program);
  request.config.platform = mhla::testing::small_platform();
  request.has_config = true;
  return request;
}

/// The state `status` reports for `job` ("" when unknown).
std::string job_state(TestClient& client, std::uint64_t job) {
  Request status;
  status.command = Command::Status;
  status.job = job;
  status.has_job = true;
  client.send(status);
  const Json report = client.next_named("status");
  const Json::Array& rows = report.at("jobs").array();
  return rows.empty() ? "" : rows[0].at("state").string();
}

/// One phase of a `metrics` event's latency_us object.
const Json& latency(const Json& metrics, const std::string& phase) {
  return metrics.at("latency_us").at(phase);
}

Request explore_request(const ir::Program& program) {
  Request request;
  request.command = Command::Explore;
  request.program_text = ir::serialize(program);
  request.config.platform = mhla::testing::small_platform();
  request.has_config = true;
  request.explore.l1_axis = {128, 256, 512, 1024, 2048};
  request.explore.l2_axis = {0, 8192};
  return request;
}

/// A submit whose exact search runs far longer than any test waits:
/// mpeg2_encoder with a 256 B L1, where capacity binds (2e9 nodes are
/// still not enough; about a minute on a 4-vCPU VM), with the node cap
/// effectively removed, so only a cancel or the `deadline_seconds`
/// backstop (which keeps a broken cancel from hanging the suite) ends it.
Request long_exact_search(double deadline_seconds) {
  Request request;
  request.command = Command::Submit;
  request.program_text = ir::serialize(apps::build_app("mpeg2_encoder"));
  request.config.platform.l1_bytes = 256;
  request.config.strategy = "bnb";
  request.config.search.max_states = 2'000'000'000L;
  request.config.search.budget.deadline_seconds = deadline_seconds;
  request.has_config = true;
  return request;
}

TEST(Server, SubmitColdThenWarmFromCache) {
  Server server({});
  TestClient client(server.port());

  Request request = submit_request(mhla::testing::tiny_stream_program());
  client.send(request);
  Json accepted = client.next_named("accepted");
  EXPECT_EQ(accepted.at("command").string(), "submit");

  Json cold = client.next_named("done");
  EXPECT_EQ(cold.at("kind").string(), "submit");
  EXPECT_EQ(cold.at("state").string(), "done");
  EXPECT_FALSE(cold.at("from_cache").boolean());
  EXPECT_EQ(cold.at("evaluations").integer(), 1);
  EXPECT_GT(cold.at("cycles").number(), 0.0);

  // The warm re-submit must be answered from the concurrent cache with
  // zero pipeline evaluations and the identical measured pair.
  client.send(request);
  client.next_named("accepted");
  Json warm = client.next_named("done");
  EXPECT_EQ(warm.at("state").string(), "done");
  EXPECT_TRUE(warm.at("from_cache").boolean());
  EXPECT_EQ(warm.at("evaluations").integer(), 0);
  EXPECT_EQ(warm.at("cycles").number(), cold.at("cycles").number());
  EXPECT_EQ(warm.at("energy_nj").number(), cold.at("energy_nj").number());
  EXPECT_EQ(warm.at("status").string(), cold.at("status").string());
  EXPECT_EQ(warm.at("stop").string(), "none");
}

TEST(Server, ExploreStreamsFrontierEventsAndWarmReplayEvaluatesNothing) {
  Server server({});
  TestClient client(server.port());

  Request request = explore_request(mhla::testing::blocked_reuse_program());
  client.send(request);
  client.next_named("accepted");

  // At least one incremental frontier event must precede the terminal done.
  std::size_t frontier_events = 0;
  Json done;
  for (;;) {
    Json event = client.next();
    const std::string& name = event.at("event").string();
    if (name == "frontier") {
      ++frontier_events;
      EXPECT_FALSE(event.at("frontier").array().empty());
    } else if (name == "done") {
      done = std::move(event);
      break;
    }
  }
  EXPECT_GE(frontier_events, 1u);
  EXPECT_EQ(done.at("kind").string(), "explore");
  EXPECT_EQ(done.at("state").string(), "done");
  EXPECT_EQ(done.at("stop").string(), "none");
  EXPECT_GT(done.at("evaluations").integer(), 0);
  EXPECT_GT(done.at("frontier_size").integer(), 0);

  // Warm replay: the identical exploration answered entirely from cache.
  client.send(request);
  client.next_named("accepted");
  Json warm = client.next_named("done");
  EXPECT_EQ(warm.at("evaluations").integer(), 0);
  EXPECT_EQ(warm.at("cache_hits").integer(), warm.at("samples").integer());
  EXPECT_EQ(warm.at("frontier_size").integer(), done.at("frontier_size").integer());

  // A submit of one explored cell is answered from the explore-warmed cache.
  Request submit = submit_request(mhla::testing::blocked_reuse_program());
  submit.config.platform.l1_bytes = 1024;
  submit.config.platform.l2_bytes = 8192;
  client.send(submit);
  client.next_named("accepted");
  Json cross = client.next_named("done");
  EXPECT_TRUE(cross.at("from_cache").boolean());
  EXPECT_EQ(cross.at("evaluations").integer(), 0);
}

TEST(Server, SubmitWarmsTheCellOfALaterExplore) {
  Server server({});
  TestClient client(server.port());

  Request submit = submit_request(mhla::testing::blocked_reuse_program());
  submit.config.platform.l1_bytes = 1024;
  submit.config.platform.l2_bytes = 8192;
  client.send(submit);
  client.next_named("accepted");
  Json cold = client.next_named("done");
  EXPECT_FALSE(cold.at("from_cache").boolean());

  // The exploration's lattice holds the submitted cell and nothing else, so
  // its frontier is that cell, and it must come from the submit's entry.
  Request explore = explore_request(mhla::testing::blocked_reuse_program());
  explore.explore.l1_axis = {1024};
  explore.explore.l2_axis = {8192};
  client.send(explore);
  client.next_named("accepted");
  Json frontier = client.next_named("frontier");
  Json done = client.next_named("done");
  EXPECT_EQ(done.at("state").string(), "done");
  EXPECT_EQ(done.at("evaluations").integer(), 0);
  EXPECT_EQ(done.at("cache_hits").integer(), 1);
  ASSERT_EQ(frontier.at("frontier").array().size(), 1u);
  const Json& point = frontier.at("frontier").array()[0];
  EXPECT_EQ(point.at("cycles").number(), cold.at("cycles").number());
  EXPECT_EQ(point.at("energy_nj").number(), cold.at("energy_nj").number());

  // A wider exploration serves the same cell from cache and evaluates the rest.
  client.send(explore_request(mhla::testing::blocked_reuse_program()));
  client.next_named("accepted");
  Json wide = client.next_named("done");
  EXPECT_EQ(wide.at("cache_hits").integer(), 1);
  EXPECT_EQ(wide.at("evaluations").integer(), wide.at("samples").integer() - 1);
}

TEST(Server, SubmitWhoseTePassTheBudgetCutIsReportedAndNotCached) {
  Server server({});
  TestClient client(server.port());

  Request request;
  request.command = Command::Submit;
  request.program_text = ir::serialize(apps::build_app("conv_filter"));
  request.has_config = true;
  auto ws = core::make_workspace(apps::build_app("conv_filter"), request.config.platform,
                                 request.config.dma);
  const core::PipelineResult full = core::Pipeline(request.config).run(*ws);

  // A probe allowance one past the search's own probes cuts the TE pass.
  Request budgeted = request;
  budgeted.config.search.budget.max_probes =
      mhla::testing::search_probes(*ws, request.config) + 1;
  client.send(budgeted);
  client.next_named("accepted");
  Json cut = client.next_named("done");
  EXPECT_EQ(cut.at("state").string(), "done");
  EXPECT_EQ(cut.at("status").string(), "budget_exhausted");
  EXPECT_EQ(cut.at("stop").string(), "probe_budget");
  EXPECT_NE(cut.at("cycles").number(), full.points.mhla_te.total_cycles());
  EXPECT_EQ(server.cache().stats().entries, 0u);

  // The budget is not part of the key, so only the guard kept the truncated
  // point out: the unbudgeted submit must evaluate and return the full value.
  client.send(request);
  client.next_named("accepted");
  Json whole = client.next_named("done");
  EXPECT_FALSE(whole.at("from_cache").boolean());
  EXPECT_EQ(whole.at("status").string(), assign::to_string(full.search.status));
  EXPECT_EQ(whole.at("cycles").number(), full.points.mhla_te.total_cycles());
  EXPECT_EQ(whole.at("energy_nj").number(), full.points.mhla_te.energy_nj);
}

TEST(Server, ExploreOfAnInvalidProgramFailsWithTheValidationMessageLikeASubmit) {
  Server server({});
  TestClient client(server.port());

  // Parses fine, but reads `a[i + 1000]` of a 16-element array.
  ir::ProgramBuilder pb("bad_access");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {ir::av("i") + ir::ac(1000)});
  pb.end_loop();
  const ir::Program program = pb.finish();

  for (const Request& request : {submit_request(program), explore_request(program)}) {
    client.send(request);
    client.next_named("accepted");
    Json done = client.next_named("done");
    EXPECT_EQ(done.at("state").string(), "failed");
    const std::string& message = done.at("message").string();
    EXPECT_NE(message.find("failed validation"), std::string::npos) << message;
    EXPECT_NE(message.find("outside [0, 15]"), std::string::npos) << message;
  }
  EXPECT_EQ(server.metrics_view().jobs_failed, 2u);
  EXPECT_EQ(server.cache().stats().entries, 0u);
}

TEST(Server, CancelMidFlightEndsBudgetExhaustedWithCertifiedGap) {
  ServerConfig config;
  Server server(config);
  TestClient client(server.port());

  // A genuinely long-running exact search: only the cancel (or the 60 s
  // deadline backstop) can stop it.
  Request request = long_exact_search(60.0);

  const auto start = std::chrono::steady_clock::now();
  client.send(request);
  Json accepted = client.next_named("accepted");
  const std::uint64_t job = static_cast<std::uint64_t>(accepted.at("job").integer());

  // Let the search get past its root bound, then cancel from a second
  // connection (cancel must work across connections).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  TestClient canceller(server.port());
  Request cancel;
  cancel.command = Command::Cancel;
  cancel.job = job;
  cancel.has_job = true;
  canceller.send(cancel);
  Json ack = canceller.next_named("cancelled");
  EXPECT_TRUE(ack.at("found").boolean());

  Json done = client.next_named("done");
  EXPECT_EQ(done.at("state").string(), "cancelled");
  EXPECT_EQ(done.at("status").string(), "budget_exhausted");
  EXPECT_EQ(done.at("stop").string(), "cancelled");
  EXPECT_GE(done.at("gap").number(), 0.0) << "an exact engine must certify its gap";
  EXPECT_FALSE(done.at("from_cache").boolean());

  // If the cancel had not reached the search, only the 60 s deadline could
  // have ended it — so a prompt finish is the proof the cancel bound.
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 30.0) << "job only ended via the deadline backstop, not the cancel";

  // A budget-truncated result must not have poisoned the cache: the same
  // submit without the cancel must actually evaluate.
  EXPECT_EQ(server.cache().stats().entries, 0u);
}

TEST(Server, JobStateFollowsTheStopReason) {
  // A job is cancelled exactly when its stop is the cancel: a node-capped
  // search and a cell-budgeted explore stopped early too, but they finished.
  // fft_filter's exact search runs past the default node cap.
  Server server({});
  TestClient client(server.port());

  Request capped;
  capped.command = Command::Submit;
  capped.program_text = ir::serialize(apps::build_app("fft_filter"));
  capped.config.strategy = "bnb";
  capped.has_config = true;
  client.send(capped);
  client.next_named("accepted");
  Json done = client.next_named("done");
  EXPECT_EQ(done.at("state").string(), "done");
  EXPECT_EQ(done.at("status").string(), "budget_exhausted");
  ASSERT_EQ(done.at("stop").string(), "node_cap") << "the node cap no longer binds";

  Request sampled = explore_request(mhla::testing::blocked_reuse_program());
  sampled.explore.budget = 3;
  client.send(sampled);
  client.next_named("accepted");
  Json frontier = client.next_named("frontier");
  EXPECT_EQ(frontier.at("stop").string(), "cell_budget");
  done = client.next_named("done");
  EXPECT_EQ(done.at("state").string(), "done");
  EXPECT_EQ(done.at("stop").string(), "cell_budget");
  EXPECT_EQ(done.at("samples").integer(), 3);

  // One exact cell that only the cancel (or the 60 s backstop) can end.
  Request long_running = explore_request(apps::build_app("mpeg2_encoder"));
  long_running.config = long_exact_search(60.0).config;
  long_running.explore.l1_axis = {long_running.config.platform.l1_bytes};
  long_running.explore.l2_axis = {long_running.config.platform.l2_bytes};
  client.send(long_running);
  Json accepted = client.next_named("accepted");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  TestClient canceller(server.port());
  Request cancel;
  cancel.command = Command::Cancel;
  cancel.job = static_cast<std::uint64_t>(accepted.at("job").integer());
  cancel.has_job = true;
  canceller.send(cancel);
  EXPECT_TRUE(canceller.next_named("cancelled").at("found").boolean());
  done = client.next_named("done");
  EXPECT_EQ(done.at("state").string(), "cancelled");
  EXPECT_EQ(done.at("stop").string(), "cancelled");

  const ServerMetricsView view = server.metrics_view();
  EXPECT_EQ(view.jobs_done, 2u);
  EXPECT_EQ(view.jobs_cancelled, 1u);
  EXPECT_EQ(view.jobs_accepted, view.jobs_done + view.jobs_failed + view.jobs_cancelled);
}

TEST(Server, StatusAndCacheStatsReportJobsAndCounters) {
  Server server({});
  TestClient client(server.port());

  client.send(submit_request(mhla::testing::producer_consumer_program()));
  Json accepted = client.next_named("accepted");
  client.next_named("done");

  Request status;
  status.command = Command::Status;
  client.send(status);
  Json report = client.next_named("status");
  ASSERT_EQ(report.at("jobs").array().size(), 1u);
  const Json& row = report.at("jobs").array()[0];
  EXPECT_EQ(row.at("job").integer(), accepted.at("job").integer());
  EXPECT_EQ(row.at("command").string(), "submit");
  EXPECT_EQ(row.at("state").string(), "done");

  Request stats;
  stats.command = Command::CacheStats;
  client.send(stats);
  Json counters = client.next_named("cache_stats");
  EXPECT_EQ(counters.at("entries").integer(), 1);
  EXPECT_GE(counters.at("insertions").integer(), 1);
}

TEST(Server, MetricsVerbReportsJobQueueCacheAndConnectionCounters) {
  Server server({});
  TestClient client(server.port());

  // Cold submit then warm re-submit: one evaluation, one cache hit.
  Request request = submit_request(mhla::testing::tiny_stream_program());
  client.send(request);
  client.next_named("done");
  client.send(request);
  client.next_named("done");

  Request metrics;
  metrics.command = Command::Metrics;
  client.send(metrics);
  Json view = client.next_named("metrics");
  EXPECT_EQ(view.at("jobs_accepted").integer(), 2);
  EXPECT_EQ(view.at("jobs_done").integer(), 2);
  EXPECT_EQ(view.at("jobs_failed").integer(), 0);
  EXPECT_EQ(view.at("queue_depth").integer(), 0);
  EXPECT_GE(view.at("connections").integer(), 1);
  EXPECT_GT(view.at("bytes_sent").integer(), 0);
  EXPECT_GE(view.at("lines_sent").integer(), 4);  // 2x accepted + 2x done so far
  EXPECT_GT(view.at("uptime_seconds").number(), 0.0);
  EXPECT_EQ(view.at("cache").at("entries").integer(), 1);
  EXPECT_GE(view.at("cache").at("hits").integer(), 1);
  // The process-wide pool's block reads the same numbers as the registry.
  EXPECT_EQ(view.at("pool").at("threads_started").integer(),
            static_cast<std::int64_t>(core::WorkStealingPool::helper_threads_started()));
  EXPECT_GE(view.at("pool").at("idle_us").at("count").integer(), 0);
  // The cold submit ran greedy: the search block counts its scored moves,
  // and the screen folded only some of them.
  const Json& search = view.at("search");
  EXPECT_GT(search.at("evaluations").integer(), 0);
  EXPECT_GT(search.at("exact_folds").integer(), 0);
  EXPECT_LT(search.at("exact_folds").integer(), search.at("evaluations").integer());

  // The same cells feed the process-wide registry through the server's
  // sources — one source of truth, two doors.
  EXPECT_EQ(server.metrics_view().jobs_done, 2u);
  obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  auto counter = [&snap](const std::string& name) -> std::int64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return static_cast<std::int64_t>(v);
    }
    return -1;
  };
  EXPECT_EQ(counter("serve.jobs_done"), 2);
  EXPECT_EQ(counter("serve.jobs_accepted"), 2);
  EXPECT_GE(counter("serve.cache.hits"), 1);
  EXPECT_EQ(counter("core.pool_threads_started"),
            static_cast<std::int64_t>(core::WorkStealingPool::helper_threads_started()));
  EXPECT_GE(counter("search.exact_folds"), search.at("exact_folds").integer());
}

TEST(Server, ExploreCellsAndSubmitsRunThePipelineStagesAndCounters) {
  // Every explored cell and every served miss is one `core::Pipeline`
  // design point: each bumps `pipeline.runs` and flushes the `search.*`
  // counters, and a traced submit's stage spans nest in its job span.
  obs::Registry& registry = obs::Registry::instance();
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t runs_before = registry.counter("pipeline.runs").value();
  const std::uint64_t evaluations_before = registry.counter("search.evaluations").value();
  tracer.clear();
  tracer.enable(true);

  Server server({});
  TestClient client(server.port());
  Request explore = explore_request(mhla::testing::blocked_reuse_program());
  explore.explore.l2_axis = {0};
  client.send(explore);
  const Json explored = client.next_named("done");
  ASSERT_EQ(explored.at("state").string(), "done");
  const std::int64_t cells = explored.at("evaluations").integer();
  EXPECT_GT(cells, 0);
  client.send(submit_request(mhla::testing::tiny_stream_program()));
  const Json submitted = client.next_named("done");
  ASSERT_FALSE(submitted.at("from_cache").boolean());

  tracer.enable(false);
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  EXPECT_EQ(registry.counter("pipeline.runs").value() - runs_before,
            static_cast<std::uint64_t>(cells) + 1);
  EXPECT_GT(registry.counter("search.evaluations").value(), evaluations_before);

  const auto job = std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
    return e.name == "job_submit";
  });
  ASSERT_NE(job, events.end());
  for (const char* stage : {"assign", "time_extend"}) {
    SCOPED_TRACE(stage);
    const bool nested = std::any_of(events.begin(), events.end(), [&](const obs::TraceEvent& e) {
      return e.name == stage && e.tid == job->tid && e.ts_ns >= job->ts_ns &&
             e.ts_ns + e.dur_ns <= job->ts_ns + job->dur_ns;
    });
    EXPECT_TRUE(nested);
  }
}

TEST(Server, StatsStreamBroadcastsToSubscribedConnections) {
  ServerConfig config;
  config.stats_interval_seconds = 0.05;
  Server server(config);
  TestClient client(server.port());

  Request subscribe;
  subscribe.command = Command::Metrics;
  subscribe.stream_stats = true;
  client.send(subscribe);
  client.next_named("metrics");  // the immediate snapshot always comes first

  // Periodic stats lines then arrive without any further request.
  Json first = client.next_named("stats");
  EXPECT_GE(first.at("uptime_seconds").number(), 0.0);
  Json second = client.next_named("stats");
  EXPECT_GE(second.at("uptime_seconds").number(), first.at("uptime_seconds").number());
}

TEST(Server, MalformedRequestsYieldErrorEventsAndKeepTheConnection) {
  Server server({});
  TestClient client(server.port());

  client.send_raw("this is not json");
  EXPECT_EQ(client.next().at("event").string(), "error");

  client.send_raw(R"({"cmd": "frobnicate"})");
  Json unknown = client.next();
  EXPECT_EQ(unknown.at("event").string(), "error");
  EXPECT_NE(unknown.at("message").string().find("unknown command"), std::string::npos);

  // A submit whose program fails to parse is rejected before queueing.
  Request bad = submit_request(mhla::testing::tiny_stream_program());
  bad.program_text = "array oops {";
  client.send(bad);
  EXPECT_EQ(client.next().at("event").string(), "error");

  // Cancel of an unknown job acknowledges found=false.
  Request cancel;
  cancel.command = Command::Cancel;
  cancel.job = 12345;
  cancel.has_job = true;
  client.send(cancel);
  Json ack = client.next_named("cancelled");
  EXPECT_FALSE(ack.at("found").boolean());

  // The connection survived all of it.
  Request status;
  status.command = Command::Status;
  client.send(status);
  EXPECT_EQ(client.next().at("event").string(), "status");
}

TEST(Server, ShutdownVerbDrainsAndPersistsForAWarmRestart) {
  const std::string cache_path = temp_path("mhla_server_restart_cache.json");
  Json cold_done;
  {
    ServerConfig config;
    config.cache_path = cache_path;
    Server server(config);
    TestClient client(server.port());

    client.send(submit_request(mhla::testing::tiny_stream_program()));
    client.next_named("accepted");
    cold_done = client.next_named("done");
    EXPECT_FALSE(cold_done.at("from_cache").boolean());

    Request shutdown;
    shutdown.command = Command::Shutdown;
    client.send(shutdown);
    EXPECT_EQ(client.next_named("shutdown").at("event").string(), "shutdown");
    EXPECT_TRUE(server.wait_for(10.0)) << "shutdown verb must request the stop";
    server.stop();
  }

  // A new server over the same cache document answers the same submit from
  // cache without a single pipeline evaluation.
  {
    ServerConfig config;
    config.cache_path = cache_path;
    Server server(config);
    EXPECT_EQ(server.cache().size(), 1u);
    TestClient client(server.port());
    client.send(submit_request(mhla::testing::tiny_stream_program()));
    client.next_named("accepted");
    Json warm = client.next_named("done");
    EXPECT_TRUE(warm.at("from_cache").boolean());
    EXPECT_EQ(warm.at("evaluations").integer(), 0);
    EXPECT_EQ(warm.at("cycles").number(), cold_done.at("cycles").number());
  }
  std::remove(cache_path.c_str());
}

TEST(Server, JobRetentionBoundsTheRegistryAndCountersSumToAccepted) {
  ServerConfig config;
  config.job_retention = 2;
  Server server(config);
  TestClient client(server.port());

  // Six sequential submits, each awaited to its terminal event.
  Request request = submit_request(mhla::testing::tiny_stream_program());
  std::uint64_t last_job = 0;
  for (int i = 0; i < 6; ++i) {
    client.send(request);
    Json accepted = client.next_named("accepted");
    last_job = static_cast<std::uint64_t>(accepted.at("job").integer());
    client.next_named("done");
  }

  // The registry holds only the retention window, not all six jobs — the
  // counters, not the map, carry the full history.
  Request metrics;
  metrics.command = Command::Metrics;
  client.send(metrics);
  Json view = client.next_named("metrics");
  EXPECT_EQ(view.at("jobs_accepted").integer(), 6);
  EXPECT_EQ(view.at("jobs_tracked").integer(), 2);
  EXPECT_EQ(view.at("jobs_accepted").integer(),
            view.at("jobs_done").integer() + view.at("jobs_failed").integer() +
                view.at("jobs_cancelled").integer());

  // `status` still answers for the retained recent jobs ...
  Request status;
  status.command = Command::Status;
  client.send(status);
  Json report = client.next_named("status");
  ASSERT_EQ(report.at("jobs").array().size(), 2u);
  EXPECT_EQ(report.at("jobs").array()[1].at("job").integer(),
            static_cast<std::int64_t>(last_job));

  // ... and reports a pruned id as unknown (empty row set), like any
  // id the server never saw.
  status.job = 1;  // the first job, two retention windows ago
  status.has_job = true;
  client.send(status);
  EXPECT_TRUE(client.next_named("status").at("jobs").array().empty());
}

TEST(Server, CancelWhileQueuedEmitsImmediateTerminalEvent) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  TestClient client(server.port());

  // Occupy the single worker with a genuinely long exact search.
  client.send(long_exact_search(60.0));
  const std::uint64_t running =
      static_cast<std::uint64_t>(client.next_named("accepted").at("job").integer());

  // A second job now sits in the queue with no worker to claim it.
  client.send(submit_request(mhla::testing::tiny_stream_program()));
  const std::uint64_t queued =
      static_cast<std::uint64_t>(client.next_named("accepted").at("job").integer());

  // Cancelling the queued job must not wait for the worker: the ack and the
  // terminal event both arrive while the blocker is still running.
  Request cancel;
  cancel.command = Command::Cancel;
  cancel.job = queued;
  cancel.has_job = true;
  client.send(cancel);
  Json ack = client.next_named("cancelled");
  EXPECT_TRUE(ack.at("found").boolean());
  Json done = client.next_named("done");
  EXPECT_EQ(static_cast<std::uint64_t>(done.at("job").integer()), queued);
  EXPECT_EQ(done.at("state").string(), "cancelled");
  EXPECT_EQ(done.at("kind").string(), "cancelled");
  EXPECT_EQ(done.at("stop").string(), "cancelled");
  EXPECT_EQ(server.metrics_view().jobs_cancelled, 1u);

  // Now release the worker and check the books: both jobs terminal, the
  // counters summing exactly to the accepted count.
  cancel.job = running;
  client.send(cancel);
  client.next_named("cancelled");
  Json blocker_done = client.next_named("done");
  EXPECT_EQ(static_cast<std::uint64_t>(blocker_done.at("job").integer()), running);
  EXPECT_EQ(blocker_done.at("stop").string(), "cancelled") << "the blocker ended on its own";
  ServerMetricsView view = server.metrics_view();
  EXPECT_EQ(view.jobs_accepted,
            view.jobs_done + view.jobs_failed + view.jobs_cancelled);
}

TEST(Server, CacheHitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  TestClient client(server.port());

  Request warm = submit_request(mhla::testing::tiny_stream_program());
  client.send(warm);
  client.next_named("accepted");
  EXPECT_FALSE(client.next_named("done").at("from_cache").boolean());

  // Occupy the only worker with a long exact search (the 10 s deadline
  // only bounds the run should the hit wait behind it), and make sure the
  // worker has claimed it.
  client.send(long_exact_search(10.0));
  const std::uint64_t running =
      static_cast<std::uint64_t>(client.next_named("accepted").at("job").integer());
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (job_state(client, running) != "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "the worker never claimed the job";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The warm cell, re-submitted from a second connection, is answered from
  // cache without waiting for the worker: the long job is still running.
  TestClient second(server.port());
  second.send(warm);
  const std::uint64_t hit =
      static_cast<std::uint64_t>(second.next_named("accepted").at("job").integer());
  Json done = second.next();
  EXPECT_EQ(done.at("event").string(), "done");
  EXPECT_EQ(static_cast<std::uint64_t>(done.at("job").integer()), hit);
  EXPECT_TRUE(done.at("from_cache").boolean());
  const bool still_running = job_state(client, running) == "running";
  EXPECT_TRUE(still_running) << "the hit waited for the busy worker";
  EXPECT_EQ(server.metrics_view().queue_depth, 0);

  Request cancel;
  cancel.command = Command::Cancel;
  cancel.job = running;
  cancel.has_job = true;
  client.send(cancel);
  client.next_named("cancelled");
  if (still_running) {
    EXPECT_EQ(client.next_named("done").at("state").string(), "cancelled");
  }
}

TEST(Server, LatencyHistogramsCountHitsAndQueuedMisses) {
  Server server({});
  TestClient client(server.port());

  // Two misses (distinct cells), three hits.
  Request first = submit_request(mhla::testing::tiny_stream_program());
  Request second = first;
  second.config.platform.l1_bytes *= 2;
  for (const Request* request : {&first, &first, &second, &first, &second}) {
    client.send(*request);
    client.next_named("accepted");
    client.next_named("done");
  }

  Request metrics;
  metrics.command = Command::Metrics;
  client.send(metrics);
  Json view = client.next_named("metrics");
  EXPECT_EQ(latency(view, "hit").at("count").integer(), 3);
  EXPECT_EQ(latency(view, "queue_wait").at("count").integer(), 2);
  EXPECT_EQ(latency(view, "key_lookup").at("count").integer(), 5);
  EXPECT_GE(latency(view, "request_parse").at("count").integer(), 5);
  EXPECT_LE(latency(view, "hit").at("p50").integer(), latency(view, "hit").at("p99").integer());
  EXPECT_GT(latency(view, "hit").at("p99").integer(), 0);

  // The same cells through the registry source.
  obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  auto count = [&snap](const std::string& name) -> std::int64_t {
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) return static_cast<std::int64_t>(h.count);
    }
    return -1;
  };
  EXPECT_EQ(count("serve.latency_us.hit"), 3);
  EXPECT_EQ(count("serve.latency_us.queue_wait"), 2);

  // A run is recorded after its terminal event; once the workers are
  // joined every miss has one.
  server.stop();
  EXPECT_EQ(server.metrics_view().latency_us.size(), 5u);
  for (const auto& [phase, histogram] : server.metrics_view().latency_us) {
    if (phase == "job_run") {
      EXPECT_EQ(histogram.count, 2u);
    }
  }
}

TEST(Server, MixedHitsMissesAndACancelKeepTheBooks) {
  Server server({});
  constexpr int kCells = 4;
  std::vector<Request> cells;
  for (int c = 0; c < kCells; ++c) {
    Request request = submit_request(mhla::testing::blocked_reuse_program());
    request.config.platform.l1_bytes = 128 << c;
    cells.push_back(request);
  }

  // Both connections pipeline every cell (in opposite orders), so each cell
  // is submitted twice and hits race misses; B cancels its first job.
  TestClient a(server.port());
  TestClient b(server.port());
  for (int c = 0; c < kCells; ++c) a.send(cells[static_cast<std::size_t>(c)]);
  for (int c = kCells - 1; c >= 0; --c) b.send(cells[static_cast<std::size_t>(c)]);

  std::size_t lines_read = 0;
  // Reads until `expected` terminal events arrived; checks each job's
  // `accepted` precedes its `done` on its connection.
  auto drain = [&lines_read](TestClient& client, int expected, std::uint64_t* first_job,
                             const Request* cancel_first) {
    std::map<std::uint64_t, bool> accepted;
    int done = 0;
    bool acked = cancel_first == nullptr;
    while (done < expected || !acked) {
      Json event = client.next();
      ++lines_read;
      const std::string& name = event.at("event").string();
      if (name == "cancelled") {
        acked = true;
        continue;
      }
      const std::uint64_t job = static_cast<std::uint64_t>(event.at("job").integer());
      if (name == "accepted") {
        EXPECT_FALSE(accepted[job]) << "second accepted for job " << job;
        accepted[job] = true;
        if (first_job && *first_job == 0) {
          *first_job = job;
          if (cancel_first) {
            Request cancel = *cancel_first;
            cancel.job = job;
            client.send(cancel);
          }
        }
      } else {
        ASSERT_EQ(name, "done");
        EXPECT_TRUE(accepted[job]) << "done before accepted for job " << job;
        ++done;
      }
    }
  };
  Request cancel;
  cancel.command = Command::Cancel;
  cancel.has_job = true;
  std::uint64_t b_first = 0;
  drain(a, kCells, nullptr, nullptr);
  drain(b, kCells, &b_first, &cancel);

  const ServerMetricsView view = server.metrics_view();
  EXPECT_EQ(view.jobs_accepted, 2u * kCells);
  EXPECT_EQ(view.jobs_accepted, view.jobs_done + view.jobs_failed + view.jobs_cancelled);
  EXPECT_EQ(view.cache.hits + view.cache.misses, 2u * kCells);
  EXPECT_EQ(view.lines_sent, lines_read);
  EXPECT_EQ(view.queue_depth, 0);
}

TEST(Server, StopWithQueuedWorkCancelsCleanly) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  TestClient client(server.port());

  // More jobs than workers, then tear the server down mid-queue: stop()
  // must cancel what is running, drain the queue and still join cleanly.
  Request request = submit_request(mhla::testing::blocked_reuse_program());
  for (int i = 0; i < 4; ++i) {
    client.send(request);
    client.next_named("accepted");
  }
  server.stop();

  // Every accepted job reached a terminal state and was counted exactly
  // once: finished before the stop, cancelled mid-run through its budget,
  // or dropped from the queue by close() — the invariant the shutdown and
  // cancel races used to break.
  ServerMetricsView view = server.metrics_view();
  EXPECT_EQ(view.jobs_accepted, 4u);
  EXPECT_EQ(view.jobs_accepted,
            view.jobs_done + view.jobs_failed + view.jobs_cancelled);
  EXPECT_EQ(view.queue_depth, 0);
}

/// Open descriptors of this process (-1 where /proc/self/fd is unavailable).
/// Entries of a /proc/self directory: open descriptors ("fd") or threads
/// ("task"); -1 where /proc is unavailable.
long proc_self_count(const char* dir) {
  std::error_code error;
  std::filesystem::directory_iterator it(std::filesystem::path("/proc/self") / dir, error);
  if (error) return -1;
  long count = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++count;
  return count;
}

long open_fd_count() { return proc_self_count("fd"); }

/// Threads of this process once the count holds still for 30 ms: a thread
/// joined just before can linger in /proc/self/task for an instant.
long settled_thread_count() {
  long count = proc_self_count("task");
  for (int stable = 0, i = 0; stable < 3 && i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const long now = proc_self_count("task");
    stable = now == count ? stable + 1 : 0;
    count = now;
  }
  return count;
}

TEST(Server, OneTickerThreadServesBothPeriods) {
  // The cache persister and the stats broadcaster share one thread, started
  // when either period is set: a server with both set starts one thread
  // more than a server with neither (acceptor, reaper, one worker).
  const long before = settled_thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  ServerConfig idle;
  idle.workers = 1;
  long idle_threads = 0;
  {
    Server server(idle);
    idle_threads = proc_self_count("task") - before;
  }
  EXPECT_EQ(idle_threads, 3);
  ASSERT_EQ(settled_thread_count(), before);

  ServerConfig ticking = idle;
  ticking.cache_path = temp_path("mhla_ticker_cache.json");
  ticking.persist_interval_seconds = 0.02;
  ticking.stats_interval_seconds = 0.02;
  Server server(ticking);
  EXPECT_EQ(proc_self_count("task") - before, idle_threads + 1);

  // The one ticker runs both duties: subscribed stats lines arrive, and a
  // miss's dirty cache reaches the file before any shutdown save.
  TestClient client(server.port());
  client.send(submit_request(mhla::testing::tiny_stream_program()));
  client.next_named("done");
  Request subscribe;
  subscribe.command = Command::Metrics;
  subscribe.stream_stats = true;
  client.send(subscribe);
  client.next_named("metrics");
  client.next_named("stats");
  client.next_named("stats");
  for (int i = 0; i < 500 && !std::filesystem::exists(ticking.cache_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(std::filesystem::exists(ticking.cache_path));
  std::remove(ticking.cache_path.c_str());
}

TEST(Server, WorkerCountAboveTheThreadLimitIsRejectedBeforeAnythingStarts) {
  // Config documents and the CLI cap thread counts at core::kMaxThreads; the
  // server enforces the same cap itself, before it binds or starts a thread.
  const long before = settled_thread_count();
  ServerConfig config;
  config.workers = core::kMaxThreads + 1;
  EXPECT_THROW({ Server server(config); }, std::invalid_argument);
  if (before >= 0) {
    EXPECT_EQ(settled_thread_count(), before);
  }
}

TEST(Server, SoakOfRandomVerbsWhileStopLandsKeepsTheBooks) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  constexpr std::uint32_t kSeed = 0x5eed;
  const long fds_before = open_fd_count();

  // Six submit cells (so submits both miss and hit), one small explore.
  std::vector<std::string> submits;
  for (int c = 0; c < 6; ++c) {
    Request request = submit_request(mhla::testing::blocked_reuse_program());
    request.config.platform.l1_bytes = 128 << (c % 3);
    request.config.strategy = c < 3 ? "greedy" : "bnb";
    submits.push_back(to_json(request));
  }
  Request explore = explore_request(mhla::testing::blocked_reuse_program());
  explore.explore.l1_axis = {128, 256, 512};
  explore.explore.l2_axis = {0};
  const std::string explore_line = to_json(explore);

  std::atomic<int> sent{0};
  std::atomic<int> finished{0};
  std::vector<std::string> failures(kClients);
  ServerMetricsView view;
  {
    ServerConfig config;
    config.workers = 2;
    Server server(config);
    // Connected up front, so the stop below can never refuse a late client.
    std::vector<Socket> sockets;
    for (int c = 0; c < kClients; ++c) sockets.push_back(connect_to("127.0.0.1", server.port()));

    // Each client sends a random verb, then reads until that request's own
    // reply (a job's terminal events may arrive in between), and finally
    // reads to the EOF the stop delivers.  It records every terminal event
    // per job.
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(kSeed + static_cast<std::uint32_t>(c));
        LineReader reader(sockets[static_cast<std::size_t>(c)]);
        std::map<std::uint64_t, int> terminals;
        std::vector<std::uint64_t> accepted;
        std::string line;
        std::string& failure = failures[static_cast<std::size_t>(c)];
        auto fail = [&failure](const std::string& what) {
          if (failure.empty()) failure = what;
        };
        // Reads one event; false on EOF.  Sets `name` to its event name.
        auto read_event = [&](std::string& name) {
          if (!reader.read_line(line)) return false;
          Json event = Json::parse(line);
          name = event.at("event").string();
          if (name == "accepted") {
            accepted.push_back(static_cast<std::uint64_t>(event.at("job").integer()));
          } else if (name == "done") {
            std::uint64_t job = static_cast<std::uint64_t>(event.at("job").integer());
            if (++terminals[job] > 1) fail("two terminal events for job " + std::to_string(job));
          }
          return true;
        };
        try {
          for (int i = 0; i < kRequestsPerClient; ++i) {
            std::string request;
            std::string reply;
            switch (rng() % 6) {
              case 0:
                request = submits[rng() % submits.size()];
                reply = "accepted";
                break;
              case 1:
                request = rng() % 2 ? explore_line : submits[rng() % submits.size()];
                reply = "accepted";
                break;
              case 2: {
                // One of this client's jobs, or any id the server may know.
                std::uint64_t job = !accepted.empty() && rng() % 2
                                        ? accepted[rng() % accepted.size()]
                                        : 1 + rng() % (kClients * kRequestsPerClient);
                request = R"({"cmd": "cancel", "job": )" + std::to_string(job) + "}";
                reply = "cancelled";
                break;
              }
              case 3:
                request = R"({"cmd": "status"})";
                reply = "status";
                break;
              case 4:
                request = R"({"cmd": "metrics"})";
                reply = "metrics";
                break;
              default:
                request = R"({"cmd": "cache_stats"})";
                reply = "cache_stats";
                break;
            }
            if (!write_line(sockets[static_cast<std::size_t>(c)], request)) break;
            sent.fetch_add(1);
            std::string name;
            bool open = true;
            while ((open = read_event(name)) && name != reply) {
              if (name == "error") fail("error event: " + line);
            }
            if (!open) break;
          }
          std::string name;
          while (read_event(name)) {
          }
          for (const auto& [job, count] : terminals) {
            if (std::find(accepted.begin(), accepted.end(), job) == accepted.end()) {
              fail("terminal event for job " + std::to_string(job) + " never accepted here");
            }
          }
        } catch (const std::exception& error) {
          fail(error.what());
        }
        finished.fetch_add(1);
      });
    }

    // Land the stop mid-traffic: once half of all requests went out.
    while (sent.load() < kClients * kRequestsPerClient / 2 && finished.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
    for (std::thread& client : clients) client.join();
    view = server.metrics_view();
  }

  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_GT(view.jobs_accepted, 0u);
  EXPECT_EQ(view.jobs_accepted, view.jobs_done + view.jobs_failed + view.jobs_cancelled);
  EXPECT_EQ(view.queue_depth, 0);
  if (fds_before >= 0) {
    EXPECT_EQ(open_fd_count(), fds_before) << "descriptors leaked";
  }
}

}  // namespace
}  // namespace mhla::serve

#endif  // _WIN32
