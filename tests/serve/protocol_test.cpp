#include "serve/protocol.h"

#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/socket.h>
#endif

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/socket.h"
#include "helpers.h"

namespace mhla::serve {
namespace {

using core::Json;

// --- Request parsing ---------------------------------------------------------

TEST(Protocol, ParsesMinimalRequestsForEveryCommand) {
  EXPECT_EQ(parse_request(R"({"cmd": "status"})").command, Command::Status);
  EXPECT_EQ(parse_request(R"({"cmd": "cache_stats"})").command, Command::CacheStats);
  EXPECT_EQ(parse_request(R"({"cmd": "metrics"})").command, Command::Metrics);
  EXPECT_EQ(parse_request(R"({"cmd": "shutdown"})").command, Command::Shutdown);

  Request cancel = parse_request(R"({"cmd": "cancel", "job": 7})");
  EXPECT_EQ(cancel.command, Command::Cancel);
  EXPECT_TRUE(cancel.has_job);
  EXPECT_EQ(cancel.job, 7u);

  Request submit = parse_request(R"({"cmd": "submit", "program": "stream copy {}"})");
  EXPECT_EQ(submit.command, Command::Submit);
  EXPECT_EQ(submit.program_text, "stream copy {}");
  EXPECT_FALSE(submit.has_config);
}

TEST(Protocol, ParsesExploreOperands) {
  Request request = parse_request(
      R"({"cmd": "explore", "program": "p", "l1_axis": [128, 256], "l2_axis": [0, 8192],)"
      R"( "strategies": ["greedy", "bnb"], "explore_te": true, "seed_stride": 3,)"
      R"( "budget": 40})");
  EXPECT_EQ(request.command, Command::Explore);
  EXPECT_EQ(request.explore.l1_axis, (std::vector<xplore::i64>{128, 256}));
  EXPECT_EQ(request.explore.l2_axis, (std::vector<xplore::i64>{0, 8192}));
  EXPECT_EQ(request.explore.strategies, (std::vector<std::string>{"greedy", "bnb"}));
  EXPECT_TRUE(request.explore.explore_te);
  EXPECT_EQ(request.explore.seed_stride, 3u);
  EXPECT_EQ(request.explore.budget, 40u);
}

TEST(Protocol, ParsesEmbeddedConfigThroughTheOneConfigParser) {
  Request request = parse_request(
      R"({"cmd": "submit", "program": "p",)"
      R"( "config": {"strategy": "bnb", "platform": {"l1_bytes": 512},)"
      R"( "search": {"deadline_seconds": 2.5}}})");
  EXPECT_TRUE(request.has_config);
  EXPECT_EQ(request.config.strategy, "bnb");
  EXPECT_EQ(request.config.platform.l1_bytes, 512);
  EXPECT_EQ(request.config.search.budget.deadline_seconds, 2.5);
}

TEST(Protocol, RejectsAnUnboundedThreadCountInASubmitConfig) {
  // Parsing only: a worker never sees the job, so no pool is built.
  const std::string line =
      R"({"cmd": "submit", "program": "p", "config": {"strategy": "bnb-par",)"
      R"( "search": {"bnb_threads": 4294967295}}})";
  try {
    parse_request(line);
    FAIL() << "expected the thread count to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bnb_threads"), std::string::npos) << e.what();
  }
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), std::exception);
  EXPECT_THROW(parse_request(R"({"cmd": "frobnicate"})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "status", "bogus_key": 1})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "submit"})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "explore", "program": ""})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "cancel"})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "cancel", "job": -1})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "explore", "program": "p", "seed_stride": 0})"),
               std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"cmd": "explore", "program": "p", "l1_axis": [-4]})"),
               std::invalid_argument);
}

TEST(Protocol, RequestRoundTripsThroughItsWireLine) {
  Request request;
  request.command = Command::Explore;
  request.program_text = ir::serialize(mhla::testing::tiny_stream_program());
  request.config.strategy = "bnb";
  request.config.platform = mhla::testing::small_platform();
  request.config.search.budget.deadline_seconds = 1.5;
  request.has_config = true;
  request.explore.l1_axis = {128, 512};
  request.explore.l2_axis = {0, 4096};
  request.explore.strategies = {"greedy"};
  request.explore.explore_te = true;
  request.explore.seed_stride = 3;
  request.explore.budget = 17;

  const std::string line = to_json(request);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "wire lines must be single-line";

  Request parsed = parse_request(line);
  EXPECT_EQ(parsed.command, request.command);
  EXPECT_EQ(parsed.program_text, request.program_text);
  ASSERT_TRUE(parsed.has_config);
  EXPECT_EQ(parsed.config.strategy, "bnb");
  EXPECT_EQ(parsed.config.platform.l1_bytes, request.config.platform.l1_bytes);
  EXPECT_EQ(parsed.config.platform.l2_bytes, request.config.platform.l2_bytes);
  EXPECT_EQ(parsed.config.search.budget.deadline_seconds, 1.5);
  EXPECT_EQ(parsed.explore, request.explore);
}

TEST(Protocol, MetricsRequestRoundTripsItsStreamFlag) {
  Request plain = parse_request(R"({"cmd": "metrics"})");
  EXPECT_EQ(plain.command, Command::Metrics);
  EXPECT_FALSE(plain.stream_stats);

  Request streamed = parse_request(R"({"cmd": "metrics", "stream": true})");
  EXPECT_TRUE(streamed.stream_stats);

  Request round = parse_request(to_json(streamed));
  EXPECT_EQ(round.command, Command::Metrics);
  EXPECT_TRUE(round.stream_stats);
  EXPECT_EQ(to_json(plain).find("stream"), std::string::npos);
}

TEST(Protocol, MetricsEventCarriesEveryServerCounter) {
  ServerMetricsView view;
  view.jobs_accepted = 10;
  view.jobs_done = 7;
  view.jobs_failed = 1;
  view.jobs_cancelled = 2;
  view.queue_depth = 3;
  view.connections = 4;
  view.bytes_sent = 5000;
  view.lines_sent = 60;
  view.uptime_seconds = 1.5;
  view.cache.entries = 8;
  view.cache.hits = 9;
  view.pool_threads_started = 3;
  view.pool_idle_us.count = 2;
  view.pool_idle_us.buckets[4] = 2;  // two samples in [8, 16) µs

  for (const std::string& line : {event_metrics(view), event_stats(view)}) {
    SCOPED_TRACE(line);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    Json event = Json::parse(line);
    EXPECT_EQ(event.at("jobs_accepted").integer(), 10);
    EXPECT_EQ(event.at("jobs_done").integer(), 7);
    EXPECT_EQ(event.at("jobs_failed").integer(), 1);
    EXPECT_EQ(event.at("jobs_cancelled").integer(), 2);
    EXPECT_EQ(event.at("queue_depth").integer(), 3);
    EXPECT_EQ(event.at("connections").integer(), 4);
    EXPECT_EQ(event.at("bytes_sent").integer(), 5000);
    EXPECT_EQ(event.at("lines_sent").integer(), 60);
    EXPECT_EQ(event.at("uptime_seconds").number(), 1.5);
    EXPECT_EQ(event.at("cache").at("entries").integer(), 8);
    EXPECT_EQ(event.at("cache").at("hits").integer(), 9);
    EXPECT_EQ(event.at("pool").at("threads_started").integer(), 3);
    EXPECT_EQ(event.at("pool").at("idle_us").at("count").integer(), 2);
    EXPECT_EQ(event.at("pool").at("idle_us").at("p50").integer(), 15);
  }
  EXPECT_EQ(Json::parse(event_metrics(view)).at("event").string(), "metrics");
  EXPECT_EQ(Json::parse(event_stats(view)).at("event").string(), "stats");
}

// --- Event builders ----------------------------------------------------------

TEST(Protocol, EventsAreSingleLineParseableJson) {
  xplore::ExploreResult result;
  result.samples.resize(3);
  result.frontier.push_back({256, 0, 100.0, 50.0});
  result.frontier_cells.push_back({256, 0, "greedy", true});
  result.evaluations = 2;
  result.cache_hits = 1;
  result.rounds = 1;
  result.lattice_cells = 10;

  xplore::CacheStats stats;
  stats.entries = 5;
  stats.hits = 7;

  const std::vector<std::string> events = {
      event_accepted(3, Command::Explore),
      event_frontier(3, result),
      event_done_explore(3, "done", result),
      event_done_submit(4, "cancelled", assign::SearchStatus::BudgetExhausted, 0.25, 123.0,
                        45.5, false, 1),
      event_done_failed(5, "parse error: line 3"),
      event_status({{1, Command::Submit, "running"}, {2, Command::Explore, "queued"}}),
      event_cache_stats(stats),
      event_cancelled(9, false),
      event_shutdown(),
      event_error("unknown command \"x\""),
  };
  for (const std::string& line : events) {
    SCOPED_TRACE(line);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    Json event = Json::parse(line);
    EXPECT_FALSE(event.at("event").string().empty());
  }
}

TEST(Protocol, DoneSubmitEventCarriesTheResultContract) {
  Json event = Json::parse(event_done_submit(11, "cancelled",
                                             assign::SearchStatus::BudgetExhausted, 0.125,
                                             1000.0, 250.5, false, 1,
                                             core::StopReason::Cancelled));
  EXPECT_EQ(event.at("event").string(), "done");
  EXPECT_EQ(event.at("kind").string(), "submit");
  EXPECT_EQ(event.at("job").integer(), 11);
  EXPECT_EQ(event.at("state").string(), "cancelled");
  EXPECT_EQ(event.at("status").string(), "budget_exhausted");
  EXPECT_EQ(event.at("gap").number(), 0.125);
  EXPECT_EQ(event.at("cycles").number(), 1000.0);
  EXPECT_EQ(event.at("energy_nj").number(), 250.5);
  EXPECT_FALSE(event.at("from_cache").boolean());
  EXPECT_EQ(event.at("evaluations").integer(), 1);
  EXPECT_EQ(event.at("stop").string(), "cancelled");

  // A cache hit passes no stop: it never stopped early.
  Json hit = Json::parse(event_done_submit(12, "done", assign::SearchStatus::Optimal, 0.0, 1.0,
                                           1.0, true, 0));
  EXPECT_EQ(hit.at("stop").string(), "none");
}

TEST(Protocol, FrontierEventCarriesFullCellCoordinates) {
  xplore::ExploreResult result;
  result.samples.resize(2);
  result.frontier.push_back({512, 8192, 100.0, 50.0});
  result.frontier_cells.push_back({512, 8192, "bnb", false});
  result.evaluations = 2;
  result.stop = core::StopReason::CellBudget;

  Json event = Json::parse(event_frontier(1, result));
  EXPECT_EQ(event.at("event").string(), "frontier");
  EXPECT_EQ(event.at("stop").string(), "cell_budget");
  ASSERT_EQ(event.at("frontier").array().size(), 1u);
  const Json& point = event.at("frontier").array()[0];
  EXPECT_EQ(point.at("l1_bytes").integer(), 512);
  EXPECT_EQ(point.at("l2_bytes").integer(), 8192);
  EXPECT_EQ(point.at("strategy").string(), "bnb");
  EXPECT_FALSE(point.at("with_te").boolean());
  EXPECT_EQ(point.at("cycles").number(), 100.0);
  EXPECT_EQ(point.at("energy_nj").number(), 50.0);
}

#ifndef _WIN32

// --- Framing over a real socket ----------------------------------------------

struct SocketPair {
  Socket a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(Framing, SplitsChunksIntoLinesAndStripsCarriageReturns) {
  SocketPair pair;
  // Two frames and a half, delivered across arbitrary write boundaries.
  ASSERT_TRUE(pair.a.write_all("{\"x\": 1}\r\n{\"y\"", 14));
  ASSERT_TRUE(pair.a.write_all(": 2}\n{\"partial", 14));
  pair.a.close();  // EOF with a trailing uncommitted frame

  LineReader reader(pair.b);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "{\"x\": 1}");
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "{\"y\": 2}");
  EXPECT_FALSE(reader.read_line(line)) << "a frame without its newline was never committed";
}

TEST(Framing, WriteLineAppendsTheTerminator) {
  SocketPair pair;
  ASSERT_TRUE(write_line(pair.a, "{\"event\": \"shutdown\"}"));
  pair.a.close();
  LineReader reader(pair.b);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "{\"event\": \"shutdown\"}");
  EXPECT_FALSE(reader.read_line(line));
}

TEST(Framing, OversizedLineKillsTheConnectionInsteadOfGrowing) {
  SocketPair pair;
  // Feed more than the frame cap without ever committing a newline; the
  // writer runs in a thread because the pair's buffers cannot hold it all.
  std::thread writer([&] {
    std::string chunk(1 << 20, 'a');
    std::size_t sent = 0;
    while (sent < kMaxLineBytes + chunk.size()) {
      if (!pair.a.write_all(chunk.data(), chunk.size())) break;
      sent += chunk.size();
    }
  });
  LineReader reader(pair.b);
  std::string line;
  EXPECT_THROW(reader.read_line(line), std::runtime_error);
  pair.b.shutdown_both();  // release the writer if it is still blocked
  writer.join();
}

#endif  // _WIN32

}  // namespace
}  // namespace mhla::serve
