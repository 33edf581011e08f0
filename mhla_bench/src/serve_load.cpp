// The closed-loop serve client: one thread, several connections, each with
// at most one request in flight, every answer checked.

#include <poll.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "core/json.h"
#include "explore/explorer.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mhla::ebench {

namespace {

/// Client end of one connection.  The client splits lines itself (instead
/// of serve::LineReader) so a poll() readiness never hides a second line
/// already buffered.
struct Connection {
  serve::Socket socket;
  std::string buffer;
  std::size_t next = 0;  ///< next op of the stream
  bool waiting = false;
  const ServeOp* op = nullptr;
  Clock::time_point sent;
  Clock::time_point arrived;  ///< when the last fill() returned
  std::string last_frontier;  ///< latest frontier event of the explore in flight

  /// Append what is readable; false on EOF.
  bool fill() {
    char chunk[1 << 16];
    std::size_t n = socket.read_some(chunk, sizeof chunk);
    if (n == 0) return false;
    buffer.append(chunk, n);
    return true;
  }

  bool pop_line(std::string& line) {
    std::size_t end = buffer.find('\n');
    if (end == std::string::npos) return false;
    line.assign(buffer, 0, end);
    buffer.erase(0, end + 1);
    return true;
  }
};

SubmitAnswer submit_answer(const core::PipelineConfig& config, const core::PipelineResult& run) {
  const sim::SimResult& point = config.dma.present ? run.points.mhla_te : run.points.mhla;
  return {point.total_cycles(), point.energy_nj, run.search.status};
}

bool check_submit(const core::Json& done, const SubmitAnswer& answer, bool expect_hit) {
  return done.at("state").string() == "done" &&
         done.at("status").string() == assign::to_string(answer.status) &&
         same_bits(done.at("cycles").number(), answer.cycles) &&
         same_bits(done.at("energy_nj").number(), answer.energy_nj) &&
         done.at("from_cache").boolean() == expect_hit;
}

bool check_explore(const core::Json& done, const std::string& frontier_line,
                   const ExploreJob& job) {
  if (done.at("state").string() != "done" ||
      static_cast<std::size_t>(done.at("evaluations").integer()) != job.evaluations ||
      static_cast<std::size_t>(done.at("rounds").integer()) != job.rounds ||
      static_cast<std::size_t>(done.at("frontier_size").integer()) != job.frontier.size()) {
    return false;
  }
  if (job.frontier.empty()) return true;
  if (frontier_line.empty()) return false;
  const core::Json frontier = core::Json::parse(frontier_line);
  const core::Json::Array& points = frontier.at("frontier").array();
  if (points.size() != job.frontier.size()) return false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const xplore::TradeoffPoint& want = job.frontier[i];
    if (points[i].at("l1_bytes").integer() != want.l1_bytes ||
        points[i].at("l2_bytes").integer() != want.l2_bytes ||
        !same_bits(points[i].at("cycles").number(), want.cycles) ||
        !same_bits(points[i].at("energy_nj").number(), want.energy_nj)) {
      return false;
    }
  }
  return true;
}

/// One `metrics` verb round trip on the dedicated connection.
void sample_metrics(Connection& conn, ServeRoundStats& stats) {
  if (!serve::write_line(conn.socket, "{\"cmd\": \"metrics\"}")) {
    throw std::runtime_error("serve: metrics connection closed");
  }
  std::string line;
  for (;;) {
    while (!conn.pop_line(line)) {
      if (!conn.fill()) throw std::runtime_error("serve: metrics connection closed");
    }
    core::Json event = core::Json::parse(line);
    if (event.at("event").string() != "metrics") continue;
    stats.queue_depth_max = std::max(stats.queue_depth_max, event.at("queue_depth").integer());
    stats.cache_hits = static_cast<std::uint64_t>(event.at("cache").at("hits").integer());
    stats.cache_misses = static_cast<std::uint64_t>(event.at("cache").at("misses").integer());
    return;
  }
}

}  // namespace

void explore_reference(const ProbeInputs& inputs, ExploreJob& job) {
  // Mirrors the server's explore path: default lattice, the request's
  // pipeline config and budget, a cache that starts empty.
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.pipeline = job.config;
  config.budget = job.budget;
  xplore::ResultCache cache;
  xplore::ExploreResult result = xplore::Explorer(config).run(
      ir::parse_program(inputs.programs[job.program].text), cache);
  job.evaluations = result.evaluations;
  job.rounds = result.rounds;
  job.frontier = result.frontier;
}

ServeSet make_serve_set(const ProbeInputs& inputs, const std::vector<std::size_t>& cells,
                        StepTimes* steps) {
  ServeSet set;
  for (std::size_t index : cells) {
    const Cell& cell = inputs.cells[index];
    const std::string& text = inputs.programs[cell.program].text;
    serve::Request request;
    request.command = serve::Command::Submit;
    request.program_text = text;
    request.config = cell.config;
    request.has_config = true;
    set.submit_lines.push_back(serve::to_json(request));
    core::Pipeline pipeline(cell.config);
    set.answers.push_back(submit_answer(cell.config, pipeline.run(ir::parse_program(text))));
    if (steps) steps->lap();
  }
  for (const ExploreJob& job : inputs.explores) {
    serve::Request request;
    request.command = serve::Command::Explore;
    request.program_text = inputs.programs[job.program].text;
    request.config = job.config;
    request.has_config = true;
    request.explore.budget = job.budget;
    set.explore_lines.push_back(serve::to_json(request));
    set.explores.push_back(job);
  }
  return set;
}

std::vector<std::vector<ServeOp>> serve_streams(std::size_t submits, std::size_t explores,
                                                int connections, int hits_per_miss,
                                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> order(submits);
  for (std::size_t i = 0; i < submits; ++i) order[i] = static_cast<int>(i);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::vector<ServeOp>> streams(static_cast<std::size_t>(connections));
  std::vector<std::vector<int>> answered(streams.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t c = i % streams.size();
    streams[c].push_back({ServeOp::Kind::Miss, order[i]});
    answered[c].push_back(order[i]);
    for (int h = 0; h < hits_per_miss; ++h) {
      int repeat = answered[c][rng() % answered[c].size()];
      streams[c].push_back({ServeOp::Kind::Hit, repeat});
    }
  }
  for (std::size_t e = 0; e < explores; ++e) {
    std::vector<ServeOp>& stream = streams[e % streams.size()];
    std::size_t at = stream.empty() ? 0 : rng() % (stream.size() + 1);
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                  {ServeOp::Kind::Explore, static_cast<int>(e)});
  }
  return streams;
}

void serve_round(const ServeSet& set, const std::vector<std::vector<ServeOp>>& streams,
                 double seconds, OpLog& log, ServeRoundStats* stats) {
  serve::ServerConfig config;
  config.workers = 2;  // x per-job num_threads 1, + this client thread
  serve::Server server(config);

  std::vector<Connection> conns(streams.size());
  for (Connection& conn : conns) conn.socket = serve::connect_to(config.host, server.port());
  Connection metrics_conn;
  if (stats) metrics_conn.socket = serve::connect_to(config.host, server.port());

  const Clock::time_point start = Clock::now();
  auto send_next = [&](std::size_t c) {
    Connection& conn = conns[c];
    if (conn.next >= streams[c].size() || seconds_since(start) >= seconds) return;
    conn.op = &streams[c][conn.next++];
    const std::string& line = conn.op->kind == ServeOp::Kind::Explore
                                  ? set.explore_lines[static_cast<std::size_t>(conn.op->index)]
                                  : set.submit_lines[static_cast<std::size_t>(conn.op->index)];
    conn.sent = Clock::now();
    conn.waiting = true;
    if (!serve::write_line(conn.socket, line)) throw std::runtime_error("serve: peer closed");
  };
  for (std::size_t c = 0; c < conns.size(); ++c) send_next(c);

  long completed = 0;
  std::vector<pollfd> fds(conns.size());
  std::string line;
  for (;;) {
    std::size_t waiting = 0;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c] = {conns[c].socket.fd(), static_cast<short>(conns[c].waiting ? POLLIN : 0), 0};
      if (conns[c].waiting) ++waiting;
    }
    if (waiting == 0) break;
    int ready = ::poll(fds.data(), fds.size(), 30000);
    if (ready <= 0) throw std::runtime_error("serve: no answer within 30 s");
    // Read every ready connection before parsing or checking any answer, so
    // no latency includes the client's work on another connection.
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c].fill()) throw std::runtime_error("serve: server closed a connection");
      conns[c].arrived = Clock::now();
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Connection& conn = conns[c];
      while (conn.waiting && conn.pop_line(line)) {
        core::Json event = core::Json::parse(line);
        const std::string& kind = event.at("event").string();
        if (kind == "accepted") continue;
        if (kind == "frontier") {
          conn.last_frontier = line;
          continue;
        }
        double ms = std::chrono::duration<double, std::milli>(conn.arrived - conn.sent).count();
        bool ok = false;
        if (kind == "done") {
          std::size_t index = static_cast<std::size_t>(conn.op->index);
          try {
            ok = conn.op->kind == ServeOp::Kind::Explore
                     ? check_explore(event, conn.last_frontier, set.explores[index])
                     : check_submit(event, set.answers[index],
                                    conn.op->kind == ServeOp::Kind::Hit);
          } catch (const std::exception& error) {
            throw std::runtime_error(std::string(error.what()) + " in answer " +
                                     line.substr(0, 300));
          }
        }
        log.record(ms, ok);
        if (conn.op->kind == ServeOp::Kind::Hit) log.hit_ms.push_back(ms);
        if (conn.op->kind == ServeOp::Kind::Miss) log.miss_ms.push_back(ms);
        conn.waiting = false;
        conn.last_frontier.clear();
        if (stats && ++completed % 16 == 0) sample_metrics(metrics_conn, *stats);
        send_next(c);
      }
    }
  }
  log.busy_s += seconds_since(start);
  if (stats) sample_metrics(metrics_conn, *stats);
  conns.clear();
  server.stop();
}

}  // namespace mhla::ebench
