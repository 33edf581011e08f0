#include "serve/protocol.h"

#include <stdexcept>

#include "core/json.h"
#include "core/json_report.h"

namespace mhla::serve {

namespace {

using core::Json;
using core::json_bool;
using core::json_escape;
using core::json_number_exact;
using core::JsonText;

Command parse_command(const std::string& name) {
  if (name == "submit") return Command::Submit;
  if (name == "explore") return Command::Explore;
  if (name == "status") return Command::Status;
  if (name == "cancel") return Command::Cancel;
  if (name == "cache_stats") return Command::CacheStats;
  if (name == "metrics") return Command::Metrics;
  if (name == "shutdown") return Command::Shutdown;
  throw std::invalid_argument(
      "unknown command \"" + name +
      "\" (expected submit, explore, status, cancel, cache_stats, metrics or shutdown)");
}

std::vector<xplore::i64> parse_i64_axis(const Json& value, const char* key) {
  std::vector<xplore::i64> axis;
  for (const Json& item : value.array()) {
    std::int64_t bytes = item.integer();
    if (bytes < 0) {
      throw std::invalid_argument(std::string(key) + " values must be >= 0 bytes");
    }
    axis.push_back(bytes);
  }
  return axis;
}

std::size_t parse_size(const Json& value, const char* key) {
  std::int64_t n = value.integer();
  if (n < 0) throw std::invalid_argument(std::string(key) + " must be >= 0");
  return static_cast<std::size_t>(n);
}

/// `, "key": [a, b, ...]`, or nothing for an empty axis.
void append_axis(JsonText& out, const char* key, const std::vector<xplore::i64>& axis) {
  if (axis.empty()) return;
  out << ", \"" << key << "\": [";
  for (std::size_t i = 0; i < axis.size(); ++i) out << (i ? ", " : "") << axis[i];
  out << "]";
}

void append_point(JsonText& out, const xplore::TradeoffPoint& point,
                  const xplore::DesignCell& cell) {
  out << "{\"l1_bytes\": " << point.l1_bytes << ", \"l2_bytes\": " << point.l2_bytes
      << ", \"strategy\": \"" << json_escape(cell.strategy) << "\""
      << ", \"with_te\": " << json_bool(cell.with_te)
      << ", \"cycles\": " << json_number_exact(point.cycles)
      << ", \"energy_nj\": " << json_number_exact(point.energy_nj) << "}";
}

void append_explore_counters(JsonText& out, const xplore::ExploreResult& result) {
  out << "\"samples\": " << result.samples.size() << ", \"evaluations\": " << result.evaluations
      << ", \"cache_hits\": " << result.cache_hits << ", \"rounds\": " << result.rounds
      << ", \"lattice_cells\": " << result.lattice_cells
      << ", \"stop\": \"" << core::to_string(result.stop)
      << "\", \"converged\": " << json_bool(result.converged);
}

void append_cache_stats(JsonText& out, const xplore::CacheStats& stats) {
  out << "\"entries\": " << stats.entries << ", \"hits\": " << stats.hits
      << ", \"misses\": " << stats.misses << ", \"insertions\": " << stats.insertions
      << ", \"rejected\": " << stats.rejected << ", \"evictions\": " << stats.evictions
      << ", \"saves\": " << stats.saves;
}

void append_quantiles(JsonText& out, const obs::HistogramSnapshot& histogram) {
  out << "{\"count\": " << histogram.count << ", \"p50\": " << histogram.quantile_bound(0.5)
      << ", \"p99\": " << histogram.quantile_bound(0.99) << "}";
}

std::string metrics_payload(const char* event, const ServerMetricsView& view) {
  JsonText out;
  out << "{\"event\": \"" << event << "\", \"jobs_accepted\": " << view.jobs_accepted
      << ", \"jobs_done\": " << view.jobs_done << ", \"jobs_failed\": " << view.jobs_failed
      << ", \"jobs_cancelled\": " << view.jobs_cancelled
      << ", \"jobs_tracked\": " << view.jobs_tracked
      << ", \"queue_depth\": " << view.queue_depth << ", \"connections\": " << view.connections
      << ", \"bytes_sent\": " << view.bytes_sent << ", \"lines_sent\": " << view.lines_sent
      << ", \"uptime_seconds\": " << json_number_exact(view.uptime_seconds) << ", \"cache\": {";
  append_cache_stats(out, view.cache);
  out << "}, \"latency_us\": {";
  for (std::size_t i = 0; i < view.latency_us.size(); ++i) {
    const auto& [phase, histogram] = view.latency_us[i];
    out << (i ? ", " : "") << "\"" << json_escape(phase) << "\": ";
    append_quantiles(out, histogram);
  }
  out << "}, \"pool\": {\"threads_started\": " << view.pool_threads_started
      << ", \"idle_us\": ";
  append_quantiles(out, view.pool_idle_us);
  out << "}}";
  return out.take();
}

}  // namespace

std::string to_string(Command command) {
  switch (command) {
    case Command::Submit: return "submit";
    case Command::Explore: return "explore";
    case Command::Status: return "status";
    case Command::Cancel: return "cancel";
    case Command::CacheStats: return "cache_stats";
    case Command::Metrics: return "metrics";
    case Command::Shutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  Json document = Json::parse(line);
  const Json::Object& members = document.object();

  Request request;
  request.command = parse_command(document.at("cmd").string());

  for (const auto& [key, value] : members) {
    if (key == "cmd") continue;
    if (key == "program") {
      request.program_text = value.string();
    } else if (key == "config") {
      // The one config reader in the tree, over the parsed member: a
      // request config means exactly what the same document means to
      // mhla_tool --config.
      request.config = core::pipeline_config_from_json(value);
      request.has_config = true;
    } else if (key == "job") {
      std::int64_t id = value.integer();
      if (id < 0) throw std::invalid_argument("job must be >= 0");
      request.job = static_cast<std::uint64_t>(id);
      request.has_job = true;
    } else if (key == "l1_axis") {
      request.explore.l1_axis = parse_i64_axis(value, "l1_axis");
    } else if (key == "l2_axis") {
      request.explore.l2_axis = parse_i64_axis(value, "l2_axis");
    } else if (key == "strategies") {
      for (const Json& item : value.array()) {
        request.explore.strategies.push_back(item.string());
      }
    } else if (key == "explore_te") {
      request.explore.explore_te = value.boolean();
    } else if (key == "seed_stride") {
      request.explore.seed_stride = parse_size(value, "seed_stride");
      if (request.explore.seed_stride == 0) {
        throw std::invalid_argument("seed_stride must be >= 1");
      }
    } else if (key == "budget") {
      request.explore.budget = parse_size(value, "budget");
    } else if (key == "stream") {
      request.stream_stats = value.boolean();
    } else {
      throw std::invalid_argument("unknown request key \"" + key + "\"");
    }
  }

  switch (request.command) {
    case Command::Submit:
    case Command::Explore:
      if (request.program_text.empty()) {
        throw std::invalid_argument(to_string(request.command) +
                                    " requires a non-empty \"program\"");
      }
      break;
    case Command::Cancel:
      if (!request.has_job) throw std::invalid_argument("cancel requires \"job\"");
      break;
    case Command::Status:
    case Command::CacheStats:
    case Command::Metrics:
    case Command::Shutdown:
      break;
  }
  return request;
}

std::string to_json(const Request& request) {
  JsonText out;
  out << "{\"cmd\": \"" << to_string(request.command) << "\"";
  if (!request.program_text.empty()) {
    out << ", \"program\": \"" << json_escape(request.program_text) << "\"";
  }
  if (request.has_config) {
    // The canonical config emitter pretty-prints; re-dump through the parser
    // for the one-line form NDJSON framing requires.
    out << ", \"config\": " << Json::parse(core::to_json(request.config)).dump();
  }
  if (request.has_job) out << ", \"job\": " << request.job;
  append_axis(out, "l1_axis", request.explore.l1_axis);
  append_axis(out, "l2_axis", request.explore.l2_axis);
  if (!request.explore.strategies.empty()) {
    out << ", \"strategies\": [";
    for (std::size_t i = 0; i < request.explore.strategies.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(request.explore.strategies[i]) << "\"";
    }
    out << "]";
  }
  if (request.explore.explore_te) out << ", \"explore_te\": true";
  if (request.explore.seed_stride != 2) {
    out << ", \"seed_stride\": " << request.explore.seed_stride;
  }
  if (request.explore.budget != 0) out << ", \"budget\": " << request.explore.budget;
  if (request.stream_stats) out << ", \"stream\": true";
  out << "}";
  return out.take();
}

std::string event_accepted(std::uint64_t job, Command command) {
  JsonText out;
  out << "{\"event\": \"accepted\", \"job\": " << job << ", \"command\": \""
      << to_string(command) << "\"}";
  return out.take();
}

std::string event_frontier(std::uint64_t job, const xplore::ExploreResult& result) {
  JsonText out;
  out << "{\"event\": \"frontier\", \"job\": " << job << ", ";
  append_explore_counters(out, result);
  out << ", \"frontier\": [";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    if (i) out << ", ";
    append_point(out, result.frontier[i], result.frontier_cells[i]);
  }
  out << "]}";
  return out.take();
}

std::string event_done_explore(std::uint64_t job, const std::string& state,
                               const xplore::ExploreResult& result) {
  JsonText out;
  out << "{\"event\": \"done\", \"job\": " << job << ", \"kind\": \"explore\", \"state\": \""
      << json_escape(state) << "\", ";
  append_explore_counters(out, result);
  out << ", \"frontier_size\": " << result.frontier.size() << "}";
  return out.take();
}

std::string event_done_submit(std::uint64_t job, const std::string& state,
                              assign::SearchStatus status, double gap, double cycles,
                              double energy_nj, bool from_cache, std::size_t evaluations,
                              core::StopReason stop) {
  JsonText out;
  out << "{\"event\": \"done\", \"job\": " << job << ", \"kind\": \"submit\", \"state\": \""
      << json_escape(state) << "\", \"status\": \"" << assign::to_string(status)
      << "\", \"gap\": " << json_number_exact(gap)
      << ", \"cycles\": " << json_number_exact(cycles)
      << ", \"energy_nj\": " << json_number_exact(energy_nj)
      << ", \"from_cache\": " << json_bool(from_cache)
      << ", \"evaluations\": " << evaluations << ", \"stop\": \"" << core::to_string(stop)
      << "\"}";
  return out.take();
}

std::string event_done_failed(std::uint64_t job, const std::string& message) {
  JsonText out;
  out << "{\"event\": \"done\", \"job\": " << job
      << ", \"kind\": \"error\", \"state\": \"failed\", \"message\": \""
      << json_escape(message) << "\"}";
  return out.take();
}

std::string event_done_cancelled(std::uint64_t job) {
  JsonText out;
  out << "{\"event\": \"done\", \"job\": " << job
      << ", \"kind\": \"cancelled\", \"state\": \"cancelled\", \"stop\": \""
      << core::to_string(core::StopReason::Cancelled) << "\"}";
  return out.take();
}

std::string event_status(const std::vector<JobStatusView>& jobs) {
  JsonText out;
  out << "{\"event\": \"status\", \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) out << ", ";
    out << "{\"job\": " << jobs[i].job << ", \"command\": \"" << to_string(jobs[i].command)
        << "\", \"state\": \"" << json_escape(jobs[i].state) << "\"}";
  }
  out << "]}";
  return out.take();
}

std::string event_cache_stats(const xplore::CacheStats& stats) {
  JsonText out;
  out << "{\"event\": \"cache_stats\", ";
  append_cache_stats(out, stats);
  out << "}";
  return out.take();
}

std::string event_metrics(const ServerMetricsView& view) {
  return metrics_payload("metrics", view);
}

std::string event_stats(const ServerMetricsView& view) { return metrics_payload("stats", view); }

std::string event_cancelled(std::uint64_t job, bool found) {
  JsonText out;
  out << "{\"event\": \"cancelled\", \"job\": " << job
      << ", \"found\": " << json_bool(found) << "}";
  return out.take();
}

std::string event_shutdown() { return "{\"event\": \"shutdown\"}"; }

std::string event_error(const std::string& message) {
  return "{\"event\": \"error\", \"message\": \"" + json_escape(message) + "\"}";
}

}  // namespace mhla::serve
