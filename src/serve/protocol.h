#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "explore/cache.h"
#include "explore/explorer.h"
#include "obs/metrics.h"

namespace mhla::serve {

/// The verbs of the mhla_serve wire protocol.  Every request is one JSON
/// object on one line (see serve/framing.h) carrying a "cmd" key with the
/// snake_case verb name; every reply is a stream of event objects (below).
enum class Command {
  Submit,      ///< run one pipeline on one program/config
  Explore,     ///< run a lattice exploration, streaming frontier events
  Status,      ///< report queued/running/finished jobs
  Cancel,      ///< raise a job's cancel flag
  CacheStats,  ///< report the process-wide result-cache counters
  Metrics,     ///< snapshot the server's job/queue/cache/connection metrics
  Shutdown,    ///< drain and stop the server
};

std::string to_string(Command command);

/// Lattice parameters of an `explore` request.  Empty axes / strategies fall
/// back to `xplore::default_explorer()`'s lattice on the server, so a
/// minimal request explores the paper's default design space.
struct ExploreParams {
  std::vector<xplore::i64> l1_axis;
  std::vector<xplore::i64> l2_axis;
  std::vector<std::string> strategies;
  bool explore_te = false;
  std::size_t seed_stride = 2;
  std::size_t budget = 0;  ///< evaluation-cell cap; 0 = unlimited

  friend bool operator==(const ExploreParams&, const ExploreParams&) = default;
};

/// One parsed request line.
///
/// Request keys by command:
///   submit   — "program" (.mhla text, required), "config" (PipelineConfig
///              object, optional; defaults apply).  Deadlines/probe budgets
///              ride inside config.search ("deadline_seconds"/"max_probes").
///   explore  — as submit, plus "l1_axis"/"l2_axis" (byte arrays),
///              "strategies" (names), "explore_te", "seed_stride", "budget".
///   status   — optional "job" to narrow to one job.
///   cancel   — "job" (required).
///   metrics  — optional "stream" (bool): subscribe this connection to the
///              server's periodic `stats` events (requires the server to run
///              with a stats interval; the immediate snapshot always comes).
///   cache_stats, shutdown — no operands.
struct Request {
  Command command = Command::Status;
  std::string program_text;
  core::PipelineConfig config;
  bool has_config = false;
  ExploreParams explore;
  std::uint64_t job = 0;
  bool has_job = false;
  bool stream_stats = false;
};

/// Parse one request line.  Throws std::invalid_argument on malformed JSON,
/// an unknown "cmd", an unknown key, a missing operand, or a config object
/// that `core::pipeline_config_from_json` rejects — the server turns the
/// message into an `error` event verbatim.
Request parse_request(const std::string& line);

/// Serialize a request to its wire line (the client side of parse_request;
/// `parse_request(to_json(r))` reproduces `r`).
std::string to_json(const Request& request);

/// ---- Event builders ------------------------------------------------------
///
/// Every reply line is an object with an "event" key:
///   accepted    — {"event":"accepted","job":N,"command":"explore"}
///   frontier    — incremental explore progress after each wave: counters
///                 plus the current frontier with full cell coordinates
///   done        — terminal event of a submit/explore job ("state" is
///                 "done"/"cancelled"/"failed"; submit carries the search
///                 status, certified gap, measured cost pair and "stop",
///                 explore carries the exploration counters and "stop")
///   status      — {"event":"status","jobs":[{"job":N,"command":..,"state":..}]}
///   cache_stats — the ResultCache counters
///   cancelled   — cancel acknowledgement ({"found":false} for unknown jobs)
///   shutdown    — shutdown acknowledgement
///   error       — {"event":"error","message":...}

std::string event_accepted(std::uint64_t job, Command command);

std::string event_frontier(std::uint64_t job, const xplore::ExploreResult& result);

/// Terminal event of an explore job.
std::string event_done_explore(std::uint64_t job, const std::string& state,
                               const xplore::ExploreResult& result);

/// Terminal event of a submit job.  `gap` < 0 means "no certified gap".
std::string event_done_submit(std::uint64_t job, const std::string& state,
                              assign::SearchStatus status, double gap, double cycles,
                              double energy_nj, bool from_cache, std::size_t evaluations,
                              core::StopReason stop = core::StopReason::None);

/// Terminal event of a job that failed before producing a result.
std::string event_done_failed(std::uint64_t job, const std::string& message);

/// Terminal event of a job cancelled before any worker picked it up (the
/// queued-cancel and shutdown-drop paths): no result, stop "cancelled".
std::string event_done_cancelled(std::uint64_t job);

/// One row of a status report.
struct JobStatusView {
  std::uint64_t job = 0;
  Command command = Command::Submit;
  std::string state;
};

std::string event_status(const std::vector<JobStatusView>& jobs);

std::string event_cache_stats(const xplore::CacheStats& stats);

/// Point-in-time server metrics, assembled by the server from the one set
/// of live cells (queue gauge, session list, cache counters) that every
/// other surface reads too.
struct ServerMetricsView {
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_tracked = 0;  ///< registry size: in-flight + retained terminals
  std::int64_t queue_depth = 0;
  std::int64_t connections = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t lines_sent = 0;
  double uptime_seconds = 0.0;
  xplore::CacheStats cache;
  /// Per-phase latency histograms in µs (see Server), reported as
  /// `"latency_us": {"<phase>": {"count", "p50", "p99"}}` — the p50/p99
  /// values are the inclusive upper bounds of their power-of-two buckets.
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> latency_us;
  /// The process-wide work-stealing pool, reported as `"pool":
  /// {"threads_started", "idle_us": {"count", "p50", "p99"}}`: helper
  /// threads started so far and each pool worker's idle µs per run.
  std::uint64_t pool_threads_started = 0;
  obs::HistogramSnapshot pool_idle_us;
  /// The process's design-point searches, reported as `"search":
  /// {"evaluations", "exact_folds"}` (registry `search.evaluations`,
  /// `search.exact_folds`): moves scored, and moves greedy scored on the
  /// canonical fold.
  std::uint64_t search_evaluations = 0;
  std::uint64_t search_exact_folds = 0;
};

/// Reply to the `metrics` verb ({"event":"metrics",...}).
std::string event_metrics(const ServerMetricsView& view);

/// Periodic broadcast variant ({"event":"stats",...}, same payload): one
/// line per interval to every subscribed connection.
std::string event_stats(const ServerMetricsView& view);

std::string event_cancelled(std::uint64_t job, bool found);

std::string event_shutdown();

std::string event_error(const std::string& message);

}  // namespace mhla::serve
