#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "core/work_stealing.h"
#include "explore/explorer.h"
#include "ir/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/framing.h"
#include "serve/protocol.h"

namespace mhla::serve {

namespace {

/// Whole µs from `begin_ns` to `end_ns`, rounded up (so a histogram's
/// bucket bound stays an upper bound on the real latency).
std::uint64_t micros(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return end_ns > begin_ns ? (end_ns - begin_ns + 999) / 1000 : 0;
}

bool persists_periodically(const ServerConfig& config) {
  return !config.cache_path.empty() && config.persist_interval_seconds > 0.0;
}

std::string job_args(std::uint64_t job) {
  return "{\"job\": " + std::to_string(job) + "}";
}

/// `config`, once its worker count is known to be within core::kMaxThreads;
/// runs first in the constructor, before anything binds or starts.
ServerConfig checked(ServerConfig config) {
  if (config.workers > core::kMaxThreads) {
    throw std::invalid_argument("ServerConfig::workers " + std::to_string(config.workers) +
                                " above the limit " + std::to_string(core::kMaxThreads));
  }
  return config;
}

}  // namespace

/// One connection: the reader thread that parses request lines, and the
/// event sink its jobs write to.  Kept alive by shared_ptr — the server's
/// session list drops at teardown, but a job holds its sink until it
/// finishes, so a worker can never write through a destroyed session (the
/// socket is only shut down, which turns sends into harmless failures).
class Server::Session : public EventSink, public std::enable_shared_from_this<Session> {
 public:
  Session(Server& server, Socket socket) : server_(server), socket_(std::move(socket)) {}

  void start() {
    thread_ = std::thread([self = shared_from_this()] { self->loop(); });
  }

  bool send(const std::string& line) override { return send_lines({line}); }

  /// Several events as one frame, in order, with one write (a cache hit's
  /// `accepted` + `done`); the counters still count lines, not writes.
  bool send_lines(std::initializer_list<std::string_view> lines) {
    std::lock_guard<std::mutex> lock(write_mu_);
    // Count before the bytes hit the wire: a client that reacts to a line it
    // just read must find that line already in the metrics.  (A failed write
    // leaves a small overcount on a connection that is going away anyway.)
    for (std::string_view line : lines) {
      server_.bytes_sent_.add(line.size() + 1);  // +1: the newline framing
      server_.lines_sent_.add();
    }
    return write_lines(socket_, lines);
  }

  void shutdown() { socket_.shutdown_both(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  void subscribe_stats() { wants_stats_.store(true, std::memory_order_relaxed); }
  bool wants_stats() const { return wants_stats_.load(std::memory_order_relaxed); }

 private:
  void loop() {
    server_.connections_.add();
    LineReader reader(socket_);
    std::string line;
    try {
      while (reader.read_line(line)) {
        if (line.empty()) continue;
        server_.handle_request(shared_from_this(), line);
      }
    } catch (const std::exception& error) {
      send(event_error(error.what()));  // oversized line / hard socket error
    }
    server_.connections_.sub();
    finished_.store(true, std::memory_order_release);
    // Last act of the reader thread: hand ourselves to the reaper so the
    // thread is joined promptly (not only when the next connection lands).
    server_.on_session_exit(shared_from_this());
  }

  Server& server_;
  Socket socket_;
  std::mutex write_mu_;
  std::thread thread_;
  std::atomic<bool> finished_{false};
  std::atomic<bool> wants_stats_{false};
};

Server::Server(ServerConfig config)
    : config_(checked(std::move(config))),
      cache_(config_.cache_max_entries),
      listener_(config_.host, config_.port),
      queue_(config_.job_retention) {
  if (!config_.cache_path.empty()) {
    xplore::ResultCache::LoadReport report = cache_.load(config_.cache_path);
    if (!report.clean) std::cerr << "mhla_serve: " << report.message << "\n";
  }
  start_ns_ = obs::Tracer::instance().now_ns();

  // Expose this instance's live cells process-wide.  Sources (not direct
  // registry counters) because tests run several servers per process; the
  // snapshot then reads exactly the cells metrics_view() reads.
  obs::Registry& registry = obs::Registry::instance();
  cache_metrics_source_ = cache_.register_metrics(registry, "serve.cache");
  metrics_source_ = registry.add_source([this](obs::MetricsSnapshot& out) {
    ServerMetricsView view = metrics_view();
    out.counters.emplace_back("serve.jobs_accepted", view.jobs_accepted);
    out.counters.emplace_back("serve.jobs_done", view.jobs_done);
    out.counters.emplace_back("serve.jobs_failed", view.jobs_failed);
    out.counters.emplace_back("serve.jobs_cancelled", view.jobs_cancelled);
    out.counters.emplace_back("serve.bytes_sent", view.bytes_sent);
    out.counters.emplace_back("serve.lines_sent", view.lines_sent);
    out.gauges.emplace_back("serve.queue_depth", view.queue_depth);
    out.gauges.emplace_back("serve.connections", view.connections);
    for (auto& [phase, histogram] : view.latency_us) {
      out.histograms.emplace_back("serve.latency_us." + phase, histogram);
    }
  });

  accept_thread_ = std::thread([this] { accept_loop(); });
  reap_thread_ = std::thread([this] { reap_loop(); });
  unsigned workers = config_.workers ? config_.workers : 2;
  for (unsigned i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  if (persists_periodically(config_) || config_.stats_interval_seconds > 0.0) {
    tick_thread_ = std::thread([this] { tick_loop(); });
  }
}

Server::~Server() { stop(); }

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stop_requested_; });
}

bool Server::wait_for(double seconds) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return stop_requested_; });
}

void Server::stop() {
  request_stop();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }

  // 1. No new connections; the acceptor drains out.
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Retire the reaper first, so from here on no other thread joins
  // sessions — stop() owns every remaining join.  The reaper drains the
  // zombie backlog on its way out; readers that exit between now and the
  // swap below park themselves on the zombie list, which step 3 collects.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    reap_stop_ = true;
  }
  reap_cv_.notify_all();
  if (reap_thread_.joinable()) reap_thread_.join();

  // 3. Unblock and join every reader.  Session objects stay alive through
  // the shared_ptrs their in-flight jobs hold; their sockets are only shut
  // down, so late event sends fail cleanly instead of racing destruction.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
    sessions.insert(sessions.end(), zombies_.begin(), zombies_.end());
    zombies_.clear();
  }
  for (const auto& session : sessions) session->shutdown();
  for (const auto& session : sessions) session->join();

  // 4. Cancel everything in flight and let the workers drain: running jobs
  // observe their cancel tokens through the budget probes and finish with
  // anytime results (which still warm the cache).  Queued jobs no worker
  // ever claimed come back from close(): count them and emit their terminal
  // events here, or the accepted == done+failed+cancelled invariant breaks.
  queue_.cancel_all();
  for (const std::shared_ptr<Job>& dropped : queue_.close()) {
    jobs_cancelled_.add();  // before the event: see serve_hit's ordering note
    dropped->sink->send(event_done_cancelled(dropped->id));
  }
  for (std::thread& worker : worker_threads_) {
    if (worker.joinable()) worker.join();
  }
  worker_threads_.clear();

  // 5. Stop the ticker, write the final save.
  if (tick_thread_.joinable()) tick_thread_.join();
  if (!config_.cache_path.empty()) {
    try {
      cache_.save_if_dirty(config_.cache_path);
    } catch (const std::exception& error) {
      std::cerr << "mhla_serve: final cache save failed: " << error.what() << "\n";
    }
  }

  // 6. Unhook the registry sources — the snapshot callbacks capture `this`
  // and the cache, both about to go away.
  obs::Registry& registry = obs::Registry::instance();
  registry.remove_source(metrics_source_);
  registry.remove_source(cache_metrics_source_);
}

void Server::accept_loop() {
  for (;;) {
    Socket socket = listener_.accept();
    if (!socket.valid()) return;
    auto session = std::make_shared<Session>(*this, std::move(socket));
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
    }
    session->start();
  }
}

void Server::on_session_exit(const std::shared_ptr<Session>& session) {
  bool moved = false;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = std::find(sessions_.begin(), sessions_.end(), session);
    // Absent means stop() already swapped the live list and owns the join;
    // moving the session anyway would set up a double join.
    if (it != sessions_.end()) {
      sessions_.erase(it);
      zombies_.push_back(session);
      moved = true;
    }
  }
  if (moved) reap_cv_.notify_one();
}

void Server::reap_loop() {
  std::unique_lock<std::mutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<Session>> batch;
  for (;;) {
    reap_cv_.wait(lock, [&] { return reap_stop_ || !zombies_.empty(); });
    if (zombies_.empty() && reap_stop_) return;
    batch.swap(zombies_);
    lock.unlock();
    // join() blocks only for the instants between a reader's hand-off and
    // its actual return; the destructor here may also free the Session (a
    // finished job could hold the last other reference).
    for (const auto& session : batch) session->join();
    batch.clear();
    lock.lock();
  }
}

void Server::handle_request(const std::shared_ptr<Session>& session, const std::string& line) {
  const obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t received_ns = tracer.now_ns();
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    session->send(event_error(error.what()));
    return;
  }
  const std::uint64_t parsed_ns = tracer.now_ns();
  request_parse_us_.record(micros(received_ns, parsed_ns));

  switch (request.command) {
    case Command::Submit:
    case Command::Explore: {
      JobSpec spec;
      spec.command = request.command;
      try {
        // Validate now, fail fast; the parsed program rides into the job.
        spec.program.emplace(ir::parse_program(request.program_text));
      } catch (const std::exception& error) {
        session->send(event_error(error.what()));
        return;
      }
      if (request.command == Command::Submit) {
        // A submit is its config's own cell in the TE variant, keyed over
        // the canonical serialization as the explorer keys it, so submits
        // and explores share entries and formatting never splits keys.
        spec.key = xplore::design_cache_key(ir::serialize(*spec.program), request.config,
                                            /*with_te=*/true);
        xplore::CacheEntry cached;
        const bool hit = cache_.lookup(spec.key, cached);
        key_lookup_us_.record(micros(parsed_ns, tracer.now_ns()));
        if (hit) {
          serve_hit(session, cached, received_ns);
          return;
        }
      }
      spec.config = std::move(request.config);
      spec.explore = std::move(request.explore);
      std::shared_ptr<Job> job = queue_.accept(std::move(spec), session);
      if (!job) {
        session->send(event_error("server is shutting down"));
        return;
      }
      // `accepted` must be on the wire before a worker can see the job: an
      // invalid program fails instantly, and its terminal event must never
      // overtake the acceptance.
      session->send(event_accepted(job->id, request.command));
      if (!queue_.enqueue(job)) {
        // The queue marked the job Failed and retired it; the counter must
        // follow or accepted would exceed the terminal counters forever.
        jobs_failed_.add();  // before the event: see serve_hit's ordering note
        job->sink->send(event_done_failed(job->id, "server is shutting down"));
      }
      break;
    }
    case Command::Status:
      session->send(event_status(queue_.snapshot(request.has_job, request.job)));
      break;
    case Command::Cancel: {
      std::shared_ptr<Job> dequeued;
      CancelOutcome outcome = queue_.cancel(request.job, &dequeued);
      session->send(event_cancelled(request.job, outcome != CancelOutcome::NotFound));
      if (outcome == CancelOutcome::Dequeued) {
        // The job left the queue without ever reaching a worker, so nobody
        // else will emit its terminal event — do it here, counter first.
        jobs_cancelled_.add();
        dequeued->sink->send(event_done_cancelled(dequeued->id));
      }
      break;
    }
    case Command::CacheStats:
      session->send(event_cache_stats(cache_.stats()));
      break;
    case Command::Metrics:
      // Subscribe before the snapshot goes out, so the first periodic
      // `stats` line can never precede the `metrics` acknowledgement.
      if (request.stream_stats) session->subscribe_stats();
      session->send(event_metrics(metrics_view()));
      break;
    case Command::Shutdown:
      session->send(event_shutdown());
      request_stop();
      break;
  }
}

void Server::serve_hit(const std::shared_ptr<Session>& session, const xplore::CacheEntry& cached,
                       std::uint64_t received_ns) {
  // A hit never touches the queue: it is accepted (for its id and the
  // accepted counter) and finished right here on the session thread.
  std::shared_ptr<Job> job = queue_.accept(JobSpec{}, session);  // a submit, no payload
  if (!job) {
    session->send(event_error("server is shutting down"));
    return;
  }
  queue_.finish(*job, JobState::Done);
  // Outcome counters bump *before* the terminal event goes out (here and
  // in every terminal path): a client that reads `done` and immediately
  // asks for `metrics` must find its job counted.
  jobs_done_.add();
  const double gap = cached.status == assign::SearchStatus::Optimal ? 0.0 : -1.0;
  session->send_lines({event_accepted(job->id, Command::Submit),
                       event_done_submit(job->id, "done", cached.status, gap, cached.cycles,
                                         cached.energy_nj, /*from_cache=*/true,
                                         /*evaluations=*/0)});
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t sent_ns = tracer.now_ns();
  hit_us_.record(micros(received_ns, sent_ns));
  if (tracer.enabled()) {
    tracer.record_complete("cache_hit", "serve", received_ns, sent_ns, job_args(job->id));
  }
}

void Server::worker_loop() {
  while (std::shared_ptr<Job> job = queue_.pop()) run_job(job);
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  // Job lifecycle on the timeline: the queue wait (stamped by JobQueue at
  // accept/pop) as one retroactive complete event, then the run itself as a
  // live span on this worker thread.
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::string args = job_args(job->id);
  queue_wait_us_.record(micros(job->accepted_ns, job->started_ns));
  if (tracer.enabled() && job->started_ns >= job->accepted_ns) {
    tracer.record_complete("queue_wait", "serve", job->accepted_ns, job->started_ns, args);
  }
  obs::Span span(job->spec.command == Command::Submit ? "job_submit" : "job_explore", "serve");
  span.set_args(args);

  try {
    if (job->spec.command == Command::Submit) {
      run_submit(*job);
    } else {
      run_explore(*job);
    }
  } catch (const std::exception& error) {
    queue_.finish(*job, JobState::Failed);
    jobs_failed_.add();  // before the event: see serve_hit's ordering note
    job->sink->send(event_done_failed(job->id, error.what()));
  }
  job_run_us_.record(micros(job->started_ns, tracer.now_ns()));
}

void Server::run_submit(Job& job) {
  // The job's cancel token rides into the run budget, so a `cancel` request
  // reaches the search and the TE pass through their cooperative probes.
  core::PipelineConfig config = job.spec.config;
  config.search.budget.cancel = job.cancel;
  const std::unique_ptr<core::Workspace> workspace =
      core::make_workspace(std::move(*job.spec.program), config.platform, config.dma);
  const core::PointResult point = core::Pipeline(config).evaluate(*workspace);
  // The status guard drops truncated results.
  cache_.insert(job.spec.key, xplore::cell_entry(config, /*with_te=*/true, point));

  const assign::SearchResult& search = point.search;
  const bool cancelled = search.stop == core::StopReason::Cancelled;
  queue_.finish(job, cancelled ? JobState::Cancelled : JobState::Done);
  (cancelled ? jobs_cancelled_ : jobs_done_).add();
  job.sink->send(event_done_submit(job.id, cancelled ? "cancelled" : "done", search.status,
                                   search.gap, point.sim.total_cycles(), point.sim.energy_nj,
                                   /*from_cache=*/false, /*evaluations=*/1, search.stop));
}

void Server::run_explore(Job& job) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.pipeline = job.spec.config;
  const ExploreParams& params = job.spec.explore;
  if (!params.l1_axis.empty()) config.l1_axis = params.l1_axis;
  if (!params.l2_axis.empty()) config.l2_axis = params.l2_axis;
  config.strategies = params.strategies;  // empty = {pipeline.strategy}
  config.explore_te = params.explore_te;
  config.seed_stride = params.seed_stride;
  config.budget = params.budget;
  config.pipeline.search.budget.cancel = job.cancel;

  Job* streamed = &job;
  config.on_wave = [streamed](const xplore::ExploreResult& running) {
    streamed->sink->send(event_frontier(streamed->id, running));
  };

  xplore::Explorer explorer(std::move(config));
  xplore::ExploreResult result = explorer.run(std::move(*job.spec.program), cache_);

  const bool cancelled = result.stop == core::StopReason::Cancelled;
  queue_.finish(job, cancelled ? JobState::Cancelled : JobState::Done);
  (cancelled ? jobs_cancelled_ : jobs_done_).add();
  job.sink->send(event_done_explore(job.id, cancelled ? "cancelled" : "done", result));
}

ServerMetricsView Server::metrics_view() const {
  ServerMetricsView view;
  view.jobs_accepted = queue_.accepted_total();
  view.jobs_done = jobs_done_.value();
  view.jobs_failed = jobs_failed_.value();
  view.jobs_cancelled = jobs_cancelled_.value();
  view.jobs_tracked = queue_.tracked();
  view.queue_depth = queue_.depth();
  view.connections = connections_.value();
  view.bytes_sent = bytes_sent_.value();
  view.lines_sent = lines_sent_.value();
  view.uptime_seconds =
      static_cast<double>(obs::Tracer::instance().now_ns() - start_ns_) * 1e-9;
  view.cache = cache_.stats();
  view.latency_us = {{"request_parse", request_parse_us_.snapshot()},
                     {"key_lookup", key_lookup_us_.snapshot()},
                     {"hit", hit_us_.snapshot()},
                     {"queue_wait", queue_wait_us_.snapshot()},
                     {"job_run", job_run_us_.snapshot()}};
  view.pool_threads_started = core::WorkStealingPool::helper_threads_started();
  obs::Registry& registry = obs::Registry::instance();
  view.pool_idle_us = registry.histogram("core.pool_idle_us").snapshot();
  view.search_evaluations = registry.counter("search.evaluations").value();
  view.search_exact_folds = registry.counter("search.exact_folds").value();
  return view;
}

void Server::tick_loop() {
  // One timed loop for both periodic duties: sleep until the earlier due
  // time, run what is due, and reschedule it one period after it ran.  A
  // duty without a period is never due.
  using Clock = std::chrono::steady_clock;
  auto due_after = [](double seconds) {
    return seconds > 0.0 ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds))
                         : Clock::time_point::max();
  };
  const double persist_s = persists_periodically(config_) ? config_.persist_interval_seconds : 0;
  Clock::time_point persist_due = due_after(persist_s);
  Clock::time_point stats_due = due_after(config_.stats_interval_seconds);
  std::unique_lock<std::mutex> lock(stop_mu_);
  // The final save runs in stop().
  while (!stop_cv_.wait_until(lock, std::min(persist_due, stats_due),
                              [&] { return stop_requested_; })) {
    lock.unlock();
    if (Clock::now() >= stats_due) {
      // One snapshot per tick, the same line to every subscriber — readers
      // of several connections can correlate the streams.
      std::string line = event_stats(metrics_view());
      std::vector<std::shared_ptr<Session>> sessions;
      {
        std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
        sessions = sessions_;
      }
      for (const auto& session : sessions) {
        if (session->wants_stats() && !session->finished()) session->send(line);
      }
      stats_due = due_after(config_.stats_interval_seconds);
    }
    if (Clock::now() >= persist_due) {
      try {
        cache_.save_if_dirty(config_.cache_path);
      } catch (const std::exception& error) {
        // Persistence failures must not take the server down; the previous
        // document on disk is intact (crash-safe saver) and the next tick
        // retries.
        std::cerr << "mhla_serve: periodic cache save failed: " << error.what() << "\n";
      }
      persist_due = due_after(persist_s);
    }
    lock.lock();
  }
}

}  // namespace mhla::serve
