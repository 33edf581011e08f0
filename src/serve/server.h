#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "explore/cache.h"
#include "serve/job_queue.h"
#include "serve/socket.h"

namespace mhla::serve {

/// Deployment knobs of one Server instance.
struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; Server::port() reports it

  /// Job workers.  Each claims whole jobs; per-job parallelism comes from
  /// the job's own config (`num_threads`), so the two multiply deliberately.
  unsigned workers = 2;

  /// Persistent cache document; empty = in-memory only.  Loaded (with the
  /// salvage semantics of ResultCache::load) at startup, written back by
  /// the periodic persister and at shutdown via the crash-safe saver.
  std::string cache_path;

  /// Persister period; <= 0 disables the periodic thread (the shutdown
  /// save still runs).
  double persist_interval_seconds = 0.0;

  /// Bound on resident cache entries; 0 = unbounded (see ResultCache).
  std::size_t cache_max_entries = 0;

  /// Period of the `stats` event broadcast to connections that subscribed
  /// via `{"cmd":"metrics","stream":true}`; <= 0 disables the broadcaster
  /// thread (the one-shot `metrics` snapshot always works).
  double stats_interval_seconds = 0.0;

  /// Terminal jobs kept in the registry for `status` queries (FIFO over
  /// completion order).  Bounds the job map: without it a long-lived server
  /// leaks one entry per request ever served.
  std::size_t job_retention = 1024;
};

/// The mhla_serve engine: a TCP server speaking the newline-delimited JSON
/// protocol of serve/protocol.h.
///
/// Threads: one acceptor, one reader per connection (the Session, which is
/// also the job's event sink), `config.workers` job workers draining one
/// JobQueue, and an optional periodic persister.  All jobs share the one
/// process-wide ResultCache, so a submit is answered from cache when any
/// earlier job — submit or explore — evaluated the same design point (see
/// xplore::design_cache_key).  The session keys and looks up every submit
/// itself; a hit is answered there, `accepted` and `done` in one write,
/// and never queued, so hits do not wait behind misses.
///
/// The constructor binds and starts serving.  A `shutdown` request only
/// *requests* the stop (wait()/wait_for() observe it); the owning thread
/// performs the actual teardown by calling stop() — never a session thread,
/// which could not join itself.
class Server {
 public:
  /// Bind, load the persistent cache, start all threads.  Throws
  /// std::runtime_error when the address cannot be bound or the cache file
  /// exists but cannot be read.
  explicit Server(ServerConfig config);

  /// Equivalent to stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return listener_.port(); }
  const ServerConfig& config() const { return config_; }
  xplore::ResultCache& cache() { return cache_; }

  /// The metrics the `metrics`/`stats` events report, read from the live
  /// cells every other surface uses: the queue's gauge/counters, the cache's
  /// counters, the session list, the framing counters and the per-phase
  /// latency histograms.
  ServerMetricsView metrics_view() const;

  /// Ask the server to stop (idempotent, callable from any thread,
  /// including session threads handling a `shutdown` request).
  void request_stop();

  /// Block until a stop has been requested.
  void wait();

  /// Wait up to `seconds`; true when a stop has been requested (a signal-
  /// handling main loop polls this between checks of its own flag).
  bool wait_for(double seconds);

  /// Full teardown: stop accepting, unblock and join every session, drain
  /// the job queue (running jobs are cancelled and finish with anytime
  /// results), join the workers and the persister, write the final cache
  /// save.  Idempotent; must not be called from a session thread.
  void stop();

 private:
  class Session;

  void accept_loop();
  void worker_loop();
  void persist_loop();
  void stats_loop();
  void reap_loop();
  /// Called by a session's reader thread as its last act: move the session
  /// from the live list to the zombie list and wake the reaper, so exited
  /// readers are joined promptly instead of lingering until the next accept
  /// (or forever, on a server that stops getting connections).  During
  /// stop() the live list is already swapped out, so the session is absent
  /// and stop() keeps sole ownership of the join.
  void on_session_exit(const std::shared_ptr<Session>& session);
  void handle_request(const std::shared_ptr<Session>& session, const std::string& line);
  /// Answer a cache hit on the session thread (see the class comment).
  void serve_hit(const std::shared_ptr<Session>& session, const xplore::CacheEntry& cached,
                 std::uint64_t received_ns);
  void run_job(const std::shared_ptr<Job>& job);
  void run_submit(Job& job);
  void run_explore(Job& job);

  ServerConfig config_;
  xplore::ResultCache cache_;
  Listener listener_;
  JobQueue queue_;

  // Server-owned observation cells.  Members rather than registry lookups:
  // tests run several servers per process, and each instance must count its
  // own traffic.  A registry source (registered for this server's lifetime)
  // exposes them process-wide under "serve.*".
  obs::Gauge connections_;
  obs::Counter bytes_sent_;
  obs::Counter lines_sent_;
  obs::Counter jobs_done_;
  obs::Counter jobs_failed_;
  obs::Counter jobs_cancelled_;
  // Per-phase latency histograms of the request path, in µs: request parse;
  // canonicalize + key + cache lookup (submits); a hit's whole session-
  // thread service; and, for queued jobs, the queue wait and the run.
  obs::Histogram request_parse_us_;
  obs::Histogram key_lookup_us_;
  obs::Histogram hit_us_;
  obs::Histogram queue_wait_us_;
  obs::Histogram job_run_us_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t metrics_source_ = 0;
  std::uint64_t cache_metrics_source_ = 0;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<Session>> zombies_;  ///< exited, awaiting join
  std::condition_variable reap_cv_;                ///< guarded by sessions_mu_
  bool reap_stop_ = false;                         ///< guarded by sessions_mu_

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::thread persist_thread_;
  std::thread stats_thread_;
  std::thread reap_thread_;
};

}  // namespace mhla::serve
