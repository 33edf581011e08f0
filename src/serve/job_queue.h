#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace mhla::serve {

/// Lifecycle of one server job.
enum class JobState {
  Queued,     ///< accepted, waiting for a worker
  Running,    ///< a worker is on it
  Done,       ///< finished with a result
  Cancelled,  ///< cancel flag bound before completion (anytime result sent)
  Failed,     ///< the run threw; the error went out as the terminal event
};

std::string to_string(JobState state);

/// Where a job's events are written.  Implemented by the server's per-
/// connection session; `send` returns false once the peer is gone, which
/// the workers treat as "stop reporting, keep computing" — the job still
/// runs to completion (or cancel) and its results still warm the cache.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual bool send(const std::string& line) = 0;
};

/// Everything a worker needs to run one job.  The session parses the
/// request's program once, at submission (a syntax error is an `error`
/// event, never a job), and the parsed program moves into the job: the
/// worker builds its workspace or exploration straight from it.  A submit
/// also carries the cell key the session computed for its cache lookup
/// (over the canonical serialization, see xplore::design_cache_key), so a
/// miss is neither re-parsed nor re-keyed.  JobQueue drops the payload
/// when the job turns terminal: retained jobs answer `status` from id,
/// command and state alone.
struct JobSpec {
  Command command = Command::Submit;
  std::optional<ir::Program> program;
  std::uint64_t key = 0;  ///< submit: the design cell's cache key
  core::PipelineConfig config;
  ExploreParams explore;
};

/// One accepted job.  The cancel flag doubles as the budget's cancel token:
/// the worker threads it into the run's `core::BudgetSpec`, so a `cancel`
/// request reaches a mid-flight search through the ordinary cooperative
/// probe path and the job drains with an anytime result (stop Cancelled).
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  std::shared_ptr<std::atomic<bool>> cancel = std::make_shared<std::atomic<bool>>(false);
  std::atomic<JobState> state{JobState::Queued};
  std::shared_ptr<EventSink> sink;
  /// Tracer timestamps of the lifecycle (accept / worker pickup), so the
  /// server can emit queue-wait and run spans without re-reading clocks.
  std::uint64_t accepted_ns = 0;
  std::uint64_t started_ns = 0;
};

/// What a cancel request actually did (see JobQueue::cancel).
enum class CancelOutcome {
  NotFound,   ///< unknown (or already retention-pruned) job id
  Signalled,  ///< cancel flag raised; a running job drains through its budget
  Dequeued,   ///< still queued: removed before any worker saw it, now Cancelled
};

/// FIFO queue plus registry of the jobs the server has accepted.  Terminal
/// jobs are retained for `status` queries only up to a bounded window
/// (`retain_terminal`, FIFO over completion order) — without the bound a
/// long-running server leaks one map entry per request.  All methods are thread-safe; `pop` blocks until a job is
/// available or the queue is closed.
class JobQueue {
 public:
  explicit JobQueue(std::size_t retain_terminal = 1024)
      : retain_terminal_(retain_terminal) {}

  /// Accept a job: assign the next id and register it, but do NOT hand it
  /// to the workers yet.  Returns null (and drops the job) once the queue
  /// is closed.  Acceptance and enqueueing are split deliberately: the
  /// server must put the `accepted` event on the wire before a worker can
  /// possibly emit the job's terminal event (an invalid program fails in
  /// microseconds), or a client could observe `done` before `accepted`.
  /// A job answered from cache is accepted and finished on the session
  /// thread and never enqueued.
  std::shared_ptr<Job> accept(JobSpec spec, std::shared_ptr<EventSink> sink);

  /// Make an accepted job visible to the workers.  False once the queue is
  /// closed — the job is marked Failed and retired; it will never run and
  /// the caller owes the client a terminal event (and the failed counter a
  /// bump, to keep accepted == done + failed + cancelled + in-flight).
  bool enqueue(const std::shared_ptr<Job>& job);

  /// Next job for a worker; null once the queue is closed and drained.
  /// Marks the job Running before returning it.
  std::shared_ptr<Job> pop();

  /// Record a job's terminal state and retire it into the bounded retention
  /// window, dropping its program and config.  Every terminal transition
  /// must go through here (or through the internal paths of
  /// cancel/close/enqueue-on-closed) or the job would be tracked forever.
  void finish(Job& job, JobState state);

  /// Cancel a job.  A job still sitting in the queue is *dequeued*: marked
  /// Cancelled and retired immediately, never burning a worker — the caller
  /// owes its submitter the terminal event (`dequeued` receives the job).
  /// Otherwise the cancel flag is raised and a running job drains through
  /// its cooperative budget probes; cancelling a finished job is a harmless
  /// Signalled no-op.
  CancelOutcome cancel(std::uint64_t id, std::shared_ptr<Job>* dequeued = nullptr);

  /// Status rows of every tracked job (recent terminals plus everything
  /// in flight), in id order — or of one job when `only_job` is set (empty
  /// vector for an unknown or pruned id).
  std::vector<JobStatusView> snapshot(bool has_filter = false,
                                      std::uint64_t only_job = 0) const;

  /// Stop accepting and wake every blocked pop() with null.  Queued jobs no
  /// worker claimed are marked Cancelled, retired, and returned so the
  /// caller can count them and emit their terminal events.
  std::vector<std::shared_ptr<Job>> close();

  /// Raise every unfinished job's cancel flag (shutdown path: running jobs
  /// drain through their budgets).
  void cancel_all();

  /// Jobs currently enqueued and not yet claimed by a worker.  Reads the
  /// same gauge `enqueue`/`pop`/`close` maintain — the one depth cell the
  /// `metrics` verb and any registry source report (no second hand count).
  std::int64_t depth() const { return depth_.value(); }

  /// Monotonic counters over the queue's whole life.
  std::uint64_t accepted_total() const { return accepted_.value(); }

  /// Jobs currently held in the registry: in-flight plus retained
  /// terminals.  Bounded by in-flight + retain_terminal.
  std::size_t tracked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
  }

 private:
  /// Drop the job's payload, push `id` onto the terminal FIFO and prune the
  /// oldest retained terminals past the window.  Caller holds mu_; `id`
  /// must be in jobs_ (a pruned id is ignored so late finishes stay
  /// harmless).
  void retire_locked(std::uint64_t id);

  mutable std::mutex mu_;
  std::size_t retain_terminal_;
  obs::Gauge depth_;       ///< queue_.size(), maintained at every transition
  obs::Counter accepted_;  ///< jobs ever accepted
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> terminal_fifo_;  ///< retained terminal ids, oldest first
  std::uint64_t next_id_ = 1;
  bool closed_ = false;
};

}  // namespace mhla::serve
