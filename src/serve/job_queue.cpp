#include "serve/job_queue.h"

#include <algorithm>

#include "obs/trace.h"

namespace mhla::serve {

std::string to_string(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "?";
}

std::shared_ptr<Job> JobQueue::accept(JobSpec spec, std::shared_ptr<EventSink> sink) {
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->sink = std::move(sink);
  job->accepted_ns = obs::Tracer::instance().now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return nullptr;
    job->id = next_id_++;
    jobs_.emplace(job->id, job);
  }
  accepted_.add();
  return job;
}

bool JobQueue::enqueue(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      // Accepted but never ran: a terminal Failed, not Cancelled — nobody
      // asked for it to stop, the server refused it.  Retire immediately so
      // shutdown-window rejects don't pin map entries.
      job->state.store(JobState::Failed, std::memory_order_relaxed);
      retire_locked(job->id);
      return false;
    }
    queue_.push_back(job);
    depth_.set(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

std::shared_ptr<Job> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;
  std::shared_ptr<Job> job = std::move(queue_.front());
  queue_.pop_front();
  depth_.set(static_cast<std::int64_t>(queue_.size()));
  job->state.store(JobState::Running, std::memory_order_relaxed);
  job->started_ns = obs::Tracer::instance().now_ns();
  return job;
}

void JobQueue::finish(Job& job, JobState state) {
  job.state.store(state, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  retire_locked(job.id);
}

CancelOutcome JobQueue::cancel(std::uint64_t id, std::shared_ptr<Job>* dequeued) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return CancelOutcome::NotFound;
  // Hold the job by value: retire_locked below may erase map entries
  // (including, in principle, this one) and invalidate the iterator.
  std::shared_ptr<Job> job = it->second;
  job->cancel->store(true, std::memory_order_relaxed);
  if (job->state.load(std::memory_order_relaxed) == JobState::Queued) {
    auto pos = std::find_if(queue_.begin(), queue_.end(),
                            [&](const std::shared_ptr<Job>& q) { return q->id == id; });
    if (pos != queue_.end()) {
      queue_.erase(pos);
      depth_.set(static_cast<std::int64_t>(queue_.size()));
      job->state.store(JobState::Cancelled, std::memory_order_relaxed);
      retire_locked(id);
      if (dequeued) *dequeued = std::move(job);
      return CancelOutcome::Dequeued;
    }
    // Not in the queue despite the Queued state: a worker is between pop()
    // and the Running store, or the job was accepted but not yet enqueued.
    // Either way the flag is set and the runner will observe it.
  }
  return CancelOutcome::Signalled;
}

std::vector<JobStatusView> JobQueue::snapshot(bool has_filter, std::uint64_t only_job) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatusView> rows;
  for (const auto& [id, job] : jobs_) {
    if (has_filter && id != only_job) continue;
    rows.push_back({id, job->spec.command,
                    to_string(job->state.load(std::memory_order_relaxed))});
  }
  return rows;
}

std::vector<std::shared_ptr<Job>> JobQueue::close() {
  std::vector<std::shared_ptr<Job>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (const auto& job : queue_) {
      job->cancel->store(true, std::memory_order_relaxed);
      job->state.store(JobState::Cancelled, std::memory_order_relaxed);
    }
    dropped.assign(queue_.begin(), queue_.end());
    queue_.clear();
    depth_.set(0);
    for (const auto& job : dropped) retire_locked(job->id);
  }
  cv_.notify_all();
  return dropped;
}

void JobQueue::cancel_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, job] : jobs_) {
    JobState state = job->state.load(std::memory_order_relaxed);
    if (state == JobState::Queued || state == JobState::Running) {
      job->cancel->store(true, std::memory_order_relaxed);
    }
  }
}

void JobQueue::retire_locked(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  // Up to retain_terminal_ jobs stay registered: without this each would
  // pin a parsed program for as long as it is retained.
  JobSpec& spec = it->second->spec;
  spec.program.reset();
  spec.config = {};
  spec.explore = {};
  terminal_fifo_.push_back(id);
  while (terminal_fifo_.size() > retain_terminal_) {
    jobs_.erase(terminal_fifo_.front());
    terminal_fifo_.pop_front();
  }
}

}  // namespace mhla::serve
