#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// Compile-time gate over the span tracer.  Building with
/// -DMHLA_OBS_ENABLED=0 turns every record path into dead code (spans still
/// measure time — the pipeline's stage timings come from them — but nothing
/// is ever buffered).  Counters and gauges are not gated: a relaxed add is
/// cheaper than the branch that would guard it.
#ifndef MHLA_OBS_ENABLED
#define MHLA_OBS_ENABLED 1
#endif

namespace mhla::obs {

/// One buffered trace event, in the vocabulary of the Chrome trace-event
/// format: a complete span ('X') or an instant ('i').  Timestamps are
/// nanoseconds on the process-wide monotonic clock, offset from the
/// tracer's epoch (first use), so exported traces start near t=0.
struct TraceEvent {
  std::string name;
  const char* cat = "mhla";
  char phase = 'X';
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  int tid = 0;
  std::string args_json;  ///< preformatted JSON object ("{...}") or empty
};

/// Process-wide span tracer.  Disabled (the default) it is one relaxed
/// atomic load per record attempt; enabled, each event goes into the
/// calling thread's bounded ring buffer (per-ring mutex — recording is
/// coarse-grained, so a lock per span is noise next to the work the span
/// measures, and it keeps export/record interleavings TSan-clean).  Rings
/// drop their *oldest* event on overflow: a long run keeps the most recent
/// window, which is the one you want in a post-mortem.  Rings are owned by
/// shared_ptr and survive thread exit, so export after a thread has
/// exited still sees its events.  Thread ids are small integers handed
/// out at first record per thread.
class Tracer {
 public:
  static constexpr bool kCompiledIn = MHLA_OBS_ENABLED != 0;
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  using Clock = std::chrono::steady_clock;

  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return kCompiledIn && enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer epoch.  Always available (spans use it
  /// for their elapsed time even when tracing is off).
  std::uint64_t now_ns() const;

  /// Buffer a complete span.  No-op when disabled.
  void record_complete(std::string name, const char* cat, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::string args_json = {});

  /// Buffer an instant event at now.  No-op when disabled.
  void instant(std::string name, const char* cat, std::string args_json = {});

  /// Every buffered event across all rings, sorted by timestamp.
  std::vector<TraceEvent> events() const;

  /// Events dropped to ring overflow, across all rings.
  std::uint64_t dropped() const;

  /// Drop every buffered event (rings stay registered).
  void clear();

  /// Capacity of rings created after this call (existing rings keep theirs).
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const { return ring_capacity_.load(std::memory_order_relaxed); }

  /// The full buffer as a Chrome trace-event JSON document ("traceEvents"
  /// array of "X"/"i" phases, microsecond timestamps) — load it in Perfetto
  /// or chrome://tracing.  Parses with core/json.
  std::string chrome_trace_json() const;

 private:
  struct Ring {
    std::mutex mu;
    std::deque<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::size_t capacity = kDefaultRingCapacity;
    int tid = 0;
  };

  Tracer();
  Ring& local_ring();
  void push(Ring& ring, TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  Clock::time_point epoch_;
  mutable std::mutex rings_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// RAII span on the process tracer.  Construction stamps the start on the
/// monotonic clock unconditionally — `seconds()` works with tracing off, so
/// callers that need wall-clock (the pipeline's StageTiming rows) read it
/// from the span instead of timing separately.  `finish()` stops the clock,
/// buffers the event if the tracer is enabled, and returns the elapsed
/// seconds; the destructor finishes implicitly.
class Span {
 public:
  explicit Span(std::string name, const char* cat = "mhla");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Elapsed seconds so far (or the final elapsed time once finished).
  double seconds() const;

  /// Attach a preformatted JSON object as the span's args.
  void set_args(std::string args_json) { args_ = std::move(args_json); }

  double finish();

 private:
  std::string name_;
  const char* cat_;
  std::string args_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  bool finished_ = false;
};

}  // namespace mhla::obs
