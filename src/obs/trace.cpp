#include "obs/trace.h"

#include <algorithm>

#include "core/json.h"

namespace mhla::obs {

namespace {

/// Microseconds with nanosecond fraction, as Chrome's "ts"/"dur" expect.
std::string micros(std::uint64_t ns) {
  core::JsonText out;
  out << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
      << static_cast<char>('0' + (ns % 100) / 10) << static_cast<char>('0' + ns % 10);
  return out.take();
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
}

Tracer::Ring& Tracer::local_ring() {
  thread_local std::shared_ptr<Ring> ring;
  if (!ring) {
    ring = std::make_shared<Ring>();
    ring->capacity = ring_capacity_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(rings_mu_);
    ring->tid = static_cast<int>(rings_.size());
    rings_.push_back(ring);
  }
  return *ring;
}

void Tracer::push(Ring& ring, TraceEvent event) {
  std::lock_guard<std::mutex> lock(ring.mu);
  event.tid = ring.tid;
  if (ring.events.size() >= ring.capacity) {
    ring.events.pop_front();  // drop oldest: keep the most recent window
    ++ring.dropped;
  }
  ring.events.push_back(std::move(event));
}

void Tracer::record_complete(std::string name, const char* cat, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::string args_json) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.cat = cat;
  event.phase = 'X';
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.args_json = std::move(args_json);
  push(local_ring(), std::move(event));
}

void Tracer::instant(std::string name, const char* cat, std::string args_json) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.cat = cat;
  event.phase = 'i';
  event.ts_ns = now_ns();
  event.args_json = std::move(args_json);
  push(local_ring(), std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    out.insert(out.end(), ring->events.begin(), ring->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  std::uint64_t total = 0;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.clear();
    ring->dropped = 0;
  }
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  ring_capacity_.store(capacity ? capacity : 1, std::memory_order_relaxed);
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> all = events();
  core::JsonText out;
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const TraceEvent& event = all[i];
    out << (i ? "," : "") << "\n    {\"name\": \"" << core::json_escape(event.name)
        << "\", \"cat\": \"" << core::json_escape(event.cat) << "\", \"ph\": \"" << event.phase
        << "\", \"ts\": " << micros(event.ts_ns);
    if (event.phase == 'X') out << ", \"dur\": " << micros(event.dur_ns);
    if (event.phase == 'i') out << ", \"s\": \"t\"";
    out << ", \"pid\": 1, \"tid\": " << event.tid;
    if (!event.args_json.empty()) out << ", \"args\": " << event.args_json;
    out << "}";
  }
  out << (all.empty() ? "" : "\n  ") << "]\n}\n";
  return out.take();
}

Span::Span(std::string name, const char* cat)
    : name_(std::move(name)), cat_(cat), start_ns_(Tracer::instance().now_ns()) {}

double Span::seconds() const {
  std::uint64_t end = finished_ ? end_ns_ : Tracer::instance().now_ns();
  return static_cast<double>(end - start_ns_) * 1e-9;
}

double Span::finish() {
  if (!finished_) {
    finished_ = true;
    end_ns_ = Tracer::instance().now_ns();
    Tracer::instance().record_complete(std::move(name_), cat_, start_ns_, end_ns_,
                                       std::move(args_));
  }
  return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
}

}  // namespace mhla::obs
