#pragma once

// Shared vocabulary of the end-to-end benchmark: generated inputs, the op
// log a workload fills, the metric report, and the layer probes every traced
// run executes on its workload's inputs.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "explore/pareto.h"

namespace mhla::ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

/// Bit-exact double comparison (the golden checks must not round).
bool same_bits(double a, double b);

/// Hex-float text that reads back bit for bit with strtod.
std::string hex_double(double value);

/// One generated program, as the .mhla text the library is handed.
struct Program {
  std::string name;
  std::string text;
};

/// One pipeline input: a program (index into the workload's programs) and
/// the full config of the run.
struct Cell {
  std::string name;
  int program = 0;
  core::PipelineConfig config;
};

/// A branch-and-bound instance: a program at a platform, searched to
/// completion (`max_states` = 0) or capped.
struct BnbCase {
  std::string name;
  int program = 0;
  mem::PlatformConfig platform;
  long max_states = 0;
};

/// What the serve answer to one submit must be: the cost pair of the point
/// the server reports (TE'd when a transfer engine exists) and the status.
struct SubmitAnswer {
  double cycles = 0.0;
  double energy_nj = 0.0;
  assign::SearchStatus status = assign::SearchStatus::Feasible;
};

/// One explore request and what its stream must report on a fresh cache.
struct ExploreJob {
  int program = 0;
  core::PipelineConfig config;
  std::size_t budget = 0;
  std::size_t evaluations = 0;
  std::size_t rounds = 0;
  std::vector<xplore::TradeoffPoint> frontier;
};

/// Everything the layer probes read: the workload's own generated inputs.
struct ProbeInputs {
  std::vector<Program> programs;
  std::vector<Cell> cells;  ///< pipeline cells, in a seeded order
  std::vector<BnbCase> bnb;
  std::vector<ExploreJob> explores;
};

/// Latency samples in a fixed buffer, written once up front: the first
/// kCapacity values verbatim, then a uniform reservoir sample (fixed seed).
/// The buffer never grows with the number of ops, so neither does
/// peak_rss_mb.  `size()` counts every value pushed.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  Samples() : kept_(kCapacity, 0.0) {}
  void push_back(double value);
  std::size_t size() const { return seen_; }
  bool empty() const { return seen_ == 0; }
  operator std::vector<double>() const {
    return {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(std::min(seen_, kCapacity))};
  }

 private:
  std::vector<double> kept_;
  std::size_t seen_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// The timed loop's record.  `op_ms` holds every op; `hit_ms` the ops a
/// cache answered and `miss_ms` the ones it did not (workloads with a
/// cache only).  A failed op is one that threw or whose output differed
/// from what it must be.
struct OpLog {
  Samples op_ms;
  Samples hit_ms;
  Samples miss_ms;
  /// Fastest run of each op that repeats identical work, indexed by the op
  /// (infinity until it first runs); filled by record_repeat only.
  std::vector<double> best_ms;
  long attempted = 0;
  long failed = 0;
  double busy_s = 0.0;

  void record(double ms, bool ok) {
    op_ms.push_back(ms);
    ++attempted;
    if (!ok) ++failed;
  }

  /// record() for a workload whose ops repeat: `op` names the work.
  void record_repeat(std::size_t op, double ms, bool ok) {
    record(ms, ok);
    if (op >= best_ms.size()) best_ms.resize(op + 1, std::numeric_limits<double>::infinity());
    best_ms[op] = std::min(best_ms[op], ms);
  }
};

/// Named metrics with unit and sample count, printed as a table and then
/// selected into the final JSON line.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void add(std::string name, double value, std::string unit, std::size_t samples);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Threads the benchmark pins everywhere (explorer, bnb-par): the machine's
/// hardware threads, never the library's 0 = auto.
unsigned pinned_threads();

/// Times the steps of a set-up that runs several times, each run cut into
/// the same steps in the same order, and keeps each step's fastest time.
/// `begin()` starts a set-up, each `lap()` ends the step in progress (and
/// starts the next), so the steps of one set-up add up to all of it.
class StepTimes {
 public:
  void begin() {
    step_ = 0;
    last_ = Clock::now();
  }

  void lap() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    if (step_ == best_s_.size()) best_s_.push_back(s);
    best_s_[step_] = std::min(best_s_[step_], s);
    ++step_;
    last_ = now;
  }

  /// Sum over the steps of each one's fastest time.
  double best_total_s() const {
    double total = 0.0;
    for (double s : best_s_) total += s;
    return total;
  }

 private:
  std::vector<double> best_s_;
  std::size_t step_ = 0;
  Clock::time_point last_;
};

/// One benchmark workload.  `setup` rebuilds every input from the seed (it
/// runs several times; set-up time is a metric), `run` drives ops closed-
/// loop for `seconds`, and `probe_inputs` hands the layer probes the same
/// inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void run(double seconds, OpLog& log) = 0;
  virtual const ProbeInputs& probe_inputs() const = 0;

  /// Ops checked during set-up (e.g. a warm-up pass over every golden
  /// cell); they count toward attempted/failed.
  long setup_attempted = 0;
  long setup_failed = 0;
  /// The caller begins and ends each set-up; `setup` laps between steps
  /// (one per checked cell or reference search), so setup_s can score each
  /// step by its fastest run.
  StepTimes setup_steps;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& golden_dir);
const std::vector<std::string>& workload_names();

/// Write the golden files (pipeline_sweep and exact_search) into `dir`.
void write_golden(const std::string& dir);

// ---- layer probes (traced runs) ---------------------------------------------

/// Pipeline decomposition: parse, workspace, engine ctor, search, TE, the
/// three other simulations, against an untraced Pipeline op on the same cell.
/// Returns the mean untraced op in ms.
double probe_pipeline(const ProbeInputs& inputs, Report& report);
void probe_bnb(const ProbeInputs& inputs, Report& report);
/// Cold Explorer runs, then warm replays whose frontier checks go to `checks`.
void probe_explore(const ProbeInputs& inputs, double mean_pipeline_ms, OpLog& checks,
                   Report& report);
/// Serve stages around a short closed-loop serve round on a sample of the
/// cells; the round's answer checks go to `checks`.
void probe_serve(const ProbeInputs& inputs, std::uint64_t seed, OpLog& checks, Report& report);

// ---- serve load ---------------------------------------------------------------

/// The request lines of a serve load and the answer each must get: submits
/// are checked against an in-process Pipeline run of the same cell,
/// explores against an in-process Explorer run on a fresh cache.
struct ServeSet {
  std::vector<std::string> submit_lines;
  std::vector<SubmitAnswer> answers;  ///< aligned with submit_lines
  std::vector<std::string> explore_lines;
  std::vector<ExploreJob> explores;   ///< aligned with explore_lines
};

/// Build the lines for `cells` (indices into inputs.cells) and every
/// explore of `inputs`, running the in-process references; with `steps`,
/// each cell is a set-up step.
ServeSet make_serve_set(const ProbeInputs& inputs, const std::vector<std::size_t>& cells,
                        StepTimes* steps = nullptr);

/// In-process Explorer run of one explore job (fills its expectations).
void explore_reference(const ProbeInputs& inputs, ExploreJob& job);

/// One client request of a serve stream.
struct ServeOp {
  enum class Kind { Miss, Hit, Explore } kind = Kind::Miss;
  int index = 0;  ///< submit line (Miss/Hit) or explore line
};

/// Seeded streams for `connections` connections: each submit line is sent
/// once (a miss) by the one connection that owns it, followed by
/// `hits_per_miss` repeats of lines that connection already got answered;
/// the explores are spread over the connections.  Owners are disjoint, so
/// hit or miss never depends on how the connections interleave.
std::vector<std::vector<ServeOp>> serve_streams(std::size_t submits, std::size_t explores,
                                                int connections, int hits_per_miss,
                                                std::uint64_t seed);

struct ServeRoundStats {
  std::int64_t queue_depth_max = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Start a fresh server (2 workers, unbounded cache), open one connection
/// per stream and drive every stream closed-loop from this one thread until
/// the streams end or `seconds` pass.  Latencies and checks go to `log`
/// (busy time added to log.busy_s).  With `stats`, one more connection
/// samples the `metrics` verb every few completed ops.
void serve_round(const ServeSet& set, const std::vector<std::vector<ServeOp>>& streams,
                 double seconds, OpLog& log, ServeRoundStats* stats);

}  // namespace mhla::ebench
