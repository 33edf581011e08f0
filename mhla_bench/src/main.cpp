// mhla_bench: runs one workload of the end-to-end benchmark.
//
//   mhla_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--golden-dir <dir>] [--trace-dir <dir>] [--setup-reps <k>]
//   mhla_bench --write-golden <dir>
//
// Prints a provenance line, one row per metric (value, unit, sample count)
// and, as the last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics, --trace
// 1 the per-layer ones and writes the spans as a Chrome/Perfetto trace.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "bench.h"
#include "bench_common.h"
#include "obs/trace.h"

namespace mhla::ebench {
namespace {

const std::vector<std::string> kEndToEnd = {"setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "ir.parse_us",          "analysis.workspace_us", "assign.engine_build_us",
    "assign.search_us",     "assign.evaluations",    "te.time_extend_us",
    "sim.simulate_us",      "pipeline.coverage",     "assign.bnb_states",
    "assign.bnb_prunes",    "assign.prune_ratio",    "assign.bnb_serial_ms",
    "assign.bnb_par_ms",    "core.pool_speedup",     "core.pool_work_ratio",
    "explore.evaluations",  "explore.rounds",        "explore.wave_ms",
    "explore.wave_efficiency", "explore.key_us",     "explore.lookup_us",
    "explore.insert_us",    "explore.hit_ratio",     "serve.parse_us",
    "serve.event_us",       "serve.frame_us",        "serve.overhead_ms",
    "serve.queue_wait_ms",  "serve.queue_depth_max", "serve.hit_ratio",
    "obs.trace_overhead"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int setup_reps = 9;
  std::string golden_dir = "mhla_bench/golden";
  std::string trace_dir = ".bench_build/traces";
  std::string write_golden;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value);
    else if (flag == "--setup-reps") args.setup_reps = std::stoi(value);
    else if (flag == "--golden-dir") args.golden_dir = value;
    else if (flag == "--trace-dir") args.trace_dir = value;
    else if (flag == "--write-golden") args.write_golden = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!args.write_golden.empty()) return args;
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == args.workload;
  if (!known) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (args.setup_reps < 1) throw std::invalid_argument("--setup-reps must be >= 1");
  return args;
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss over exec, so it would report the
/// launcher's footprint whenever that is the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void add_op_metrics(const OpLog& log, Report& report) {
  const std::size_t ops = log.op_ms.size();
  std::vector<double> best;
  for (double ms : log.best_ms) {
    if (std::isfinite(ms)) best.push_back(ms);
  }
  if (best.empty()) {
    report.add("ops_per_s", static_cast<double>(ops) / log.busy_s, "1/s", ops);
    report.add("op_ms_p50", quantile(log.op_ms, 0.5), "ms", ops);
  } else {
    // Ops that repeat identical work are scored by each op's fastest run:
    // the shared host slows whole stretches of a run by up to 40%, which the
    // minimum over ~100 runs of an op sheds and a run-wide average keeps.
    // The run-wide figures follow as *_run.
    report.add("ops_per_s", 1e3 / mean(best), "1/s", best.size());
    report.add("op_ms_p50", median(best), "ms", best.size());
    report.add("ops_per_s_run", static_cast<double>(ops) / log.busy_s, "1/s", ops);
    report.add("op_ms_p50_run", quantile(log.op_ms, 0.5), "ms", ops);
  }
  // A tail quantile is printed only with at least ten samples beyond it.
  if (ops >= 1000) report.add("op_ms_p99", quantile(log.op_ms, 0.99), "ms", ops);
  if (!log.hit_ms.empty()) report.add("hit_ms_p50", median(log.hit_ms), "ms", log.hit_ms.size());
  if (log.hit_ms.size() >= 1000) {
    report.add("hit_ms_p99", quantile(log.hit_ms, 0.99), "ms", log.hit_ms.size());
  }
  if (!log.miss_ms.empty()) {
    report.add("miss_ms_p50", median(log.miss_ms), "ms", log.miss_ms.size());
  }
}

void write_trace(const Args& args) {
  std::filesystem::create_directories(args.trace_dir);
  std::string path = args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                     ".json";
  std::ofstream out(path);
  out << obs::Tracer::instance().chrome_trace_json();
  if (!out) throw std::runtime_error("cannot write trace " + path);
  std::cout << "trace: " << path << " (" << obs::Tracer::instance().dropped()
            << " events dropped to ring overflow)\n";
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

int run(const Args& args) {
  if (std::string(MHLA_BUILD_TYPE) != "Release") {
    std::cerr << "mhla_bench: built as '" << MHLA_BUILD_TYPE
              << "'; numbers are only reported from a Release build\n";
    return 2;
  }
  if (!args.write_golden.empty()) {
    write_golden(args.write_golden);
    return 0;
  }

  std::cout << "bench-meta: {\"run\": " << bench::run_metadata_json() << ", \"workload\": \""
            << args.workload << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << args.seconds << ", \"trace\": " << args.trace
            << ", \"threads\": " << pinned_threads() << "}\n";

  obs::Tracer& tracer = obs::Tracer::instance();
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, args.golden_dir);

  // Untraced, the set-ups alternate with equal slices of the timed loop, so
  // they see the same machine as the ops (a burst of load on the host would
  // otherwise land on a few back-to-back set-ups).  setup_s sums each set-up
  // step's fastest run, as ops_per_s does with pipeline_sweep's cells: the
  // whole-set-up median moved 20% between two sets of runs of the same code.
  std::vector<double> setup_s;
  Report report;
  OpLog log;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    workload->setup_steps.begin();
    workload->setup();
    workload->setup_steps.lap();
    setup_s.push_back(seconds_since(start));
    // A slice ends on an op boundary, off its share by up to one op (an
    // exact_search pass takes seconds), so each slice gets an equal share
    // of what is left.
    const double left = args.seconds - log.busy_s;
    if (args.trace == 0 && left > 0.0) workload->run(left / (args.setup_reps - rep), log);
  }
  report.add("setup_s", workload->setup_steps.best_total_s(), "s", setup_s.size());
  report.add("setup_s_median", median(setup_s), "s", setup_s.size());
  if (args.trace == 0) {
    add_op_metrics(log, report);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    // Half the run untraced, half traced: the tracing overhead on the op.
    OpLog traced;
    workload->run(args.seconds / 2, log);
    tracer.enable(true);
    workload->run(args.seconds / 2, traced);
    report.add("obs.trace_overhead",
               quantile(traced.op_ms, 0.5) / quantile(log.op_ms, 0.5) - 1.0, "ratio",
               traced.op_ms.size());
    log.attempted += traced.attempted;
    log.failed += traced.failed;
    // The loop's spans only served the overhead figure; the exported trace
    // keeps the probes', which every per-layer number comes from.
    tracer.clear();

    const ProbeInputs& inputs = workload->probe_inputs();
    double mean_pipeline_ms = probe_pipeline(inputs, report);
    probe_bnb(inputs, report);
    probe_explore(inputs, mean_pipeline_ms, log, report);
    probe_serve(inputs, args.seed, log, report);
    tracer.enable(false);
    write_trace(args);
  }

  const long attempted = log.attempted + workload->setup_attempted;
  const long failed = log.failed + workload->setup_failed;
  report.add("error_rate", static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
             static_cast<std::size_t>(attempted));
  for (const Report::Metric& metric : report.metrics()) {
    std::printf("metric %-26s %18.6f %-6s n=%zu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const std::vector<std::string>& names = args.trace == 0 ? kEndToEnd : kPerLayer;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Report::Metric* metric = report.find(names[i]);
    if (!metric) throw std::logic_error("metric " + names[i] + " was not measured");
    json += (i ? ", \"" : "\"") + metric->name + "\": {\"value\": " + number(metric->value) +
            ", \"unit\": \"" + metric->unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace mhla::ebench

int main(int argc, char** argv) {
  try {
    return mhla::ebench::run(mhla::ebench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "mhla_bench: " << error.what() << "\n";
    return 1;
  }
}
