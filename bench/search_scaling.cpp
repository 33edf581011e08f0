// Search-engine scaling: how fast the MHLA step-1 searches run on the
// incremental CostEngine (apply/undo delta evaluation, batched greedy
// scoring, branch-and-bound), how parallel branch-and-bound scales with
// threads on a dense and a pruning-heavy instance, and how the fixed
// layer-size grid (one stride-1 Explorer wave) scales across worker threads.
//
// The reproduction block prints per-app wall-clock and evaluation rates
// plus a machine-readable JSON object; the google-benchmark
// timers below repeat the measurements under its statistics (use
// --benchmark_out=<file> --benchmark_out_format=json for the standard
// BENCH JSON — stdout also carries the report block).

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "assign/cost_engine.h"
#include "assign/footprint_tracker.h"
#include "assign/search.h"
#include "core/json_report.h"
#include "core/parallel_for.h"
#include "ir/builder.h"
#include "obs/metrics.h"

// ---- binary-wide allocation counter for the data-layout block -------------
// Replacing the global operator new/delete with counting forms lets the
// steady-state measurement report exact heap allocations per engine move
// (the data_layout JSON block CI asserts to be zero).  malloc plus a relaxed
// atomic tick keeps the overhead far below timer noise.

// noinline keeps GCC from pairing an inlined malloc-backed new with an
// inlined free-backed delete at call sites (-Wmismatched-new-delete).
#if defined(__GNUC__)
#define MHLA_BENCH_NOINLINE __attribute__((noinline))
#else
#define MHLA_BENCH_NOINLINE
#endif

namespace {
std::atomic<long> g_heap_allocs{0};

MHLA_BENCH_NOINLINE void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p) g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

MHLA_BENCH_NOINLINE void counted_free(void* p) { std::free(p); }
}  // namespace

MHLA_BENCH_NOINLINE void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
MHLA_BENCH_NOINLINE void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
MHLA_BENCH_NOINLINE void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
MHLA_BENCH_NOINLINE void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
MHLA_BENCH_NOINLINE void operator delete(void* p) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete[](void* p) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
MHLA_BENCH_NOINLINE void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using namespace mhla;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The guard-64 rate instance for the parallel branch-and-bound curve:
/// three blocked 2D streams with per-block reuse plus three reused tables —
/// 26 candidates x 2 on-chip layers = 52 placements, with a ~10M-leaf
/// exact search space that the bound cuts to a handful of evaluated leaves.
ir::Program guard64_program() {
  ir::ProgramBuilder pb("guard64");
  pb.array("a", {32, 16}, 4).input();
  pb.array("b", {16}, 4).input();
  pb.array("c", {32, 16}, 4).input();
  pb.array("d", {24}, 4).input();
  pb.array("e", {32, 16}, 4).input();
  pb.array("f", {48}, 4).input();
  pb.array("o", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 2).read("a", {ir::av("i"), ir::av("j")}).read("b", {ir::av("j")});
  pb.stmt("t", 2).read("c", {ir::av("i"), ir::av("j")}).read("d", {ir::av("j")});
  pb.stmt("u", 2).read("e", {ir::av("i"), ir::av("j")}).read("f", {ir::av("j", 3)});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("g", 1).write("o", {ir::av("i")});
  pb.end_loop();
  return pb.finish();
}

mem::PlatformConfig guard64_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 640;
  platform.l2_bytes = 4096;
  return platform;
}

constexpr long kRateBudget = 50000;

/// The branch-and-bound rate instance: the registry wavelet at the default
/// platform, whose exact search runs far past `kRateBudget` nodes.  A
/// serial search that stops on the cap spends exactly that many nodes, so
/// the cap turns a serial search time into a node rate (set-up
/// included: the engine, the root bound and the greedy incumbent seed).
std::unique_ptr<core::Workspace> rate_workspace() {
  return core::make_workspace(apps::build_app("wavelet"), bench::default_platform(), {});
}

struct GreedyRow {
  std::string app;
  double engine_s = 0.0;
  int evaluations = 0;
};

struct FeasibilityRow {
  std::string app;
  long probes = 0;          ///< fits() calls per timed pass
  double tracker_s = 0.0;   ///< FootprintTracker place/feasible/undo per probe
  double greedy_tracker_s = 0.0;  ///< greedy end-to-end
};

/// The greedy hot loop distilled: probe "would this copy placement still
/// fit?" for every (unselected candidate, on-chip layer) pair on top of the
/// app's final greedy assignment, answered with tracker place/feasible/undo
/// deltas.
FeasibilityRow measure_feasibility(const apps::AppInfo& info) {
  FeasibilityRow row;
  row.app = info.name;
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  auto t0 = Clock::now();
  assign::SearchResult greedy = assign::searcher("greedy").search(ctx, {});
  row.greedy_tracker_s = seconds_since(t0);
  const assign::Assignment& base = greedy.assignment;
  const int background = ctx.hierarchy.background();

  std::vector<std::pair<int, int>> probes;  // (cc_id, layer)
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0 || base.has_copy(cc.id)) continue;
    for (int layer = 0; layer < background; ++layer) probes.emplace_back(cc.id, layer);
  }

  constexpr int kRepeats = 20;
  assign::FootprintTracker tracker(ctx, base);
  long verdicts = 0;
  t0 = Clock::now();
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (auto [cc_id, layer] : probes) {
      assign::FootprintTracker::Checkpoint cp = tracker.checkpoint();
      tracker.place_copy(cc_id, layer);
      verdicts += tracker.feasible() ? 1 : 0;
      tracker.undo_to(cp);
    }
  }
  row.tracker_s = seconds_since(t0);
  row.probes = static_cast<long>(probes.size()) * kRepeats;
  benchmark::DoNotOptimize(verdicts);
  return row;
}

struct DataLayoutRow {
  std::string app;
  long moves = 0;              ///< accepted greedy moves
  double batched_s = 0.0;      ///< greedy end-to-end (batched round scoring)
  long steady_allocs = 0;      ///< heap allocations across one full move replay
  long allocs_per_move = 0;    ///< steady_allocs / moves (CI asserts 0)
};

/// The data-layout measurements: greedy end-to-end under batched round
/// scoring, and the steady-state heap-allocation count of replaying the
/// accepted move trail on a warmed-up engine (the SoA tables, scorer
/// scratch, and arena journals make it zero by construction).
DataLayoutRow measure_data_layout(const apps::AppInfo& info) {
  DataLayoutRow row;
  row.app = info.name;
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();

  constexpr int kRepeats = 10;
  assign::SearchResult batched;
  auto t0 = Clock::now();
  for (int rep = 0; rep < kRepeats; ++rep) {
    batched = assign::searcher("greedy").search(ctx, {});
  }
  row.batched_s = seconds_since(t0) / kRepeats;
  row.moves = static_cast<long>(batched.moves.size());

  // Steady-state allocations: replay the accepted trail on a prebuilt
  // engine.  The first replay fills every lazy high-water mark; the counted
  // replay must then stay entirely inside the setup-time reservations.
  assign::CostEngine engine(ctx);
  auto replay = [&]() {
    for (const assign::GreedyMove& move : batched.moves) {
      switch (move.kind) {
        case assign::GreedyMove::Kind::SelectCopy:
          engine.select_copy(move.cc_id, move.layer);
          break;
        case assign::GreedyMove::Kind::MigrateArray:
          engine.migrate_array(engine.array_id(move.array), move.layer);
          break;
        case assign::GreedyMove::Kind::RemoveCopy:
          engine.remove_copy(move.cc_id);
          break;
      }
    }
    engine.undo_to(0);
  };
  replay();  // warm-up
  long before = g_heap_allocs.load(std::memory_order_relaxed);
  replay();
  row.steady_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  row.allocs_per_move = row.moves > 0 ? row.steady_allocs / row.moves : row.steady_allocs;
  return row;
}

/// The default lattice evaluated in full (one stride-1 Explorer wave) on
/// `threads` workers (0 = hardware concurrency).
xplore::ExplorerConfig fixed_grid(unsigned threads) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.seed_stride = 1;
  config.pipeline.num_threads = threads;
  return config;
}

/// Print the reproduction block; false when the rate instance no longer
/// binds the node cap (its node rate would then be meaningless).
bool print_scaling_report() {
  bench::print_header("Search scaling: incremental cost engine + parallel sweep",
                      "fast, accurate and automatic exploration (tool-speed claim)");

  // --- Greedy on the engine, every app of the registry.
  std::vector<GreedyRow> rows;
  core::Table table({"application", "cost evals", "engine ms", "engine evals/s"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
    auto ctx = ws->context();
    auto t0 = Clock::now();
    assign::SearchResult fast = assign::searcher("greedy").search(ctx, {});
    double engine_s = seconds_since(t0);
    rows.push_back({info.name, engine_s, fast.evaluations});
    table.add_row({info.name, std::to_string(fast.evaluations),
                   core::Table::num(engine_s * 1e3, 2),
                   core::Table::num(fast.evaluations / (engine_s > 0 ? engine_s : 1e-9), 0)});
  }
  std::cout << table.str() << "\n";

  // --- Feasibility: tracker-backed fits() probes on the two largest apps,
  // plus greedy end-to-end.
  std::vector<FeasibilityRow> feasibility;
  core::Table feas_table({"application", "probes", "tracker ms", "greedy ms"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    if (info.name != "motion_estimation" && info.name != "mpeg2_encoder") continue;
    FeasibilityRow row = measure_feasibility(info);
    feas_table.add_row({row.app, std::to_string(row.probes),
                        core::Table::num(row.tracker_s * 1e3, 2),
                        core::Table::num(row.greedy_tracker_s * 1e3, 2)});
    feasibility.push_back(std::move(row));
  }
  std::cout << "feasibility (fits() probes on the final greedy assignment):\n"
            << feas_table.str() << "\n";

  // --- Data layout: batched greedy end-to-end and the steady-state
  // allocation count of the engine move loop (zero once the setup-time
  // reservations hold; the CI bench smoke asserts it).
  std::vector<DataLayoutRow> data_layout;
  core::Table dl_table({"application", "moves", "batched ms", "batched moves/s", "allocs/move"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    if (info.name != "motion_estimation" && info.name != "mpeg2_encoder") continue;
    DataLayoutRow row = measure_data_layout(info);
    dl_table.add_row(
        {row.app, std::to_string(row.moves), core::Table::num(row.batched_s * 1e3, 3),
         core::Table::num(row.moves / (row.batched_s > 0 ? row.batched_s : 1e-9), 0),
         std::to_string(row.allocs_per_move)});
    data_layout.push_back(std::move(row));
  }
  std::cout << "data layout (batched round scoring + arena journals):\n"
            << dl_table.str() << "\n";

  // --- Branch-and-bound node rate on the rate instance (valid only while
  // the cap binds), and a medium instance under a looser cap.  One search
  // takes a few ms and a cold one can read half the rate of a warm one, so
  // the rate is the median of kRateRuns searches, printed with its spread.
  constexpr int kRateRuns = 11;
  auto ws = rate_workspace();
  auto ctx = ws->context();
  assign::SearchOptions budget_options;
  budget_options.max_states = kRateBudget;
  assign::SearchResult pruned;
  std::vector<double> run_s;
  bool rate_binds = true;
  for (int run = 0; run < kRateRuns; ++run) {
    auto t0 = Clock::now();
    pruned = assign::searcher("bnb").search(ctx, budget_options);
    run_s.push_back(seconds_since(t0));
    rate_binds = rate_binds && pruned.stop == core::StopReason::NodeCap;
  }
  std::sort(run_s.begin(), run_s.end());
  auto rate = [](double s) { return kRateBudget / (s > 0 ? s : 1e-9); };
  const double engine_s = run_s[run_s.size() / 2];
  const double nodes_per_s = rate(engine_s);
  const double nodes_per_s_min = rate(run_s.back());
  const double nodes_per_s_max = rate(run_s.front());
  std::cout << "branch-and-bound (wavelet, cap " << kRateBudget << " nodes): "
            << core::Table::num(nodes_per_s, 0) << " nodes/s (median of " << kRateRuns
            << ", min-max " << core::Table::num(nodes_per_s_min, 0) << "-"
            << core::Table::num(nodes_per_s_max, 0) << "; " << pruned.bound_prunes
            << " bound prunes, " << pruned.capacity_prunes << " capacity prunes), "
            << core::Table::num(engine_s * 1e3, 2) << " ms, stop "
            << core::to_string(pruned.stop) << "\n";
  if (!rate_binds) std::cout << "WARNING: the rate instance no longer binds the node cap\n";

  auto medium_ws = core::make_workspace(apps::build_motion_estimation(),
                                        bench::default_platform(), {});
  auto medium_ctx = medium_ws->context();
  assign::SearchOptions medium_options;
  medium_options.max_states = 200000;
  auto t0 = Clock::now();
  assign::SearchResult medium = assign::searcher("bnb").search(medium_ctx, medium_options);
  double medium_s = seconds_since(t0);
  std::cout << "branch-and-bound (motion_estimation, 46 placements, cap 200k nodes): "
            << medium.states_explored << " states, " << medium.bound_prunes
            << " bound prunes, " << medium.capacity_prunes << " capacity prunes, "
            << "stop " << core::to_string(medium.stop) << ", "
            << core::Table::num(medium_s * 1e3, 2) << " ms\n";

  // --- Parallel branch-and-bound: thread-count scaling on the dense
  // guard-64 rate instance and on the pruning-heavy registry
  // apps (motion_estimation first), each against serial bnb in the same
  // run — the fixed instances of the exact_search benchmark workload.  The optimum must be
  // bit-identical at every thread count; wall-clock gains need real cores.
  // `tasks` is the scheduler's task count for the search, read from the
  // search.bnb_tasks histogram the search records itself.
  struct ParRow {
    unsigned threads;
    double seconds;
    long states;
    long tasks;
  };
  struct ParCurve {
    double serial_s = 0.0;
    long serial_states = 0;
    std::vector<ParRow> rows;
  };
  auto par_curve = [](const char* label, const assign::AssignContext& ctx) {
    ParCurve curve;
    assign::SearchOptions options;
    options.max_states = 500'000'000;
    auto start = Clock::now();
    assign::SearchResult serial = assign::searcher("bnb").search(ctx, options);
    curve.serial_s = seconds_since(start);
    curve.serial_states = serial.states_explored;
    std::cout << label << ": serial bnb " << serial.states_explored << " states, "
              << core::Table::num(curve.serial_s * 1e3, 1) << " ms\n";
    obs::Histogram& task_histogram = obs::Registry::instance().histogram("search.bnb_tasks");
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      options.bnb_threads = threads;
      std::uint64_t tasks_before = task_histogram.snapshot().sum;
      start = Clock::now();
      assign::SearchResult par = assign::searcher("bnb-par").search(ctx, options);
      double par_s = seconds_since(start);
      long tasks = static_cast<long>(task_histogram.snapshot().sum - tasks_before);
      if (par.assignment != serial.assignment || par.scalar != serial.scalar) {
        std::cout << "WARNING: bnb-par optimum mismatch at " << threads << " threads (" << label
                  << ")\n";
      }
      curve.rows.push_back({threads, par_s, par.states_explored, tasks});
      std::cout << "  bnb-par " << threads << " threads: " << par.states_explored << " states, "
                << tasks << " tasks, " << core::Table::num(par_s * 1e3, 2)
                << " ms, speedup vs serial "
                << core::Table::num(curve.serial_s / (par_s > 0 ? par_s : 1e-9), 2) << "x\n";
    }
    return curve;
  };
  auto g64_ws = core::make_workspace(guard64_program(), guard64_platform(), {});
  ParCurve g64 = par_curve("guard-64 rate instance (52 placements)", g64_ws->context());
  std::vector<std::pair<std::string, ParCurve>> app_curves;
  for (const char* app : {"motion_estimation", "adpcm_coder", "cavity_detection", "conv_filter"}) {
    auto app_ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    std::string label = std::string(app) + " (default platform)";
    app_curves.emplace_back(app, par_curve(label.c_str(), app_ws->context()));
  }
  std::cout << "\n";

  // --- Fixed grid: serial vs parallel wall-clock across the app registry.
  unsigned hw = core::default_parallelism();
  double serial_total = 0.0;
  double parallel_total = 0.0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    t0 = Clock::now();
    auto serial = xplore::Explorer(fixed_grid(1)).run(info.build());
    serial_total += seconds_since(t0);
    t0 = Clock::now();
    auto parallel = xplore::Explorer(fixed_grid(0)).run(info.build());
    parallel_total += seconds_since(t0);
    if (serial.samples.size() != parallel.samples.size()) {
      std::cout << "WARNING: sweep sample-count mismatch on " << info.name << "\n";
    }
  }
  std::cout << "fixed 27-cell grid over 9 apps: serial " << core::Table::num(serial_total * 1e3, 1)
            << " ms, parallel (" << hw << " threads) "
            << core::Table::num(parallel_total * 1e3, 1) << " ms, speedup "
            << core::Table::num(serial_total / (parallel_total > 0 ? parallel_total : 1e-9), 2)
            << "x\n\n";

  // --- Machine-readable summary.
  std::ostringstream json;
  json << "{\n  \"bench\": \"search_scaling\",\n  \"meta\": " << bench::run_metadata_json()
       << ",\n  \"greedy\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GreedyRow& row = rows[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"evaluations\": "
         << row.evaluations << ", \"engine_s\": " << row.engine_s << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"feasibility\": [\n";
  for (std::size_t i = 0; i < feasibility.size(); ++i) {
    const FeasibilityRow& row = feasibility[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"probes\": " << row.probes
         << ", \"tracker_s\": " << row.tracker_s
         << ", \"greedy_tracker_s\": " << row.greedy_tracker_s << "}"
         << (i + 1 < feasibility.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"exhaustive\": {\"bnb_nodes\": " << kRateBudget
       << ", \"bnb_stop\": \"" << core::to_string(pruned.stop) << "\""
       << ", \"bnb_runs\": " << kRateRuns << ", \"bnb_s\": " << engine_s
       << ", \"bnb_nodes_per_s\": " << nodes_per_s
       << ", \"bnb_nodes_per_s_min\": " << nodes_per_s_min
       << ", \"bnb_nodes_per_s_max\": " << nodes_per_s_max
       << ", \"bnb_bound_prunes\": " << pruned.bound_prunes
       << ", \"medium_states\": " << medium.states_explored
       << ", \"medium_bound_prunes\": " << medium.bound_prunes
       << ", \"medium_capacity_prunes\": " << medium.capacity_prunes << "},\n"
       << "  \"bnb_par\": {\"placements\": 52, \"serial_s\": " << g64.serial_s
       << ", \"serial_states\": " << g64.serial_states << ", \"curve\": [\n";
  auto emit_curve = [&json](const std::vector<ParRow>& curve) {
    for (std::size_t i = 0; i < curve.size(); ++i) {
      json << "    {\"threads\": " << curve[i].threads << ", \"s\": " << curve[i].seconds
           << ", \"states\": " << curve[i].states << ", \"tasks\": " << curve[i].tasks << "}"
           << (i + 1 < curve.size() ? "," : "") << "\n";
    }
  };
  emit_curve(g64.rows);  // "curve" stays the guard-64 headline
  for (const auto& [app, curve] : app_curves) {
    json << "  ], \"" << app << "_serial_s\": " << curve.serial_s << ", \"" << app
         << "_serial_states\": " << curve.serial_states << ", \"" << app << "_curve\": [\n";
    emit_curve(curve.rows);
  }
  json << "  ]},\n"
       << "  \"data_layout\": [\n";
  for (std::size_t i = 0; i < data_layout.size(); ++i) {
    const DataLayoutRow& row = data_layout[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"moves\": " << row.moves
         << ", \"batched_s\": " << row.batched_s << ", \"steady_allocs\": " << row.steady_allocs
         << ", \"allocs_per_move\": " << row.allocs_per_move << "}"
         << (i + 1 < data_layout.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sweep\": {\"threads\": " << hw << ", \"serial_s\": " << serial_total
       << ", \"parallel_s\": " << parallel_total << "}\n}\n";
  std::cout << json.str() << "\n";
  return rate_binds;
}

const int kLastAppIndex = static_cast<int>(apps::all_apps().size()) - 1;

void BM_GreedyEngine(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  int evaluations = 0;
  for (auto _ : state) {
    assign::SearchResult result = assign::searcher("greedy").search(ctx, {});
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["evals/s"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(info.name);
}
BENCHMARK(BM_GreedyEngine)->DenseRange(0, kLastAppIndex);

/// Time capped searches of the rate instance; a search that stops on
/// anything but the node cap fails the benchmark.
void run_exhaustive_bench(benchmark::State& state, const std::string& strategy,
                          const assign::SearchOptions& options) {
  auto ws = rate_workspace();
  auto ctx = ws->context();
  for (auto _ : state) {
    assign::SearchResult result = assign::searcher(strategy).search(ctx, options);
    if (result.stop != core::StopReason::NodeCap) {
      state.SkipWithError("the rate instance no longer binds the node cap");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_ExhaustiveBranchAndBound(benchmark::State& state) {
  assign::SearchOptions options;
  options.max_states = kRateBudget;
  run_exhaustive_bench(state, "bnb", options);
  state.counters["nodes/s"] = benchmark::Counter(static_cast<double>(kRateBudget),
                                                 benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExhaustiveBranchAndBound);

/// Time per search only: the cap bounds the whole search but is overshot
/// by up to one 64-node batch per worker, so the node total varies a little
/// with the worker count and the steal interleaving.
void BM_BnbParallel(benchmark::State& state) {
  assign::SearchOptions options;
  options.max_states = kRateBudget;
  options.bnb_threads = static_cast<unsigned>(state.range(0));
  run_exhaustive_bench(state, "bnb-par", options);
}
BENCHMARK(BM_BnbParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FitsTracker(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  assign::Assignment base = assign::searcher("greedy").search(ctx, {}).assignment;
  std::vector<std::pair<int, int>> probes;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0 || base.has_copy(cc.id)) continue;
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      probes.emplace_back(cc.id, layer);
    }
  }
  assign::FootprintTracker tracker(ctx, base);
  for (auto _ : state) {
    long feasible = 0;
    for (auto [cc_id, layer] : probes) {
      assign::FootprintTracker::Checkpoint cp = tracker.checkpoint();
      tracker.place_copy(cc_id, layer);
      feasible += tracker.feasible() ? 1 : 0;
      tracker.undo_to(cp);
    }
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["fits/s"] = benchmark::Counter(static_cast<double>(probes.size()),
                                                benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(info.name);
}

BENCHMARK(BM_FitsTracker)->DenseRange(0, kLastAppIndex);

void BM_SweepSerial(benchmark::State& state) {
  const xplore::Explorer grid(fixed_grid(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(apps::build_motion_estimation()));
  }
}
BENCHMARK(BM_SweepSerial);

void BM_SweepParallel(benchmark::State& state) {
  const xplore::Explorer grid(fixed_grid(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(apps::build_motion_estimation()));
  }
}
BENCHMARK(BM_SweepParallel);

}  // namespace

int main(int argc, char** argv) {
  const bool rate_binds = print_scaling_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rate_binds ? 0 : 1;
}
