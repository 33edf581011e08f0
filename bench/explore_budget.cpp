// Adaptive exploration vs the fixed grid: the paper's trade-off exploration
// "is able to find all the optimal trade-off points" — this bench shows the
// adaptive xplore::Explorer recovering the fixed grid's frontier (the same
// lattice at seed stride 1) with a fraction of its pipeline evaluations, and
// times both.

#include "bench_common.h"

#include "explore/explorer.h"

namespace {

using namespace mhla;

/// Apps featured by the comparison and the timers (indexable for
/// BENCHMARK Arg; names, not registry positions, select the workload).
constexpr const char* kBenchApps[] = {"cavity_detection", "jpeg_compress", "fft_filter"};

/// The default lattice evaluated in full (one stride-1 wave).
xplore::ExplorerConfig fixed_grid() {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.seed_stride = 1;
  return config;
}

void print_comparison(const std::string& name) {
  xplore::ExploreResult grid = xplore::Explorer(fixed_grid()).run(apps::build_app(name));
  const std::vector<xplore::TradeoffPoint>& grid_front = grid.frontier;

  xplore::ExplorerConfig config = xplore::default_explorer();
  config.budget = grid.evaluations / 2;  // half the full grid
  xplore::Explorer explorer(config);
  xplore::ExploreResult adaptive = explorer.run(apps::build_app(name));

  std::cout << "--- " << name << " ---\n"
            << "fixed grid:  " << grid.evaluations << " evaluations, frontier "
            << grid_front.size() << " points\n"
            << "explorer:    " << adaptive.evaluations << " evaluations ("
            << adaptive.rounds << " rounds), frontier " << adaptive.frontier.size()
            << " points, covers grid frontier: "
            << (xplore::frontier_covers(adaptive.frontier, grid_front) ? "yes" : "NO") << "\n\n";
}

void print_explore_budget() {
  bench::print_header("Adaptive exploration under budget",
                      "finds the optimal trade-off points at a fraction of the grid cost");
  for (const char* name : kBenchApps) print_comparison(name);
}

void BM_FixedGrid(benchmark::State& state) {
  const xplore::Explorer grid(fixed_grid());
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(apps::build_app(kBenchApps[state.range(0)])));
  }
  state.SetLabel(kBenchApps[state.range(0)]);
}
BENCHMARK(BM_FixedGrid)->Arg(0)->Arg(2);

void BM_AdaptiveExplorer(benchmark::State& state) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  xplore::Explorer explorer(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.run(apps::build_app(kBenchApps[state.range(0)])));
  }
  state.SetLabel(kBenchApps[state.range(0)]);
}
BENCHMARK(BM_AdaptiveExplorer)->Arg(0)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  print_explore_budget();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
