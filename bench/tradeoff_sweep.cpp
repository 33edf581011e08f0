// The paper's trade-off exploration (sections 1-2): MHLA "performs a
// thorough trade-off exploration for different memory layer sizes" and
// "is able to find all the optimal trade-off points".
//
// This bench sweeps the L1 scratchpad size over 256 B .. 64 KiB (with and
// without an L2) on a representative subset of the applications, prints the
// resulting (size, time, energy) samples and the Pareto frontier.  The grid
// is one stride-1 xplore::Explorer wave.

#include "bench_common.h"

namespace {

using namespace mhla;

/// The fixed grid: default L1 axis x {no L2, 128 KiB}, every cell evaluated.
xplore::Explorer sweep_grid() {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.l2_axis = {0, 128 * 1024};
  config.seed_stride = 1;
  return xplore::Explorer(std::move(config));
}

void print_sweep_for(const apps::AppInfo& info) {
  xplore::ExploreResult result = sweep_grid().run(info.build());
  const std::vector<xplore::ExploreSample>& samples = result.samples;
  const std::vector<xplore::TradeoffPoint>& front = result.frontier;

  std::cout << "--- " << info.name << " ---\n";
  core::Table table({"L1 bytes", "L2 bytes", "cycles", "energy nJ", "pareto"});
  for (const xplore::ExploreSample& sample : samples) {
    bool on_front = false;
    for (const xplore::TradeoffPoint& p : front) {
      if (p.l1_bytes == sample.point.l1_bytes && p.l2_bytes == sample.point.l2_bytes &&
          p.cycles == sample.point.cycles && p.energy_nj == sample.point.energy_nj) {
        on_front = true;
      }
    }
    table.add_row({std::to_string(sample.point.l1_bytes), std::to_string(sample.point.l2_bytes),
                   core::Table::num(sample.point.cycles, 0),
                   core::Table::num(sample.point.energy_nj, 0), on_front ? "*" : ""});
  }
  std::cout << table.str() << "Pareto-optimal points: " << front.size() << " of "
            << samples.size() << "\n\n";
}

void print_tradeoff() {
  bench::print_header("Trade-off exploration (layer-size sweep)",
                      "thorough trade-off exploration for different memory layer sizes");
  print_sweep_for(apps::all_apps()[0]);  // motion_estimation
  print_sweep_for(apps::all_apps()[3]);  // cavity_detection
  print_sweep_for(apps::all_apps()[7]);  // adpcm_coder
}

void BM_LayerSizeSweep(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  const xplore::Explorer grid = sweep_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(info.build()));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_LayerSizeSweep)->Arg(0)->Arg(3)->Arg(7);

void BM_ParetoFilter(benchmark::State& state) {
  // Pareto filtering over a synthetic dense sample cloud.
  std::vector<xplore::TradeoffPoint> points;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    xplore::TradeoffPoint p;
    p.cycles = static_cast<double>((i * 7919) % 1000);
    p.energy_nj = static_cast<double>((i * 104729) % 1000);
    p.l1_bytes = 256 << (i % 8);
    points.push_back(p);
  }
  for (auto _ : state) {
    auto copy = points;
    benchmark::DoNotOptimize(xplore::pareto_front(std::move(copy)));
  }
}
BENCHMARK(BM_ParetoFilter)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  print_tradeoff();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
