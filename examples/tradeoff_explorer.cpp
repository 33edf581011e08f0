// Domain example 2: the trade-off exploration the paper's abstract promises
// ("a thorough trade-off exploration for different memory layer sizes") —
// now driven by the adaptive xplore::Explorer instead of a fixed grid.  The
// engine seeds a coarse sub-grid of the layer-size lattice and bisects
// around the Pareto frontier, so it finds the trade-off curve with a
// fraction of the full grid's pipeline runs.
//
// Usage:   ./build/examples/tradeoff_explorer [app_name] [cache.json]
//          (default app: cavity_detection; try `jpeg_compress`, `qsdpcm`...
//           pass a cache path to make a second run skip every evaluation)

#include <algorithm>
#include <iostream>

#include "apps/registry.h"
#include "core/report_table.h"
#include "explore/explorer.h"

using namespace mhla;

int main(int argc, char** argv) {
  std::string app_name = argc > 1 ? argv[1] : "cavity_detection";
  ir::Program program = [&] {
    try {
      return apps::build_app(app_name);
    } catch (const std::out_of_range&) {
      std::cerr << "unknown app '" << app_name << "'; available:\n";
      for (const apps::AppInfo& info : apps::all_apps()) std::cerr << "  " << info.name << "\n";
      std::exit(1);
    }
  }();

  xplore::ExplorerConfig config = xplore::default_explorer();
  if (argc > 2) config.cache_path = argv[2];

  xplore::Explorer explorer(config);
  xplore::ExploreResult result = explorer.run(std::move(program));

  std::cout << "explored '" << app_name << "': " << result.evaluations << " pipeline runs for a "
            << result.lattice_cells << "-cell lattice (" << result.cache_hits
            << " served from cache, " << result.rounds << " adaptive rounds"
            << (result.converged ? ", converged" : "") << ")\n\n"
            << "Pareto frontier (choose your trade-off):\n";
  core::Table table({"L1", "L2", "cycles", "energy nJ"});
  for (const xplore::TradeoffPoint& p : result.frontier) {
    table.add_row({std::to_string(p.l1_bytes), std::to_string(p.l2_bytes),
                   core::Table::num(p.cycles, 0), core::Table::num(p.energy_nj, 0)});
  }
  std::cout << table.str();

  // Show the span the exploration covers.
  auto [min_it, max_it] = std::minmax_element(
      result.samples.begin(), result.samples.end(),
      [](const xplore::ExploreSample& a, const xplore::ExploreSample& b) {
        return a.point.energy_nj < b.point.energy_nj;
      });
  std::cout << "\nenergy span across sampled configurations: "
            << core::Table::num(100.0 * (max_it->point.energy_nj - min_it->point.energy_nj) /
                                    max_it->point.energy_nj)
            << " % (best sampled config saves this much vs the worst)\n";
  return 0;
}
