// The paper's motivation (§abstract): "Many researchers have presented
// multi-layered memory hierarchies ... However, most of the previous work
// do not explore trade-offs systematically."
//
// This bench implements that prior art — classic whole-array static
// scratchpad allocation (rank by accesses/byte, first-fit, sum-of-sizes) —
// and compares it against MHLA's copy-based, lifetime-aware, trade-off-
// exploring assignment on all nine applications.

#include "bench_common.h"

#include "assign/static_baseline.h"

namespace {

using namespace mhla;

void print_comparison() {
  bench::print_header("Prior-art comparison (static allocation vs MHLA)",
                      "previous work does not explore trade-offs systematically");
  core::Table table({"application", "static time %", "MHLA time %", "static energy %",
                     "MHLA energy %"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
    auto ctx = ws->context();

    sim::SimResult oob = sim::simulate(ctx, assign::out_of_box(ctx));
    sim::SimResult fixed =
        sim::simulate(ctx, assign::static_baseline_assign(ctx).assignment);
    sim::SimResult mhla =
        sim::simulate(ctx, assign::searcher("greedy").search(ctx, {}).assignment);

    table.add_row({info.name,
                   core::Table::num(sim::percent_of(fixed.total_cycles(), oob.total_cycles())),
                   core::Table::num(sim::percent_of(mhla.total_cycles(), oob.total_cycles())),
                   core::Table::num(sim::percent_of(fixed.energy_nj, oob.energy_nj)),
                   core::Table::num(sim::percent_of(mhla.energy_nj, oob.energy_nj))});
  }
  std::cout << table.str()
            << "(both normalized to out-of-box = 100; static allocation pins whole\n"
               " arrays only — it cannot exploit block-level reuse when arrays exceed\n"
               " on-chip capacity, which is exactly where MHLA's copies win)\n\n";
}

void BM_StaticBaseline(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::static_baseline_assign(ctx));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_StaticBaseline)->DenseRange(0, 8);

}  // namespace

int main(int argc, char** argv) {
  print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
