// The branch-and-bound lower bound solves each array's reuse tree exactly.
// Without capacity rows the problem splits per array, so the root bound is
// the optimum itself; these tests pin that through the public search API,
// and pin the registry optima the bound lets the default node cap reach.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "assign/search.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "mem/hierarchy.h"

namespace mhla {
namespace {

/// `hierarchy` with every on-chip layer holding 2^40 B, its energies and
/// latencies unchanged: no placement is ever short of room.
mem::Hierarchy without_capacity(const mem::Hierarchy& hierarchy) {
  std::vector<mem::MemLayer> layers = hierarchy.layers();
  for (mem::MemLayer& layer : layers) {
    if (layer.on_chip) layer.capacity_bytes = std::int64_t{1} << 40;
  }
  return mem::Hierarchy(std::move(layers));
}

TEST(ArrayBound, RootBoundIsTheOptimumWithoutCapacity) {
  // The nine apps and 60 random programs, each under the three named
  // targets.  A bound that dropped any site, transfer or pinned term (or
  // counted one twice) would miss the optimum on some of these cases.
  std::vector<std::pair<std::string, std::unique_ptr<core::Workspace>>> instances;
  for (const apps::AppInfo& info : apps::all_apps()) {
    instances.emplace_back(info.name, testing::make_ws(info.build(), mem::PlatformConfig{}));
  }
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    instances.emplace_back("seed " + std::to_string(seed),
                           testing::make_ws(gen::random_program(seed), mem::PlatformConfig{}));
  }
  int cases = 0;
  int with_copies = 0;
  for (const auto& [name, ws] : instances) {
    SCOPED_TRACE(name);
    const mem::Hierarchy free = without_capacity(ws->hierarchy());
    auto ctx = ws->context(free);
    for (assign::Target target :
         {assign::Target::Energy, assign::Target::Time, assign::Target::Balanced}) {
      SCOPED_TRACE(assign::to_string(target));
      assign::SearchOptions options;
      options.set_target(target);
      assign::SearchResult result = assign::searcher("bnb").search(ctx, options);
      ASSERT_EQ(result.status, assign::SearchStatus::Optimal);
      EXPECT_NEAR(result.lower_bound, result.scalar, 1e-12 * result.scalar);
      EXPECT_LE(result.lower_bound, result.scalar);
      ++cases;
      if (!result.assignment.copies.empty()) ++with_copies;
    }
  }
  EXPECT_EQ(cases, 207);
  // Most optima place copies, so the transfer terms are exercised too.
  EXPECT_GE(with_copies, cases / 2);
}

TEST(ArrayBound, RegistryAppsFinishOptimalAtTheDefaultCap) {
  // Default platform and options: every app but fft_filter (whose capacity
  // rows bind; see Anytime.DefaultNodeCapTruncatesTheHardApps) proves its
  // optimum inside the default node cap.  mpeg2_encoder and wavelet used to
  // stop at the cap with 0x1.86b623c74b09p-3 and 0x1.b7950a69794ep-1.
  struct Pinned {
    const char* app;
    double optimum;
  };
  for (const Pinned& pinned : {Pinned{"adpcm_coder", 0x1.04a6a86ab3fcap-1},
                               Pinned{"cavity_detection", 0x1.24c9a4ec1a604p-2},
                               Pinned{"conv_filter", 0x1.38910687b4134p-3},
                               Pinned{"jpeg_compress", 0x1.8d36a80f1d4c3p-2},
                               Pinned{"motion_estimation", 0x1.2c5d102243872p-3},
                               Pinned{"mpeg2_encoder", 0x1.5df7fddcb6e62p-3},
                               Pinned{"qsdpcm", 0x1.dbddb08bb8895p-2},
                               Pinned{"wavelet", 0x1.6ef2bdc3cb899p-1}}) {
    SCOPED_TRACE(pinned.app);
    auto ws = testing::make_ws(apps::build_app(pinned.app), mem::PlatformConfig{});
    auto ctx = ws->context();
    assign::SearchResult exact = assign::searcher("bnb").search(ctx, {});
    EXPECT_EQ(exact.status, assign::SearchStatus::Optimal);
    EXPECT_EQ(exact.stop, core::StopReason::None) << core::to_string(exact.stop);
    EXPECT_EQ(exact.scalar, pinned.optimum);
    EXPECT_EQ(exact.gap, 0.0);
    // Greedy never beats the optimum beyond rounding: on qsdpcm it reaches
    // another assignment of the same cost, whose scalar rounds one ulp
    // below the exact search's.
    assign::SearchResult greedy = assign::searcher("greedy").search(ctx, {});
    EXPECT_GE(greedy.scalar, exact.scalar * (1.0 - 1e-12));
  }
}

}  // namespace
}  // namespace mhla
