#include "assign/footprint_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracle/model.h"
#include "te/block_transfer.h"
#include "te/extension.h"

namespace mhla::assign {
namespace {

using oracle::compute_footprints;
using oracle::fits;
using testing::make_ws;

/// Mirror state the property test maintains alongside the tracker: the
/// tracker must stay bit-identical to `compute_footprints` of this state.
struct Mirror {
  Assignment assignment;
  std::vector<CopyExtension> extensions;
};

void expect_tracker_matches_scratch(const AssignContext& ctx, const FootprintTracker& tracker,
                                    const Mirror& mirror) {
  FootprintReport scratch = compute_footprints(ctx, mirror.assignment, mirror.extensions);
  FootprintReport incremental = tracker.report();
  EXPECT_EQ(incremental.usage, scratch.usage);
  EXPECT_EQ(incremental.peak_bytes, scratch.peak_bytes);
  EXPECT_EQ(incremental.feasible, scratch.feasible);
  EXPECT_EQ(tracker.feasible(), fits(ctx, mirror.assignment, mirror.extensions));
  for (int l = 0; l < ctx.hierarchy.num_layers(); ++l) {
    EXPECT_EQ(tracker.peak(l), scratch.peak_bytes[static_cast<std::size_t>(l)]) << "layer " << l;
  }
}

TEST(FootprintTracker, MatchesScratchOnFixtures) {
  for (auto builder : {testing::tiny_stream_program, testing::producer_consumer_program,
                       testing::blocked_reuse_program}) {
    auto ws = make_ws(builder());
    auto ctx = ws->context();
    FootprintTracker tracker(ctx);
    Mirror mirror{out_of_box(ctx), {}};
    expect_tracker_matches_scratch(ctx, tracker, mirror);

    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      tracker.place_copy(cc.id, 0);
      mirror.assignment.copies.push_back({cc.id, 0});
      expect_tracker_matches_scratch(ctx, tracker, mirror);
    }
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      tracker.remove_copy(cc.id);
      std::erase_if(mirror.assignment.copies,
                    [&](const PlacedCopy& pc) { return pc.cc_id == cc.id; });
      expect_tracker_matches_scratch(ctx, tracker, mirror);
    }
  }
}

TEST(FootprintTracker, ExtensionDeltasMatchScratch) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  ASSERT_FALSE(ctx.reuse.candidates().empty());
  const analysis::CopyCandidate& cc = ctx.reuse.candidates().front();

  FootprintTracker tracker(ctx);
  Mirror mirror{out_of_box(ctx), {}};
  tracker.place_copy(cc.id, 0);
  mirror.assignment.copies.push_back({cc.id, 0});

  // Grow buffers, then pull the start earlier, then shrink back — each step
  // replaces the copy's extension entry outright.
  for (auto [start, buffers] : {std::pair{-1, 2}, std::pair{0, 2}, std::pair{-1, 0}}) {
    tracker.extend_copy(cc.id, start, buffers);
    std::erase_if(mirror.extensions,
                  [&](const CopyExtension& e) { return e.cc_id == cc.id; });
    mirror.extensions.push_back({cc.id, start, buffers});
    expect_tracker_matches_scratch(ctx, tracker, mirror);
  }

  // Removing the copy drops its extension footprint with it.
  tracker.remove_copy(cc.id);
  mirror.assignment.copies.clear();
  mirror.extensions.clear();
  expect_tracker_matches_scratch(ctx, tracker, mirror);
}

/// Property test: over random programs, a random place/remove/migrate/
/// extend/undo sequence keeps the tracker bit-identical to a from-scratch
/// compute_footprints of the mirrored state at every step.
TEST(FootprintTracker, PropertyRandomMoveUndoSequences) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    ir::Program program = gen::random_program(seed);
    mem::PlatformConfig platform = testing::small_platform();
    if (seed % 3 == 0) platform.l2_bytes = 0;  // single on-chip layer
    if (seed % 4 == 0) platform.l1_bytes = 128;  // tight: overflow paths matter
    auto ws = make_ws(std::move(program), platform);
    auto ctx = ws->context();
    FootprintTracker tracker(ctx);
    Mirror mirror{out_of_box(ctx), {}};
    expect_tracker_matches_scratch(ctx, tracker, mirror);

    std::mt19937 rng(seed * 1303);
    auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
    int num_layers = ctx.hierarchy.num_layers();
    const auto& candidates = ctx.reuse.candidates();
    const auto& arrays = ctx.program.arrays();

    std::vector<std::pair<FootprintTracker::Checkpoint, Mirror>> marks;

    for (int step = 0; step < 80; ++step) {
      int action = pick(0, 5);
      if (action == 0 && !candidates.empty()) {
        int cc = pick(0, static_cast<int>(candidates.size()) - 1);
        if (tracker.copy_layer(cc) < 0) {
          int layer = pick(0, num_layers - 1);
          tracker.place_copy(cc, layer);
          mirror.assignment.copies.push_back({cc, layer});
        }
      } else if (action == 1 && !mirror.assignment.copies.empty()) {
        int cc = mirror.assignment.copies[static_cast<std::size_t>(pick(
                                              0,
                                              static_cast<int>(mirror.assignment.copies.size()) -
                                                  1))]
                     .cc_id;
        tracker.remove_copy(cc);
        std::erase_if(mirror.assignment.copies,
                      [&](const PlacedCopy& pc) { return pc.cc_id == cc; });
        std::erase_if(mirror.extensions, [&](const CopyExtension& e) { return e.cc_id == cc; });
      } else if (action == 2 && !arrays.empty()) {
        const auto& array =
            arrays[static_cast<std::size_t>(pick(0, static_cast<int>(arrays.size()) - 1))];
        int layer = pick(0, num_layers - 1);
        tracker.set_home(array.name, layer);
        mirror.assignment.array_layer[array.name] = layer;
      } else if (action == 3 && !mirror.assignment.copies.empty()) {
        const PlacedCopy& pc = mirror.assignment.copies[static_cast<std::size_t>(
            pick(0, static_cast<int>(mirror.assignment.copies.size()) - 1))];
        int nest = ctx.reuse.candidate(pc.cc_id).nest;
        int start = pick(-1, nest);  // -1 = own nest only
        int buffers = pick(0, 3);
        tracker.extend_copy(pc.cc_id, start, buffers);
        std::erase_if(mirror.extensions,
                      [&](const CopyExtension& e) { return e.cc_id == pc.cc_id; });
        mirror.extensions.push_back({pc.cc_id, start, buffers});
      } else if (action == 4) {
        marks.emplace_back(tracker.checkpoint(), mirror);
      } else if (action == 5 && !marks.empty()) {
        auto [mark, snapshot] = marks.back();
        marks.pop_back();
        tracker.undo_to(mark);
        mirror = std::move(snapshot);
      }
      expect_tracker_matches_scratch(ctx, tracker, mirror);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
  }
}

/// The engine keeps its composed tracker in lockstep with every move and
/// undo: `engine.fits()` must equal a from-scratch `fits()` of the live
/// assignment at every step of a random engine move sequence.
TEST(FootprintTracker, EngineCompositionStaysInLockstep) {
  bool saw_infeasible = false;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    mem::PlatformConfig platform = testing::small_platform();
    if (seed % 2 == 0) platform.l1_bytes = 256;  // tight enough to go infeasible
    auto ws = make_ws(gen::random_program(seed), platform);
    auto ctx = ws->context();
    CostEngine engine(ctx);

    std::mt19937 rng(seed * 31);
    auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
    int num_layers = ctx.hierarchy.num_layers();
    const auto& candidates = ctx.reuse.candidates();
    const auto& arrays = ctx.program.arrays();
    std::vector<CostEngine::Checkpoint> marks;

    for (int step = 0; step < 60; ++step) {
      int action = pick(0, 4);
      if (action == 0 && !candidates.empty()) {
        int cc = pick(0, static_cast<int>(candidates.size()) - 1);
        if (!engine.has_copy(cc)) engine.select_copy(cc, pick(0, num_layers - 1));
      } else if (action == 1 && !engine.assignment().copies.empty()) {
        const auto& copies = engine.assignment().copies;
        engine.remove_copy(
            copies[static_cast<std::size_t>(pick(0, static_cast<int>(copies.size()) - 1))].cc_id);
      } else if (action == 2 && !arrays.empty()) {
        const auto& array =
            arrays[static_cast<std::size_t>(pick(0, static_cast<int>(arrays.size()) - 1))];
        engine.migrate_array(array.name, pick(0, num_layers - 1));
      } else if (action == 3) {
        marks.push_back(engine.checkpoint());
      } else if (action == 4 && !marks.empty()) {
        engine.undo_to(marks.back());
        marks.pop_back();
      }
      bool scratch = fits(ctx, engine.assignment());
      EXPECT_EQ(engine.fits(), scratch) << "seed " << seed << " step " << step;
      saw_infeasible = saw_infeasible || !scratch;
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
  }
  // The tight-platform seeds must actually exercise the infeasible side
  // somewhere, or the equivalence check has gone vacuous.
  EXPECT_TRUE(saw_infeasible);
}

/// Tracker-backed TE must agree with the from-scratch footprint model: the
/// accepted extension vector fits, it records exactly the per-BT decisions,
/// and every BT that stopped short of fully hidden stopped because its next
/// freedom unit would not fit (paper Figure 1: extend while it still fits).
TEST(FootprintTracker, TimeExtendDecisionsMatchFromScratchFits) {
  int extended = 0;
  int stopped_by_capacity = 0;
  // The registry apps on a tight platform: the size constraint binds there
  // (on roomy platforms TE stops only when fully hidden or out of units).
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 2048;
  for (const apps::AppInfo& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    auto ws = make_ws(info.build(), platform);
    auto ctx = ws->context();
    ASSERT_TRUE(ctx.dma.present);

    // TE extends the copies of a realistic assignment: take greedy's.
    Assignment assignment = greedy_assign(ctx).assignment;
    assign::Resolution res = assign::resolve(ctx, assignment);
    std::vector<te::BlockTransfer> bts = te::collect_block_transfers(ctx, res);
    te::TeOptions options;
    te::TeResult result = te::time_extend(ctx, assignment, res, bts, options);
    const std::vector<CopyExtension>& accepted = result.footprint_extensions;
    EXPECT_TRUE(fits(ctx, assignment, accepted));

    std::size_t extended_bts = 0;
    for (const te::BlockTransfer& bt : bts) {
      const te::BtExtension& ext = result.for_bt(bt.id);
      auto entry = std::find_if(accepted.begin(), accepted.end(),
                                [&](const CopyExtension& e) { return e.cc_id == bt.cc_id; });
      if (ext.extra_buffers == 0 && ext.start_nest < 0) {
        EXPECT_EQ(entry, accepted.end()) << "bt " << bt.id;
        continue;
      }
      ++extended_bts;
      ASSERT_NE(entry, accepted.end()) << "bt " << bt.id;
      EXPECT_EQ(entry->start_nest, ext.start_nest);
      EXPECT_EQ(entry->extra_buffers, ext.extra_buffers);
    }
    EXPECT_EQ(accepted.size(), extended_bts);
    extended += static_cast<int>(extended_bts);

    // Maximality.  Footprints only grow with extensions, so a unit that did
    // not fit when it was tried cannot fit against the final vector either.
    for (const te::BlockTransfer& bt : bts) {
      const te::BtExtension& ext = result.for_bt(bt.id);
      if (!bt.has_fill || ext.fully_hidden) continue;
      CopyExtension grown{bt.cc_id, ext.start_nest, ext.extra_buffers};
      if (bt.level > 0) {
        if (ext.extra_buffers >= options.max_lookahead) continue;
        ++grown.extra_buffers;
      } else {
        const analysis::CopyCandidate& cc = ctx.reuse.candidate(bt.cc_id);
        int next = (ext.start_nest >= 0 ? ext.start_nest : bt.nest) - 1;
        if (next <= ctx.deps.producer_before(cc.array, bt.nest)) continue;
        grown.start_nest = next;
      }
      std::vector<CopyExtension> tentative = accepted;
      std::erase_if(tentative, [&](const CopyExtension& e) { return e.cc_id == bt.cc_id; });
      tentative.push_back(grown);
      EXPECT_FALSE(fits(ctx, assignment, tentative)) << "bt " << bt.id << " stopped early";
      ++stopped_by_capacity;
    }
  }
  EXPECT_GT(extended, 0) << "no app produced an extension; corpus gone vacuous";
  EXPECT_GT(stopped_by_capacity, 0) << "no BT ever hit the size constraint; corpus gone vacuous";
}

}  // namespace
}  // namespace mhla::assign
