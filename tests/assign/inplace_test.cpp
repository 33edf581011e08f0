#include "oracle/model.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace mhla::assign {
namespace {

using oracle::compute_footprints;
using oracle::fits;
using testing::make_ws;

/// Three-phase pipeline with two disjoint-lifetime intermediates of 512 B
/// each: with in-place sharing they fit a 768 B layer; summed naively they
/// would not.
ir::Program pipeline_program() {
  ir::ProgramBuilder pb("pipe");
  pb.array("in", {128}, 4).input();     // 512 B
  pb.array("t0", {128}, 4);             // 512 B, live nests 0..1
  pb.array("t1", {128}, 4);             // 512 B, live nests 1..2
  pb.array("out", {128}, 4).output();   // 512 B
  using ir::av;
  pb.begin_loop("a", 0, 128);
  pb.stmt("s0", 1).read("in", {av("a")}).write("t0", {av("a")});
  pb.end_loop();
  pb.begin_loop("b", 0, 128);
  pb.stmt("s1", 1).read("t0", {av("b")}).write("t1", {av("b")});
  pb.end_loop();
  pb.begin_loop("c", 0, 128);
  pb.stmt("s2", 1).read("t1", {av("c")}).write("out", {av("c")});
  pb.end_loop();
  return pb.finish();
}

TEST(Inplace, EmptyAssignmentUsesOnlyBackground) {
  auto ws = make_ws(pipeline_program());
  auto ctx = ws->context();
  FootprintReport report = compute_footprints(ctx, out_of_box(ctx));
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.peak_bytes[0], 0);
  EXPECT_EQ(report.peak_bytes[1], 0);
  EXPECT_GT(report.peak_bytes[static_cast<std::size_t>(ctx.hierarchy.background())], 0);
}

TEST(Inplace, ArrayUsageFollowsLiveRange) {
  auto ws = make_ws(pipeline_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["t0"] = 1;  // L2
  FootprintReport report = compute_footprints(ctx, a);
  // t0 live in nests 0 and 1, not 2.
  EXPECT_EQ(report.usage[1][0], 512);
  EXPECT_EQ(report.usage[1][1], 512);
  EXPECT_EQ(report.usage[1][2], 0);
}

TEST(Inplace, DisjointLifetimesShareSpace) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 0;
  platform.l2_bytes = 768;  // < 512 + 512, but >= max concurrent (512... t0+t1 at nest1)
  auto ws = make_ws(pipeline_program(), platform);
  auto ctx = ws->context();

  // t0 and t1 overlap only at nest 1 (1024 B there) -> 768 B layer fails.
  Assignment both = out_of_box(ctx);
  both.array_layer["t0"] = 0;
  both.array_layer["t1"] = 0;
  EXPECT_FALSE(fits(ctx, both));

  // Individually each fits: peak 512.
  Assignment one = out_of_box(ctx);
  one.array_layer["t0"] = 0;
  EXPECT_TRUE(fits(ctx, one));
}

TEST(Inplace, SequentialArraysWithGapShare) {
  // in (nest 0 only, not marked input here would be 0..0)... use t-arrays:
  // t0 lives 0..1, out lives 2..2 -> never concurrent: both fit 512 B.
  mem::PlatformConfig platform;
  platform.l1_bytes = 0;
  platform.l2_bytes = 1024;
  auto ws = make_ws(pipeline_program(), platform);
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["t0"] = 0;
  a.array_layer["t1"] = 0;
  // peak = nest1: t0 + t1 = 1024 -> exactly fits.
  FootprintReport report = compute_footprints(ctx, a);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.peak_bytes[0], 1024);
}

TEST(Inplace, CopyOccupiesOnlyItsNest) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});
  FootprintReport report = compute_footprints(ctx, a);
  EXPECT_EQ(report.peak_bytes[0], ctx.reuse.candidate(cc_id).bytes);
}

TEST(Inplace, ExtensionAddsBuffers) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;
  }
  a.copies.push_back({cc_id, 0});
  i64 base = compute_footprints(ctx, a).peak_bytes[0];

  CopyExtension ext;
  ext.cc_id = cc_id;
  ext.extra_buffers = 1;  // double buffering
  i64 doubled = compute_footprints(ctx, a, {ext}).peak_bytes[0];
  EXPECT_EQ(doubled, 2 * base);
}

TEST(Inplace, ExtensionStretchesLiveRangeBackwards) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "mid" && cc.nest == 1 && cc.level == 0) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});

  FootprintReport before = compute_footprints(ctx, a);
  EXPECT_EQ(before.usage[0][0], 0);  // copy lives only in nest 1

  CopyExtension ext;
  ext.cc_id = cc_id;
  ext.start_nest = 0;  // prefetch during nest 0
  FootprintReport after = compute_footprints(ctx, a, {ext});
  EXPECT_GT(after.usage[0][0], 0);
}

TEST(Inplace, InfeasibleWhenCopyExceedsCapacity) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 64;  // tiny
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;  // 256 B
  }
  a.copies.push_back({cc_id, 0});
  EXPECT_FALSE(fits(ctx, a));
}

TEST(Inplace, DeadArrayContributesNothing) {
  ir::ProgramBuilder pb("p");
  pb.array("ghost", {1024}, 4);
  pb.array("a", {8}, 4);
  using ir::av;
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  auto ws = make_ws(pb.finish());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["ghost"] = 0;  // placed but never accessed
  FootprintReport report = compute_footprints(ctx, a);
  EXPECT_EQ(report.peak_bytes[0], 0);
}

}  // namespace
}  // namespace mhla::assign
