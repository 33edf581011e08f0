#include "ir/transform.h"

#include <gtest/gtest.h>

#include "analysis/reuse.h"
#include "analysis/sites.h"
#include "core/pipeline.h"
#include "helpers.h"
#include "ir/validate.h"

namespace mhla::ir {
namespace {

/// Producer nest writes t[i]; consumer nest reads t[i] (and t[i-1]):
/// legal to fuse, the read never runs ahead of the write.
Program legal_pair(bool read_behind) {
  ProgramBuilder pb("pair");
  pb.array("src", {64}, 4).input();
  pb.array("t", {64}, 4);
  pb.array("dst", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.stmt("produce", 1).read("src", {av("i")}).write("t", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 1, 64);
  auto stmt = pb.stmt("consume", 1);
  stmt.read("t", {av("j")});
  if (read_behind) stmt.read("t", {av("j") - ac(1)});
  stmt.write("dst", {av("j")});
  pb.end_loop();
  return pb.finish();
}

TEST(Fusion, RejectsMismatchedHeaders) {
  Program p = legal_pair(false);  // loop 0 starts at 0, loop 1 starts at 1
  EXPECT_THROW(fuse_nests(p, 0), std::invalid_argument);
}

Program fusable_pair(i64 read_offset) {
  ProgramBuilder pb("pair");
  pb.array("src", {80}, 4).input();
  pb.array("t", {80}, 4);
  pb.array("dst", {80}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.stmt("produce", 1).read("src", {av("i")}).write("t", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 64);
  pb.stmt("consume", 1).read("t", {av("j") + ac(read_offset)}).write("dst", {av("j")});
  pb.end_loop();
  return pb.finish();
}

TEST(Fusion, FusesLegalPair) {
  Program p = fusable_pair(0);
  i64 before = dynamic_statement_instances(p);
  Program fused = fuse_nests(p, 0);
  EXPECT_EQ(fused.top().size(), 1u);
  EXPECT_EQ(dynamic_statement_instances(fused), before);
  EXPECT_TRUE(validate(fused).empty());

  // Both statements now sit under one loop named after the first nest.
  const LoopNode& loop = fused.top()[0]->as_loop();
  EXPECT_EQ(loop.iter(), "i");
  ASSERT_EQ(loop.body().size(), 2u);
  EXPECT_EQ(loop.body()[0]->as_stmt().name(), "produce");
  EXPECT_EQ(loop.body()[1]->as_stmt().name(), "consume");
}

TEST(Fusion, RenamesConsumerSubscripts) {
  Program fused = fuse_nests(fusable_pair(0), 0);
  const StmtNode& consume = fused.top()[0]->as_loop().body()[1]->as_stmt();
  for (const ArrayAccess& access : consume.accesses()) {
    EXPECT_EQ(access.index[0].coef("j"), 0);
    EXPECT_EQ(access.index[0].coef("i"), 1);
  }
}

TEST(Fusion, RejectsReadAhead) {
  // consume reads t[j+1], which iteration j of the fused loop has not
  // produced yet.
  EXPECT_THROW(fuse_nests(fusable_pair(1), 0), std::invalid_argument);
}

TEST(Fusion, AcceptsReadBehindWindow) {
  ProgramBuilder pb("p");
  pb.array("t", {66}, 4);
  pb.array("dst", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.stmt("produce", 1).write("t", {av("i") + ac(2)});
  pb.end_loop();
  pb.begin_loop("j", 0, 64);
  pb.stmt("consume", 1)
      .read("t", {av("j") + ac(1)})   // strictly behind the write front
      .read("t", {av("j") + ac(2)})   // exactly at the write front
      .write("dst", {av("j")});
  pb.end_loop();
  Program fused = fuse_nests(pb.finish(), 0);
  EXPECT_TRUE(validate(fused).empty());
}

TEST(Fusion, RejectsIndexOutOfRange) {
  Program p = fusable_pair(0);
  EXPECT_THROW(fuse_nests(p, 1), std::invalid_argument);
  EXPECT_THROW(fuse_nests(p, 7), std::invalid_argument);
}

TEST(Fusion, RejectsNonLoopTops) {
  ProgramBuilder pb("p");
  pb.stmt("lone", 1);
  pb.begin_loop("i", 0, 4);
  pb.stmt("s", 1);
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_THROW(fuse_nests(p, 0), std::invalid_argument);
}

TEST(Fusion, UnrelatedArraysAlwaysFusable) {
  ProgramBuilder pb("p");
  pb.array("a", {32}, 4).input();
  pb.array("b", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.stmt("s0", 1).read("a", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 32);
  pb.stmt("s1", 1).write("b", {av("j")});
  pb.end_loop();
  EXPECT_NO_THROW(fuse_nests(pb.finish(), 0));
}

TEST(Fusion, EnablesCrossNestReuseThroughOneCopy) {
  // Before fusion: t is written in nest 0, read in nest 1 — no single-nest
  // copy candidate covers both, so the traffic goes through t's home layer.
  // After fusion the level-1 candidate serves producer and consumer, and
  // MHLA's optimized energy drops.
  ProgramBuilder pb("xreuse");
  pb.array("src", {4096}, 4).input();
  pb.array("t", {4096}, 4);
  pb.array("dst", {4096}, 4).output();
  pb.begin_loop("i", 0, 4096);
  pb.stmt("produce", 2).read("src", {av("i")}).write("t", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 4096);
  pb.stmt("consume", 2).read("t", {av("j")}, 4).write("dst", {av("j")});
  pb.end_loop();
  Program flat = pb.finish();
  Program fused = fuse_nests(flat, 0);

  core::PipelineConfig config;
  config.platform.l1_bytes = 1024;  // too small for t (16 KiB): copies must carry it
  config.platform.l2_bytes = 0;
  core::Pipeline pipeline(config);
  core::PipelineResult run_flat = pipeline.run(std::move(flat));
  core::PipelineResult run_fused = pipeline.run(std::move(fused));
  EXPECT_LE(run_fused.points.mhla.energy_nj, run_flat.points.mhla.energy_nj);
}

}  // namespace
}  // namespace mhla::ir
