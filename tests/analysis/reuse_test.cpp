#include "analysis/reuse.h"

#include <gtest/gtest.h>

#include "ir/builder.h"

namespace mhla::analysis {
namespace {

using ir::ac;
using ir::av;

const CopyCandidate* find_cc(const ReuseAnalysis& reuse, const std::string& array, int nest,
                             int level) {
  for (const CopyCandidate& cc : reuse.candidates()) {
    if (cc.array == array && cc.nest == nest && cc.level == level) return &cc;
  }
  return nullptr;
}

struct Analyzed {
  ir::Program program;
  std::vector<AccessSite> sites;
  ReuseAnalysis reuse;
};

Analyzed analyze(ir::Program p) {
  Analyzed a{std::move(p), {}, {}};
  a.sites = collect_sites(a.program);
  a.reuse = ReuseAnalysis::run(a.program, a.sites);
  return a;
}

ir::Program blocked_program() {
  // data[bi][k] swept `rep` times per block -> strong level-1 reuse.
  ir::ProgramBuilder pb("p");
  pb.array("data", {32, 64}, 4);
  pb.begin_loop("bi", 0, 32);
  pb.begin_loop("rep", 0, 10);
  pb.begin_loop("k", 0, 64);
  pb.stmt("use", 1).read("data", {av("bi"), av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  return pb.finish();
}

TEST(Reuse, GeneratesChainPerLevel) {
  Analyzed a = analyze(blocked_program());
  // Levels 0..3 for the single access.
  EXPECT_EQ(a.reuse.candidates().size(), 4u);
  for (int level = 0; level <= 3; ++level) {
    EXPECT_NE(find_cc(a.reuse, "data", 0, level), nullptr) << "level " << level;
  }
}

TEST(Reuse, RowCandidateShape) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 1);  // bi fixed
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 64);
  EXPECT_EQ(cc->bytes, 256);
  EXPECT_EQ(cc->transfers, 32);             // one per bi iteration
  EXPECT_EQ(cc->elems_per_transfer, 64);    // row moves wholesale
  EXPECT_EQ(cc->reads_served, 32 * 10 * 64);
  EXPECT_EQ(cc->writes_served, 0);
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 10.0);
}

TEST(Reuse, Level2CandidateReloadsEveryRep) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 2);  // bi, rep fixed
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 64);
  EXPECT_EQ(cc->transfers, 320);
  // Stationary w.r.t. rep: conservative full reload, reuse factor 1.
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 1.0);
}

TEST(Reuse, WholeNestCandidate) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 32 * 64);
  EXPECT_EQ(cc->transfers, 1);
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 10.0);
}

TEST(Reuse, BlockedChainBoxesAndDeltas) {
  // a[16*bi + i][j]: the box shrinks 64x16 -> 16x16 -> 1x16 -> 1x1 as the
  // loops are fixed, and consecutive iterations of each carrying loop move
  // the box by at least its own extent, so every level reloads wholesale.
  ir::ProgramBuilder pb("p");
  pb.array("a", {64, 64}, 4);
  pb.begin_loop("bi", 0, 4);
  pb.begin_loop("i", 0, 16);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 1).read("a", {av("bi", 16) + av("i"), av("j")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const ir::i64 elems[] = {64 * 16, 16 * 16, 16, 1};
  for (int level = 0; level <= 3; ++level) {
    const CopyCandidate* cc = find_cc(an.reuse, "a", 0, level);
    ASSERT_NE(cc, nullptr) << "level " << level;
    EXPECT_EQ(cc->elems, elems[level]) << "level " << level;
    EXPECT_EQ(cc->elems_per_transfer, elems[level]) << "level " << level;
  }
}

TEST(Reuse, BoxClampsToArrayExtent) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "a", 0, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 8);  // never exceeds the extent
  EXPECT_EQ(cc->elems_per_transfer, 8);
}

TEST(Reuse, OverlappingWindowMovesOneElementPerIteration) {
  // Sliding 3-wide window: a[i + k], i in 0..10, k in 0..3.
  ir::ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 10);
  pb.begin_loop("k", 0, 3);
  pb.stmt("s", 1).read("a", {av("i") + av("k")});
  pb.end_loop();
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* window = find_cc(an.reuse, "a", 0, 1);  // i fixed
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->elems, 3);
  EXPECT_EQ(window->elems_per_transfer, 1);  // two of three elements stay
  const CopyCandidate* whole = find_cc(an.reuse, "a", 0, 0);  // both vary
  ASSERT_NE(whole, nullptr);
  EXPECT_EQ(whole->elems, 12);  // 9 + 2 + 1
  EXPECT_EQ(whole->elems_per_transfer, 12);
}

TEST(Reuse, StridedAccessWidensBox) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {64}, 4);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i", 4)});  // touches 0,4,...,60
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "a", 0, 0);
  ASSERT_NE(cc, nullptr);
  // The bounding box spans 61 elements (holes included, rectangular model).
  EXPECT_EQ(cc->elems, 61);
  EXPECT_EQ(cc->elems_per_transfer, 61);
}

TEST(Reuse, SlidingWindowTransfersOnlyNewColumns) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {4, 64}, 4);
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("k", 0, 8);
  pb.stmt("s", 1).read("a", {av("r"), av("i") + av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "a", 0, 1);  // i fixed
  ASSERT_NE(cc, nullptr);
  // Box: 4 x 8 = 32.  Shift per i step: 1 column, so one new column of 4
  // rows is moved per transfer: 32 - 4 * 7 = 4.
  EXPECT_EQ(cc->elems, 32);
  EXPECT_EQ(cc->elems_per_transfer, 4);
}

TEST(Reuse, StationaryBoxReloadsWholesale) {
  // The inner table does not move with the outer loop: conservative full
  // reload (the buffer is recycled between iterations).
  ir::ProgramBuilder pb("p");
  pb.array("tab", {16}, 4);
  pb.begin_loop("i", 0, 8);
  pb.begin_loop("k", 0, 16);
  pb.stmt("s", 1).read("tab", {av("k")});
  pb.end_loop();
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "tab", 0, 1);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 16);
  EXPECT_EQ(cc->elems_per_transfer, 16);
  EXPECT_EQ(cc->transfers, 8);
}

TEST(Reuse, MergesSitesOfSameArraySameNest) {
  // Two reads of adjacent rows merge into one (taller) candidate box.
  ir::ProgramBuilder pb("p");
  pb.array("a", {17, 16}, 4);
  pb.begin_loop("i", 0, 16);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 1)
      .read("a", {av("i"), av("j")})
      .read("a", {av("i") + ac(1), av("j")});
  pb.end_loop();
  pb.end_loop();
  Analyzed a = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(a.reuse, "a", 0, 1);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->site_ids.size(), 2u);
  EXPECT_EQ(cc->elems, 2 * 16);  // union box: 2 rows
  EXPECT_EQ(cc->reads_served, 2 * 16 * 16);
}

TEST(Reuse, SeparateNestsYieldSeparateCandidates) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  for (int n = 0; n < 2; ++n) {
    pb.begin_loop("i", 0, 16);
    pb.stmt("s", 1).read("a", {av("i")});
    pb.end_loop();
  }
  Analyzed a = analyze(pb.finish());
  EXPECT_NE(find_cc(a.reuse, "a", 0, 0), nullptr);
  EXPECT_NE(find_cc(a.reuse, "a", 1, 0), nullptr);
}

TEST(Reuse, WriteAccessesTracked) {
  ir::ProgramBuilder pb("p");
  pb.array("out", {16}, 4);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).write("out", {av("i")});
  pb.end_loop();
  Analyzed a = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(a.reuse, "out", 0, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->writes_served, 16);
  EXPECT_EQ(cc->reads_served, 0);
  EXPECT_TRUE(cc->has_writes());
}

TEST(Reuse, CandidatesForFiltersByArray) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.array("b", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")}).read("b", {av("i")});
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  for (int id : an.reuse.candidates_for("a")) {
    EXPECT_EQ(an.reuse.candidate(id).array, "a");
  }
  EXPECT_FALSE(an.reuse.candidates_for("a").empty());
  EXPECT_FALSE(an.reuse.candidates_for("b").empty());
  EXPECT_TRUE(an.reuse.candidates_for("zzz").empty());
}

TEST(Reuse, IdsAreDenseAndSorted) {
  Analyzed a = analyze(blocked_program());
  for (std::size_t i = 0; i < a.reuse.candidates().size(); ++i) {
    EXPECT_EQ(a.reuse.candidates()[i].id, static_cast<int>(i));
  }
}

TEST(Reuse, CarryingLoop) {
  Analyzed a = analyze(blocked_program());
  EXPECT_EQ(find_cc(a.reuse, "data", 0, 0)->carrying_loop(), nullptr);
  const CopyCandidate* cc1 = find_cc(a.reuse, "data", 0, 1);
  ASSERT_NE(cc1->carrying_loop(), nullptr);
  EXPECT_EQ(cc1->carrying_loop()->iter(), "bi");
}

TEST(Reuse, ElemBytesPropagated) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 2);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "a", 0, 0);
  EXPECT_EQ(cc->elem_bytes, 2);
  EXPECT_EQ(cc->bytes_per_transfer(), cc->elems_per_transfer * 2);
}

}  // namespace
}  // namespace mhla::analysis
