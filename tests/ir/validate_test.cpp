#include "ir/validate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ir/builder.h"

namespace mhla::ir {
namespace {

TEST(Validate, CleanProgramHasNoIssues) {
  ProgramBuilder pb("p");
  pb.array("a", {8, 8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.begin_loop("j", 0, 8);
  pb.stmt("s", 1).read("a", {av("i"), av("j")});
  pb.end_loop();
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
  EXPECT_NO_THROW(validate_or_throw(p));
}

TEST(Validate, UndeclaredArray) {
  ProgramBuilder pb("p");
  pb.begin_loop("i", 0, 4);
  pb.stmt("s", 1).read("ghost", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("undeclared"), std::string::npos);
  EXPECT_THROW(validate_or_throw(p), std::invalid_argument);
}

TEST(Validate, RankMismatch) {
  ProgramBuilder pb("p");
  pb.array("a", {8, 8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});  // rank 1 vs 2
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("rank"), std::string::npos);
}

TEST(Validate, UnboundSubscriptVariable) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("q")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("not bound"), std::string::npos);
}

TEST(Validate, SubscriptOverrun) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 9);  // i = 8 overruns
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("outside"), std::string::npos);
}

TEST(Validate, SubscriptUnderrun) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i") - ac(1)});  // i=0 -> -1
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, OffsetLoopBoundsAreRespected) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 1, 8);
  pb.stmt("s", 1).read("a", {av("i") - ac(1)});  // i=1..7 -> 0..6, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, NegativeCoefficientBounds) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i", -1) + ac(7)});  // 7-i in 0..7, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, StridedLoopExtremes) {
  ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 16, 4);  // i in {0,4,8,12}
  pb.stmt("s", 1).read("a", {av("i") + ac(3)});  // max 15, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, NonPositiveAccessCount) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")}, 0);
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, MultipleIssuesAllReported) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 9);
  pb.stmt("s", 1).read("a", {av("i")}).read("ghost", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_GE(validate(p).size(), 2u);
}

TEST(Validate, AllNineAppsPassValidation) {
  // The app builders call validate_or_throw internally; this double-checks
  // from the outside and guards against builders dropping the call.
  // (Detailed per-app structure is covered in apps_tests.)
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  EXPECT_NO_THROW(validate_or_throw(pb.finish()));
}

bool any_issue_mentions(const Program& program, const std::string& needle) {
  for (const ValidationIssue& issue : validate(program)) {
    if (issue.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(Validate, SubscriptRangeThatWrapsIsRejected) {
  // 2^62 * 4 wraps to 0 in i64, so unchecked arithmetic saw the range
  // [0, 0] and accepted the access.
  ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 5);
  pb.stmt("s", 1).read("a", {av("i", INT64_C(4611686018427387904))});
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(any_issue_mentions(p, "overflows i64")) << validate(p).size();
  EXPECT_THROW(validate_or_throw(p), std::invalid_argument);
}

TEST(Validate, IterationCountOverflowIsRejected) {
  // Three loops of 2^22 trips: each subscript is in range, but the 2^66
  // dynamic accesses do not fit i64.
  ProgramBuilder pb("p");
  pb.array("a", {4194304}, 1);
  pb.begin_loop("i", 0, 4194304);
  pb.begin_loop("j", 0, 4194304);
  pb.begin_loop("k", 0, 4194304);
  pb.stmt("s", 1).read("a", {av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  EXPECT_TRUE(any_issue_mentions(pb.finish(), "iteration count overflows i64"));
}

TEST(Validate, TripCountOverflowIsRejected) {
  LoopNode whole("i", INT64_MIN, INT64_MAX, 1);
  EXPECT_THROW(whole.trip(), std::overflow_error);
  // The span overflows i64 but the count does not: counted exactly.
  LoopNode wide("i", -6'000'000'000'000'000'000, 6'000'000'000'000'000'000,
                2'000'000'000'000'000'000);
  EXPECT_EQ(wide.trip(), 6);
  EXPECT_EQ(wide.last(), 4'000'000'000'000'000'000);

  ProgramBuilder pb("p");
  pb.array("a", {4}, 4);
  pb.begin_loop("i", INT64_MIN, INT64_MAX);
  pb.stmt("s", 1).read("a", {ac(0)});
  pb.end_loop();
  EXPECT_TRUE(any_issue_mentions(pb.finish(), "trip count that overflows i64"));
}

TEST(Validate, ArraySizeOverflowIsRejectedAtDeclaration) {
  Program p("p");
  ArrayDecl huge{"huge", {INT64_C(4294967296), INT64_C(4294967296)}, 1};
  EXPECT_THROW(huge.elems(), std::overflow_error);
  EXPECT_THROW(p.add_array(huge), std::invalid_argument);
  ArrayDecl wide{"wide", {INT64_C(4611686018427387904)}, 4};
  EXPECT_THROW(p.add_array(wide), std::invalid_argument);
  EXPECT_TRUE(p.arrays().empty());
}

}  // namespace
}  // namespace mhla::ir
