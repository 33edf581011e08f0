#include "sim/report.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::sim {
namespace {

using testing::make_ws;

TEST(Report, PercentOf) {
  EXPECT_DOUBLE_EQ(percent_of(50.0, 200.0), 25.0);
  EXPECT_DOUBLE_EQ(percent_of(200.0, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(percent_of(5.0, 0.0), 100.0);  // degenerate base
}

TEST(Report, FormatResultMentionsLayersAndCycles) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  std::string text = format_result(result);
  EXPECT_NE(text.find("cycles:"), std::string::npos);
  EXPECT_NE(text.find("energy:"), std::string::npos);
  EXPECT_NE(text.find("L1"), std::string::npos);
  EXPECT_NE(text.find("SDRAM"), std::string::npos);
  EXPECT_NE(text.find("capacity: ok"), std::string::npos);
}

TEST(Report, FormatFourPointsNormalizesTo100) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  SimResult te_point = simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}});
  FourPoint fp = four_points(ctx, greedy.assignment, te_point);
  std::string text = format_four_points("demo", fp);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("out-of-box"), std::string::npos);
  EXPECT_NE(text.find("100.0 %"), std::string::npos);
  EXPECT_NE(text.find("MHLA+TE"), std::string::npos);
  EXPECT_NE(text.find("ideal"), std::string::npos);
}

TEST(Report, CapacityViolationIsCalledOut) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 16;
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) a.copies.push_back({cc.id, 0});
  }
  std::string text = format_result(simulate(ctx, a));
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

}  // namespace
}  // namespace mhla::sim
