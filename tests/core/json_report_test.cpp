#include "core/json_report.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::core {
namespace {

/// Minimal structural JSON validation: balanced braces/brackets outside of
/// strings, no trailing garbage.
void expect_balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonEscape, SpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonReport, SimResultIsWellFormed) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  sim::SimResult result = sim::simulate(ctx, assign::greedy_assign(ctx).assignment);
  std::string json = to_json(result);
  expect_balanced(json);
  EXPECT_NE(json.find("\"total_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_nj\""), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"SDRAM\""), std::string::npos);
  EXPECT_NE(json.find("\"feasible\": true"), std::string::npos);
}

TEST(JsonReport, FourPointIncludesAllBars) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Assignment step1 = assign::greedy_assign(ctx).assignment;
  sim::FourPoint fp = sim::four_points(
      ctx, step1, sim::simulate(ctx, step1, {te::TransferMode::TimeExtended, {}}));
  std::string json = to_json("demo app", fp);
  expect_balanced(json);
  for (const char* key : {"\"application\"", "\"out_of_box\"", "\"mhla\"", "\"mhla_te\"",
                          "\"ideal\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("demo app"), std::string::npos);
}

TEST(JsonReport, TradeoffPointsArray) {
  std::vector<xplore::TradeoffPoint> points(2);
  points[0].l1_bytes = 1024;
  points[0].cycles = 10.5;
  points[1].l1_bytes = 2048;
  points[1].energy_nj = 3.25;
  std::string json = to_json(points);
  expect_balanced(json);
  EXPECT_NE(json.find("\"l1_bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"l1_bytes\": 2048"), std::string::npos);
  EXPECT_NE(json.find("10.5"), std::string::npos);
  EXPECT_NE(json.find("3.25"), std::string::npos);
}

TEST(JsonReport, EmptyTradeoffArray) {
  std::string json = to_json(std::vector<xplore::TradeoffPoint>{});
  expect_balanced(json);
}

}  // namespace
}  // namespace mhla::core
