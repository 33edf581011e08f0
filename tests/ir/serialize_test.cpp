#include "ir/serialize.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/registry.h"
#include "ir/builder.h"
#include "ir/validate.h"

namespace mhla::ir {
namespace {

TEST(FormatAffine, Compact) {
  EXPECT_EQ(format_affine(av("i")), "i");
  EXPECT_EQ(format_affine(av("i", 16) + av("j") + ac(3)), "16*i+j+3");
  EXPECT_EQ(format_affine(av("i") - ac(1)), "i-1");
  EXPECT_EQ(format_affine(av("i", -2)), "-2*i");
  EXPECT_EQ(format_affine(ac(0)), "0");
  EXPECT_EQ(format_affine(ac(-7)), "-7");
}

TEST(ParseAffine, BasicForms) {
  EXPECT_EQ(parse_affine("i"), av("i"));
  EXPECT_EQ(parse_affine("16*i+j+3"), av("i", 16) + av("j") + ac(3));
  EXPECT_EQ(parse_affine("i-1"), av("i") - ac(1));
  EXPECT_EQ(parse_affine("-2*i"), av("i", -2));
  EXPECT_EQ(parse_affine("0"), ac(0));
  EXPECT_EQ(parse_affine("-7"), ac(-7));
}

TEST(ParseAffine, ToleratesSpaces) {
  EXPECT_EQ(parse_affine(" 16*i + j - 3 "), av("i", 16) + av("j") - ac(3));
}

TEST(ParseAffine, MergesRepeatedVariables) {
  EXPECT_EQ(parse_affine("i+i+i"), av("i", 3));
  EXPECT_EQ(parse_affine("2*i-i"), av("i"));
}

TEST(ParseAffine, Rejections) {
  EXPECT_THROW(parse_affine("i+"), std::invalid_argument);
  EXPECT_THROW(parse_affine("++i"), std::invalid_argument);  // '+' with no term yet
  EXPECT_THROW(parse_affine("3*"), std::invalid_argument);
  EXPECT_THROW(parse_affine("i j"), std::invalid_argument);
  EXPECT_THROW(parse_affine("a[b]"), std::invalid_argument);
}

TEST(ParseAffine, RoundTripsRandomizedShapes) {
  const AffineExpr cases[] = {
      ac(0), ac(42), ac(-3), av("x"), av("x", -1),
      av("by", 16) + av("my") + av("y") - ac(8),
      av("a", 100) - av("b", 99) + ac(1),
  };
  for (const AffineExpr& e : cases) {
    EXPECT_EQ(parse_affine(format_affine(e)), e) << format_affine(e);
  }
}

TEST(Serialize, ContainsEverything) {
  ProgramBuilder pb("demo");
  pb.array("img", {16, 16}, 1).input();
  pb.array("out", {16}, 2).output();
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 2).read("img", {av("i"), av("i") + ac(1)}, 3).write("out", {av("i")});
  pb.end_loop();
  std::string text = serialize(pb.finish());
  EXPECT_NE(text.find("program demo"), std::string::npos);
  EXPECT_NE(text.find("array img 16 16 : elem 1 input"), std::string::npos);
  EXPECT_NE(text.find("array out 16 : elem 2 output"), std::string::npos);
  EXPECT_NE(text.find("loop i 0 16 1 {"), std::string::npos);
  EXPECT_NE(text.find("stmt s ops 2 {"), std::string::npos);
  EXPECT_NE(text.find("read img [i] [i+1] x3"), std::string::npos);
  EXPECT_NE(text.find("write out [i]"), std::string::npos);
}

void expect_round_trip(const Program& program) {
  std::string once = serialize(program);
  Program parsed = parse_program(once);
  std::string twice = serialize(parsed);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(parsed.name(), program.name());
  EXPECT_EQ(parsed.arrays().size(), program.arrays().size());
  EXPECT_TRUE(validate(parsed).empty());
}

TEST(Serialize, RoundTripSimple) {
  ProgramBuilder pb("rt");
  pb.array("a", {8, 8}, 4).input();
  pb.begin_loop("i", 0, 8);
  pb.begin_loop("j", 0, 8, 2);
  pb.stmt("s", 1).read("a", {av("i"), av("j")});
  pb.end_loop();
  pb.end_loop();
  expect_round_trip(pb.finish());
}

class AppRoundTrip : public ::testing::TestWithParam<apps::AppInfo> {};

TEST_P(AppRoundTrip, SerializeParseSerializeIsIdentity) {
  expect_round_trip(GetParam().build());
}

INSTANTIATE_TEST_SUITE_P(AllNine, AppRoundTrip, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

TEST(Parse, CommentsAndBlankLinesIgnored) {
  Program p = parse_program(
      "program p\n"
      "# a comment\n"
      "array a 4 : elem 4\n"
      "\n"
      "loop i 0 4 1 {\n"
      "  stmt s ops 1 {\n"
      "    read a [i]\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(p.arrays().size(), 1u);
  EXPECT_EQ(p.top().size(), 1u);
}

TEST(Parse, Rejections) {
  EXPECT_THROW(parse_program("not_a_program\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("program p\narray a : elem 4\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("program p\nloop i 0 4 1 {\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("program p\nloop i 0 4 1 {\n  bogus\n}\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("program p\narray a 4 : elem 4 banana\n"), std::invalid_argument);
  EXPECT_THROW(
      parse_program("program p\nstmt s ops 1 {\n  jump a [0]\n}\n"), std::invalid_argument);
}

/// The message of the std::invalid_argument `text` is rejected with; fails
/// the test when it parses or throws anything else.
std::string parse_error(const std::string& text) {
  try {
    parse_program(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped parse error: " << e.what();
    return "";
  }
  ADD_FAILURE() << "parsed: " << text;
  return "";
}

/// `depth` loops nested around one statement.
std::string nested_program(int depth) {
  std::string text = "program deep\narray a 1 : elem 4\n";
  for (int i = 0; i < depth; ++i) text += "loop i" + std::to_string(i) + " 0 1 1 {\n";
  text += "stmt s ops 1 {\nread a [0]\n}\n";
  for (int i = 0; i < depth; ++i) text += "}\n";
  return text;
}

TEST(Parse, DeepNestingIsATypedErrorNotACrash) {
  EXPECT_EQ(parse_program(nested_program(256)).top().size(), 1u);
  EXPECT_NE(parse_error(nested_program(257)).find("line 259:1: loops nested deeper than 256"),
            std::string::npos);
  // The ~0.45 MB program that used to overflow the recursive parser's stack.
  std::string huge = nested_program(20000);
  EXPECT_GT(huge.size(), 400000u);
  EXPECT_NE(parse_error(huge).find("nested deeper"), std::string::npos);
}

TEST(Parse, ErrorsNameLineAndColumn) {
  EXPECT_NE(parse_error("program p\nloop i 0 4 1 {\n  bogus\n}\n")
                .find("parse_program: line 3:3: expected loop/stmt, got 'bogus'"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\narray a 4 : elem 4 banana\n").find("line 2:20:"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\nstmt s ops 1 {\n  read a [i+]\n}\n").find("line 3:13:"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\n\n  loop i 0 4 1 {\n").find("line 3:3: unterminated loop"),
            std::string::npos);
  EXPECT_NE(parse_error("# nothing\n").find("line 1:1:"), std::string::npos);
  EXPECT_NE(parse_error("program p\narray a 4 : elem 4\narray a 4 : elem 4\n")
                .find("line 3:1: Program::add_array: duplicate array 'a'"),
            std::string::npos);
}

TEST(Parse, OutOfRangeNumbersAreTypedErrors) {
  const std::string big = "99999999999999999999";
  EXPECT_NE(parse_error("program p\nloop i 0 " + big + " 1 {\n}\n").find("line 2:10:"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\narray a " + big + " : elem 4\n").find("out of range"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\nstmt s ops " + big + " {\n}\n").find("out of range"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\nstmt s ops 1 {\nread a [" + big + "*i]\n}\n")
                .find("line 3:9: number out of range"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\nstmt s ops 1 {\nread a [0] x" + big + "\n}\n")
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(parse_error("program p\nstmt s ops 1 {\nread a [9223372036854775807*i+i]\n}\n")
                .find("coefficient out of range"),
            std::string::npos);
  // The extremes themselves still parse.
  Program p = parse_program(
      "program p\nloop i -9223372036854775808 9223372036854775807 1 {\n}\n");
  EXPECT_EQ(p.top()[0]->as_loop().lower(), INT64_MIN);
}

TEST(Parse, PartialNumbersAreRejected) {
  EXPECT_NE(parse_error("program p\nloop i 0 5abc 1 {\n}\n")
                .find("line 2:10: expected loop upper bound, got '5abc'"),
            std::string::npos);
  parse_error("program p\narray a 4x : elem 4\n");
  parse_error("program p\narray a 4 : elem 4.0\n");
  parse_error("program p\nstmt s ops 0x10 {\n}\n");
  parse_error("program p\nstmt s ops 1 {\nread a [0] x5abc\n}\n");
  parse_error("program p\nloop i 0 +-5 1 {\n}\n");
  // A leading sign is part of the number syntax, as before.
  EXPECT_EQ(parse_program("program p\nloop i -2 +5 1 {\n}\n").top()[0]->as_loop().upper(), 5);
}

TEST(Parse, WhitespaceOnlyLinesAreBlank) {
  Program p = parse_program("program p\n \r\n\v\n\t\f\r\narray a 4 : elem 4\r\n");
  EXPECT_EQ(p.arrays().size(), 1u);
}

TEST(Parse, StmtWithoutBraceRejected) {
  EXPECT_THROW(parse_program("program p\nstmt s ops 1\n"), std::invalid_argument);
}

}  // namespace
}  // namespace mhla::ir
