#include "ir/affine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace mhla::ir {
namespace {

TEST(AffineExpr, DefaultIsZero) {
  AffineExpr e;
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 0);
  EXPECT_EQ(e.evaluate({}), 0);
}

TEST(AffineExpr, ConstantConstruction) {
  AffineExpr e(42);
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 42);
  EXPECT_EQ(e.evaluate({}), 42);
}

TEST(AffineExpr, VariableConstruction) {
  AffineExpr e = AffineExpr::variable("i", 3);
  EXPECT_FALSE(e.is_constant());
  EXPECT_EQ(e.coef("i"), 3);
  EXPECT_EQ(e.coef("j"), 0);
  EXPECT_EQ(e.evaluate({{"i", 5}}), 15);
}

TEST(AffineExpr, ZeroCoefficientVariableIsConstant) {
  AffineExpr e = AffineExpr::variable("i", 0);
  EXPECT_TRUE(e.is_constant());
}

TEST(AffineExpr, Addition) {
  AffineExpr e = av("i", 2) + av("j") + ac(7);
  EXPECT_EQ(e.coef("i"), 2);
  EXPECT_EQ(e.coef("j"), 1);
  EXPECT_EQ(e.constant(), 7);
  EXPECT_EQ(e.evaluate({{"i", 1}, {"j", 10}}), 19);
}

TEST(AffineExpr, AdditionMergesSameVariable) {
  AffineExpr e = av("i", 2) + av("i", 3);
  EXPECT_EQ(e.coef("i"), 5);
  EXPECT_EQ(e.terms().size(), 1u);
}

TEST(AffineExpr, CancellationRemovesTerm) {
  AffineExpr e = av("i", 2) + av("i", -2);
  EXPECT_TRUE(e.is_constant());
  EXPECT_TRUE(e.terms().empty());
}

TEST(AffineExpr, Subtraction) {
  AffineExpr e = av("i", 5) - av("j", 2) - ac(3);
  EXPECT_EQ(e.coef("i"), 5);
  EXPECT_EQ(e.coef("j"), -2);
  EXPECT_EQ(e.constant(), -3);
}

TEST(AffineExpr, ScalarMultiplication) {
  AffineExpr e = 3 * (av("i") + ac(2));
  EXPECT_EQ(e.coef("i"), 3);
  EXPECT_EQ(e.constant(), 6);
}

TEST(AffineExpr, MultiplicationByZeroClears) {
  AffineExpr e = 0 * (av("i", 7) + ac(9));
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 0);
}

TEST(AffineExpr, EvaluateThrowsOnUnboundVariable) {
  AffineExpr e = av("i");
  EXPECT_THROW(e.evaluate({{"j", 1}}), std::out_of_range);
}

TEST(AffineExpr, EvaluateIgnoresExtraBindings) {
  AffineExpr e = av("i");
  EXPECT_EQ(e.evaluate({{"i", 2}, {"zzz", 99}}), 2);
}

TEST(AffineExpr, Equality) {
  EXPECT_EQ(av("i", 2) + ac(1), ac(1) + av("i", 2));
  EXPECT_NE(av("i"), av("j"));
  EXPECT_NE(av("i"), av("i", 2));
}

TEST(AffineExpr, ToStringSimple) {
  EXPECT_EQ(av("i").to_string(), "i");
  EXPECT_EQ(ac(5).to_string(), "5");
  EXPECT_EQ(AffineExpr().to_string(), "0");
}

TEST(AffineExpr, ToStringComposite) {
  EXPECT_EQ((av("by", 16) + av("y") + ac(3)).to_string(), "16*by + y + 3");
  EXPECT_EQ((av("i") - ac(1)).to_string(), "i - 1");
  EXPECT_EQ((av("i", -2)).to_string(), "-2*i");
}

TEST(AffineExpr, NegativeEvaluation) {
  AffineExpr e = av("i", -4) + ac(2);
  EXPECT_EQ(e.evaluate({{"i", 3}}), -10);
}

TEST(AffineExpr, OverflowThrowsInsteadOfWrapping) {
  EXPECT_THROW(av("i", INT64_MAX) + av("i"), std::overflow_error);
  EXPECT_THROW(ac(INT64_MIN) - ac(1), std::overflow_error);
  EXPECT_THROW(3 * av("i", INT64_MAX / 2), std::overflow_error);
  EXPECT_THROW(-1 * ac(INT64_MIN), std::overflow_error);
  EXPECT_EQ((av("i", INT64_MAX) + av("i", -1)).coef("i"), INT64_MAX - 1);
}

TEST(AffineExpr, TermsStayInNameOrder) {
  AffineExpr e = av("z") + av("a", 2) + av("m", -3);
  ASSERT_EQ(e.terms().size(), 3u);
  EXPECT_EQ(e.terms()[0].first, "a");
  EXPECT_EQ(e.terms()[1].first, "m");
  EXPECT_EQ(e.terms()[2].first, "z");
  EXPECT_EQ(e.to_string(), "2*a - 3*m + z");
  e.add_term("m", 3);
  EXPECT_EQ(e.to_string(), "2*a + z");
}

}  // namespace
}  // namespace mhla::ir
