#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mhla::ir {

using i64 = std::int64_t;

/// A linear (affine) integer expression over named loop iterators:
///
///   constant + sum_k coef_k * var_k
///
/// This is the only index-expression form the MHLA analyses need: array
/// subscripts in the supported application domain (multimedia loop nests)
/// are affine in the enclosing loop iterators.  Value type, cheap to copy:
/// the terms are one small flat vector kept in variable-name order.
///
/// Arithmetic is checked: a coefficient or constant that would overflow
/// i64 throws std::overflow_error instead of wrapping.
class AffineExpr {
 public:
  using Term = std::pair<std::string, i64>;
  /// The zero expression.
  AffineExpr() = default;

  /// A constant expression.
  explicit AffineExpr(i64 constant) : constant_(constant) {}

  /// The expression `coef * var`.
  static AffineExpr variable(const std::string& var, i64 coef = 1);

  /// Constant term.
  i64 constant() const { return constant_; }

  /// Coefficient of `var` (0 if absent).
  i64 coef(std::string_view var) const;

  /// All (variable, coefficient) terms with non-zero coefficient,
  /// ordered by variable name.
  const std::vector<Term>& terms() const { return terms_; }

  /// Add `coef * var` in place (no temporary expression).
  AffineExpr& add_term(std::string_view var, i64 coef);

  /// True iff the expression has no variable terms.
  bool is_constant() const { return terms_.empty(); }

  /// Evaluate under a binding of every referenced variable.
  /// Throws std::out_of_range if a referenced variable is unbound.
  i64 evaluate(const std::map<std::string, i64>& binding) const;

  AffineExpr& operator+=(const AffineExpr& rhs);
  AffineExpr& operator-=(const AffineExpr& rhs);
  AffineExpr& operator*=(i64 scale);

  friend bool operator==(const AffineExpr&, const AffineExpr&) = default;

  /// Human-readable form, e.g. "16*by + dy + 3".
  std::string to_string() const;

 private:
  std::vector<Term> terms_;
  i64 constant_ = 0;
};

AffineExpr operator+(AffineExpr lhs, const AffineExpr& rhs);
AffineExpr operator-(AffineExpr lhs, const AffineExpr& rhs);
AffineExpr operator*(i64 scale, AffineExpr expr);

/// Shorthand builders used pervasively by the application models:
///   av("i")        -> i
///   av("i", 16)    -> 16*i
///   ac(3)          -> 3
AffineExpr av(const std::string& var, i64 coef = 1);
AffineExpr ac(i64 constant);

/// Replace every occurrence of `var` in `expr` with `replacement`
/// (affine-in-affine substitution stays affine).  Returns `expr` unchanged
/// if `var` does not occur.
AffineExpr substitute(const AffineExpr& expr, const std::string& var,
                      const AffineExpr& replacement);

}  // namespace mhla::ir
