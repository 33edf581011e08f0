#include "ir/affine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ir/checked.h"

namespace mhla::ir {

namespace {

/// |value| without the overflow of negating INT64_MIN.
std::uint64_t magnitude(i64 value) {
  return value < 0 ? 0 - static_cast<std::uint64_t>(value) : static_cast<std::uint64_t>(value);
}

}  // namespace

AffineExpr AffineExpr::variable(const std::string& var, i64 coef) {
  AffineExpr e;
  if (coef != 0) e.terms_.emplace_back(var, coef);
  return e;
}

i64 AffineExpr::coef(std::string_view var) const {
  for (const Term& term : terms_) {
    if (term.first == var) return term.second;
  }
  return 0;
}

AffineExpr& AffineExpr::add_term(std::string_view var, i64 coef) {
  auto it = std::lower_bound(terms_.begin(), terms_.end(), var,
                             [](const Term& term, std::string_view v) { return term.first < v; });
  if (it != terms_.end() && it->first == var) {
    i64 merged = checked_add(it->second, coef);
    if (merged == 0) {
      terms_.erase(it);
    } else {
      it->second = merged;
    }
  } else if (coef != 0) {
    terms_.emplace(it, std::string(var), coef);
  }
  return *this;
}

i64 AffineExpr::evaluate(const std::map<std::string, i64>& binding) const {
  i64 value = constant_;
  for (const auto& [var, coef] : terms_) {
    auto it = binding.find(var);
    if (it == binding.end()) {
      throw std::out_of_range("AffineExpr::evaluate: unbound variable '" + var + "'");
    }
    value += coef * it->second;
  }
  return value;
}

AffineExpr& AffineExpr::operator+=(const AffineExpr& rhs) {
  constant_ = checked_add(constant_, rhs.constant_);
  for (const auto& [var, coef] : rhs.terms_) add_term(var, coef);
  return *this;
}

AffineExpr& AffineExpr::operator-=(const AffineExpr& rhs) {
  AffineExpr negated = rhs;
  negated *= -1;
  return *this += negated;
}

AffineExpr& AffineExpr::operator*=(i64 scale) {
  if (scale == 0) {
    terms_.clear();
    constant_ = 0;
    return *this;
  }
  constant_ = checked_mul(constant_, scale);
  for (auto& [var, coef] : terms_) coef = checked_mul(coef, scale);
  return *this;
}

AffineExpr operator+(AffineExpr lhs, const AffineExpr& rhs) { return lhs += rhs; }
AffineExpr operator-(AffineExpr lhs, const AffineExpr& rhs) { return lhs -= rhs; }
AffineExpr operator*(i64 scale, AffineExpr expr) { return expr *= scale; }

std::string AffineExpr::to_string() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [var, coef] : terms_) {
    if (!first) out << (coef < 0 ? " - " : " + ");
    if (first && coef < 0) out << "-";
    std::uint64_t mag = magnitude(coef);
    if (mag != 1) out << mag << "*";
    out << var;
    first = false;
  }
  if (constant_ != 0 || first) {
    if (!first) out << (constant_ < 0 ? " - " : " + ");
    if (first && constant_ < 0) out << "-";
    out << magnitude(constant_);
  }
  return out.str();
}

AffineExpr av(const std::string& var, i64 coef) { return AffineExpr::variable(var, coef); }
AffineExpr ac(i64 constant) { return AffineExpr(constant); }

AffineExpr substitute(const AffineExpr& expr, const std::string& var,
                      const AffineExpr& replacement) {
  i64 coef = expr.coef(var);
  if (coef == 0) return expr;
  AffineExpr out = expr;
  out -= AffineExpr::variable(var, coef);
  AffineExpr scaled = replacement;
  scaled *= coef;
  out += scaled;
  return out;
}

}  // namespace mhla::ir
