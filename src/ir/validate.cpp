#include "ir/validate.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ir/walk.h"

namespace mhla::ir {

namespace {

/// Minimum and maximum of an affine expression over the box spanned by the
/// enclosing loops (each iterator ranges over its loop's values).
struct Range {
  i64 lo = 0;
  i64 hi = 0;
};

/// |value|, or nothing for INT64_MIN.
std::optional<i64> magnitude(i64 value) {
  if (value == std::numeric_limits<i64>::min()) return std::nullopt;
  return value < 0 ? -value : value;
}

/// The range, or nothing when it overflows i64.  The check is wider than
/// the two bounds: |constant| plus |coef*first| + |coef*last| of every term,
/// once per enclosing loop binding its variable, must fit, and so must each
/// term's shift per step of such a loop.  The analyses add the same terms
/// per loop level, in other orders, and take their differences; within
/// that total they cannot overflow on a validated program either.
std::optional<Range> subscript_range(const AffineExpr& expr, const LoopPath& path) {
  Range r{expr.constant(), expr.constant()};
  std::optional<i64> total = magnitude(expr.constant());
  for (const auto& [var, coef] : expr.terms()) {
    bool outermost = true;  // the range follows the outermost loop binding `var`
    for (const LoopNode* loop : path) {
      if (loop->iter() != var) continue;
      bool in_range = outermost;
      outermost = false;
      if (loop->trip() == 0) continue;  // reported as a non-positive trip count
      i64 a, b, shift;
      if (!total || __builtin_mul_overflow(coef, loop->lower(), &a) ||
          __builtin_mul_overflow(coef, loop->last(), &b) ||
          __builtin_mul_overflow(coef, loop->step(), &shift) || !magnitude(shift)) {
        return std::nullopt;
      }
      std::optional<i64> ma = magnitude(a);
      std::optional<i64> mb = magnitude(b);
      if (!ma || !mb || __builtin_add_overflow(*total, *ma, &*total) ||
          __builtin_add_overflow(*total, *mb, &*total)) {
        return std::nullopt;
      }
      if (in_range) {
        r.lo += std::min(a, b);  // bounded by total, so no overflow
        r.hi += std::max(a, b);
      }
    }
  }
  if (!total) return std::nullopt;
  return r;
}

}  // namespace

std::vector<ValidationIssue> validate(const Program& program) {
  std::vector<ValidationIssue> issues;
  auto report = [&](const std::string& message) { issues.push_back({message}); };

  walk_statements(program, [&](int nest, const LoopPath& path, const StmtNode& stmt) {
    // Iterations of one statement instance; empty once a trip count or the
    // product overflows, which also skips the subscript checks below.
    std::optional<i64> iterations = 1;
    for (const LoopNode* loop : path) {
      i64 trip = 0;
      try {
        trip = loop->trip();
      } catch (const std::overflow_error&) {
        report("nest " + std::to_string(nest) + ": loop '" + loop->iter() +
               "' has a trip count that overflows i64");
        iterations.reset();
        continue;
      }
      if (trip <= 0) {
        report("nest " + std::to_string(nest) + ": loop '" + loop->iter() +
               "' has non-positive trip count");
      }
      i64 product;
      if (iterations && __builtin_mul_overflow(*iterations, trip, &product)) {
        report("statement '" + stmt.name() + "': iteration count overflows i64");
        iterations.reset();
      } else if (iterations) {
        iterations = product;
      }
    }
    for (const ArrayAccess& access : stmt.accesses()) {
      const ArrayDecl* array = program.find_array(access.array);
      if (!array) {
        report("statement '" + stmt.name() + "' accesses undeclared array '" + access.array + "'");
        continue;
      }
      if (static_cast<int>(access.index.size()) != array->rank()) {
        report("statement '" + stmt.name() + "': access to '" + access.array + "' has " +
               std::to_string(access.index.size()) + " subscripts, array rank is " +
               std::to_string(array->rank()));
        continue;
      }
      if (access.count <= 0) {
        report("statement '" + stmt.name() + "': access to '" + access.array +
               "' has non-positive count");
      }
      i64 dynamic;
      if (iterations && __builtin_mul_overflow(*iterations, access.count, &dynamic)) {
        report("statement '" + stmt.name() + "': dynamic count of the access to '" +
               access.array + "' overflows i64");
      }
      if (!iterations) continue;
      for (int dim = 0; dim < array->rank(); ++dim) {
        const AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
        for (const auto& [var, coef] : expr.terms()) {
          (void)coef;
          bool bound = std::any_of(path.begin(), path.end(), [&](const LoopNode* loop) {
            return loop->iter() == var;
          });
          if (!bound) {
            report("statement '" + stmt.name() + "': subscript variable '" + var +
                   "' is not bound by an enclosing loop");
          }
        }
        std::optional<Range> r = subscript_range(expr, path);
        if (!r) {
          report("statement '" + stmt.name() + "': subscript " + expr.to_string() + " of '" +
                 access.array + "' dim " + std::to_string(dim) + " overflows i64");
        } else if (r->lo < 0 || r->hi >= array->dims[static_cast<std::size_t>(dim)]) {
          std::ostringstream msg;
          msg << "statement '" << stmt.name() << "': subscript " << expr.to_string() << " of '"
              << access.array << "' dim " << dim << " spans [" << r->lo << ", " << r->hi
              << "] outside [0, " << array->dims[static_cast<std::size_t>(dim)] - 1 << "]";
          report(msg.str());
        }
      }
    }
  });
  return issues;
}

void validate_or_throw(const Program& program) {
  std::vector<ValidationIssue> issues = validate(program);
  if (issues.empty()) return;
  std::ostringstream msg;
  msg << "program '" << program.name() << "' failed validation:";
  for (const ValidationIssue& issue : issues) msg << "\n  - " << issue.message;
  throw std::invalid_argument(msg.str());
}

}  // namespace mhla::ir
