#pragma once

#include <stdexcept>

#include "ir/affine.h"

namespace mhla::ir {

/// Overflow-checked i64 arithmetic for the sizes and counts a program's
/// numbers multiply into: throws std::overflow_error instead of wrapping.
inline i64 checked_mul(i64 a, i64 b) {
  i64 out;
  if (__builtin_mul_overflow(a, b, &out)) throw std::overflow_error("i64 overflow");
  return out;
}

inline i64 checked_add(i64 a, i64 b) {
  i64 out;
  if (__builtin_add_overflow(a, b, &out)) throw std::overflow_error("i64 overflow");
  return out;
}

}  // namespace mhla::ir
