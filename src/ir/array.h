#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "ir/checked.h"

namespace mhla::ir {

/// Declaration of a (possibly multi-dimensional) array in the application.
///
/// MHLA reasons about arrays as rectangular element grids; `dims` holds the
/// extent of each dimension in elements, outermost dimension first.
struct ArrayDecl {
  std::string name;
  std::vector<i64> dims;   ///< extent per dimension, in elements
  i64 elem_bytes = 4;      ///< size of one element in bytes

  /// True for arrays that hold live data before the program starts
  /// (e.g. an input frame).  Affects lifetime analysis.
  bool is_input = false;

  /// True for arrays whose content must survive the program
  /// (e.g. the output bitstream).  Affects lifetime analysis.
  bool is_output = false;

  /// Total number of elements.  Throws std::overflow_error if it does not
  /// fit i64 (`Program::add_array` rejects such a declaration up front).
  i64 elems() const {
    i64 n = 1;
    for (i64 d : dims) n = checked_mul(n, d);
    return n;
  }

  /// Total size in bytes (checked like `elems`).
  i64 bytes() const { return checked_mul(elems(), elem_bytes); }

  /// Number of dimensions.
  int rank() const { return static_cast<int>(dims.size()); }
};

}  // namespace mhla::ir
