#pragma once

#include <vector>

#include "ir/array.h"
#include "ir/node.h"
#include "ir/walk.h"

namespace mhla::analysis {

using ir::i64;

/// A rectangular (bounding-box) footprint: one element-interval width per
/// array dimension.  MHLA's copy candidates are such boxes.
struct Box {
  std::vector<i64> widths;  ///< elements per dimension, outermost first

  i64 elems() const {
    i64 n = 1;
    for (i64 w : widths) n *= w;
    return n;
  }

  /// Component-wise max (union bounding box of aligned boxes).
  static Box merge(const Box& a, const Box& b);
};

/// Bounding box of `access` to `array` when the loops `path[fixed..]` vary
/// over their full ranges and the outer `fixed` loops are held constant.
///
/// Per array dimension:  width = 1 + sum over varying iterators of
/// |coef| * (trip-1) * step, clamped to the array extent.  Iterators of the
/// fixed outer loops contribute a (symbolic) offset only, not width.
Box footprint(const ir::ArrayDecl& array, const ir::ArrayAccess& access, const ir::LoopPath& path,
              std::size_t fixed);

/// Elements of `footprint(...)` that are *new* relative to the previous
/// iteration of loop `fixed-1` (the loop immediately outside the box):
/// consecutive outer iterations shift the box by |coef*step| along each
/// dimension; the non-overlapping slab must be re-transferred each time.
/// For `fixed == 0` this equals the full box (there is no outer loop).
///
/// This models MHLA's inter-copy reuse ("delta" block transfers).
i64 delta_elems(const ir::ArrayDecl& array, const ir::ArrayAccess& access, const ir::LoopPath& path,
                std::size_t fixed);

}  // namespace mhla::analysis
