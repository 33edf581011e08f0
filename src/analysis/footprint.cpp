#include "analysis/footprint.h"

#include <algorithm>
#include <cstdlib>

namespace mhla::analysis {

Box Box::merge(const Box& a, const Box& b) {
  Box out;
  std::size_t rank = std::max(a.widths.size(), b.widths.size());
  out.widths.resize(rank, 1);
  for (std::size_t d = 0; d < rank; ++d) {
    i64 wa = d < a.widths.size() ? a.widths[d] : 1;
    i64 wb = d < b.widths.size() ? b.widths[d] : 1;
    out.widths[d] = std::max(wa, wb);
  }
  return out;
}

namespace {

/// Width contribution of iterator `var` with coefficient `coef` when the
/// loop runs its full range.
i64 span_of(const ir::LoopNode& loop, i64 coef) {
  if (loop.trip() <= 1) return 0;
  return std::llabs(coef) * (loop.trip() - 1) * loop.step();
}

}  // namespace

Box footprint(const ir::ArrayDecl& array, const ir::ArrayAccess& access, const ir::LoopPath& path,
              std::size_t fixed) {
  Box box;
  box.widths.resize(static_cast<std::size_t>(array.rank()), 1);
  for (int dim = 0; dim < array.rank(); ++dim) {
    const ir::AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
    i64 width = 1;
    for (std::size_t level = fixed; level < path.size(); ++level) {
      i64 coef = expr.coef(path[level]->iter());
      if (coef != 0) width += span_of(*path[level], coef);
    }
    box.widths[static_cast<std::size_t>(dim)] =
        std::min(width, array.dims[static_cast<std::size_t>(dim)]);
  }
  return box;
}

i64 delta_elems(const ir::ArrayDecl& array, const ir::ArrayAccess& access, const ir::LoopPath& path,
                std::size_t fixed) {
  Box box = footprint(array, access, path, fixed);
  if (fixed == 0) return box.elems();

  const ir::LoopNode& outer = *path[fixed - 1];
  // Shift of the box per iteration of `outer`, along each array dimension.
  // If the outer iterator does not appear, the same box is reloaded (shift 0
  // => delta 0 would mean a redundant transfer; MHLA still reloads it because
  // the copy buffer is reused between iterations, so treat as full reload
  // only when the box actually moves nowhere but the candidate was created —
  // we keep the full reload to stay conservative).
  bool moves = false;
  i64 delta = 0;
  i64 rest = 1;
  // delta of a moving box = total - overlap; for an axis-aligned box shifted
  // by s_d along each dim:  overlap = prod(max(0, w_d - |s_d|)).
  i64 overlap = 1;
  for (int dim = 0; dim < array.rank(); ++dim) {
    const ir::AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
    i64 coef = expr.coef(outer.iter());
    i64 shift = std::llabs(coef) * outer.step();
    i64 width = box.widths[static_cast<std::size_t>(dim)];
    if (shift != 0) moves = true;
    overlap *= std::max<i64>(0, width - shift);
    rest *= width;
  }
  if (!moves) return rest;  // box is reloaded wholesale each outer iteration
  delta = rest - overlap;
  return std::max<i64>(delta, 0);
}

}  // namespace mhla::analysis
