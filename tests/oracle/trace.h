#pragma once

#include <map>
#include <string>

#include "analysis/sites.h"
#include "ir/program.h"

namespace mhla::oracle {

using ir::i64;

/// Exact, enumerative execution of a (small) program: every loop iteration
/// is walked concretely and every subscript evaluated.  This is the
/// brute-force oracle the property tests use to validate the *analytic*
/// models (access counts, bounding-box footprints, delta transfers), which
/// is what MHLA actually runs on.
struct ExactCounts {
  i64 statement_instances = 0;
  i64 dynamic_accesses = 0;
  std::map<std::string, i64> accesses_per_array;   ///< dynamic accesses
  std::map<std::string, i64> distinct_elements;    ///< exact footprint, elems
  bool in_bounds = true;   ///< every evaluated subscript within the extents
  bool truncated = false;  ///< stopped at the instance budget
};

/// Enumerate the whole program.  Stops (with `truncated = true`) once
/// `max_instances` statement instances have been executed, so a mistaken
/// call on a huge program degrades gracefully instead of hanging.
ExactCounts enumerate_program(const ir::Program& program, i64 max_instances = 5'000'000);

/// Exact number of distinct elements the member sites of a copy-candidate
/// partition touch during ONE execution of the varying loops, maximized
/// over every concrete combination of the fixed outer iterators.  The
/// analytic bounding box must be a superset (>=) of this for every
/// candidate — the soundness property of the ReuseAnalysis boxes.
///
/// `site` supplies the loop context; `fixed` is the number of outer loops
/// held constant (the candidate's level).
i64 exact_footprint_elems(const ir::Program& program, const analysis::AccessSite& site,
                          std::size_t fixed);

}  // namespace mhla::oracle
