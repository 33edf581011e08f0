#pragma once

#include <string>
#include <vector>

#include "analysis/footprint.h"
#include "analysis/sites.h"

namespace mhla::analysis {

/// A copy candidate (CC): a rectangular sub-block of an array that the loop
/// nest reuses and that could be copied to a lower (closer, smaller, cheaper)
/// memory layer.
///
/// A CC lives at a *level* of a loop nest: the `level` outermost loops are
/// fixed, the inner loops vary.  The copy is (re)filled by one block transfer
/// per combined iteration of the fixed loops and serves every access of its
/// member sites.
struct CopyCandidate {
  int id = 0;
  std::string array;
  int array_id = 0;       ///< index of `array` in Program::arrays()
  int nest = 0;           ///< top-level node index the CC lives in
  int level = 0;          ///< number of fixed outer loops (0 = once per nest)
  i64 elems = 0;          ///< box size, elements
  i64 bytes = 0;          ///< box size, bytes
  i64 transfers = 0;      ///< number of block-transfer issues over the program
  i64 elems_per_transfer = 0;  ///< elements moved per issue (delta transfers)
  i64 reads_served = 0;   ///< dynamic processor reads hitting the copy
  i64 writes_served = 0;  ///< dynamic processor writes hitting the copy
  i64 elem_bytes = 4;     ///< element size of the underlying array
  std::vector<int> site_ids;   ///< member access sites
  ir::LoopPath prefix;    ///< the fixed loops, outermost first (size == level)

  /// Bytes moved per block transfer.
  i64 bytes_per_transfer() const { return elems_per_transfer * elem_bytes; }

  /// Accesses served per element transferred; > 1 means the copy pays off.
  double reuse_factor() const {
    i64 moved = transfers * elems_per_transfer;
    if (moved <= 0) return 0.0;
    return static_cast<double>(reads_served + writes_served) / static_cast<double>(moved);
  }

  /// True if any member site writes through this copy (requires write-back).
  bool has_writes() const { return writes_served > 0; }

  /// True when the copy never needs to be *filled* from its parent store:
  /// every read it serves is preceded (in statement order) by a member
  /// write with the identical subscript, so the buffer is fully produced
  /// locally before being consumed (write-allocate without fetch).  Dirty
  /// data still flushes back.
  bool fill_free = false;

  /// The loop whose iterations refresh this copy (innermost fixed loop),
  /// or nullptr for level 0.
  const ir::LoopNode* carrying_loop() const { return level > 0 ? prefix.back() : nullptr; }
};

/// All copy candidates of a program, grouped per array.
///
/// Candidates of the same (array, nest) with increasing level form a *reuse
/// chain*: the level-k box contains the level-(k+1) box.  MHLA step 1 selects
/// a subset of each chain and assigns each selected CC to a layer.
class ReuseAnalysis {
 public:
  /// Generate copy candidates for every (array, nest, level) partition of
  /// the program's access sites.  Sites are merged into one candidate when
  /// they refer to the same array in the same nest under the same `level`
  /// outer loops (union bounding box).
  ///
  /// Candidate ids follow (array name, nest, level, program order of the
  /// fixed loops): candidates that tie on (array, nest, level) sit under
  /// sibling loops and are ordered by where those loops appear in the
  /// program, so the ids depend only on the program, never on where its
  /// nodes were allocated.  Throws std::overflow_error if a transfer or
  /// access count overflows i64 (`ir::validate` rejects such programs).
  static ReuseAnalysis run(const ir::Program& program, const std::vector<AccessSite>& sites);

  const std::vector<CopyCandidate>& candidates() const { return candidates_; }

  /// Ids of candidates for one array, ordered by (nest, level).
  std::vector<int> candidates_for(const std::string& array) const;

  const CopyCandidate& candidate(int id) const { return candidates_.at(static_cast<std::size_t>(id)); }

 private:
  std::vector<CopyCandidate> candidates_;
};

}  // namespace mhla::analysis
