#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dependence.h"
#include "analysis/lifetime.h"
#include "analysis/reuse.h"
#include "analysis/sites.h"
#include "mem/dma.h"
#include "mem/hierarchy.h"

namespace mhla::assign {

using ir::i64;

/// Everything the assignment and simulation passes need about one program on
/// one platform.  Non-owning; the driver (core/) owns the pieces.
struct AssignContext {
  const ir::Program& program;
  const std::vector<analysis::AccessSite>& sites;
  const analysis::ReuseAnalysis& reuse;
  const std::map<std::string, analysis::LiveRange>& live;
  const analysis::DependenceInfo& deps;
  const mem::Hierarchy& hierarchy;
  const mem::DmaEngine& dma;
};

/// A selected copy candidate placed on a memory layer.
struct PlacedCopy {
  int cc_id = -1;
  int layer = -1;

  friend bool operator==(const PlacedCopy&, const PlacedCopy&) = default;
};

/// MHLA step-1 result: a home layer for every array plus a set of selected,
/// placed copy candidates.
struct Assignment {
  std::map<std::string, int> array_layer;
  std::vector<PlacedCopy> copies;

  /// Layer of a selected CC, or -1 if the CC is not selected.
  int copy_layer(int cc_id) const;
  bool has_copy(int cc_id) const { return copy_layer(cc_id) >= 0; }

  /// Home layer of `array`; defaults to `fallback` when unassigned.
  int layer_of(const std::string& array, int fallback) const;

  /// Structural equality, including copy selection order (the order matters
  /// for the canonical cost-accumulation sequence).
  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// The out-of-the-box configuration the paper normalizes against: every
/// array in background memory, no copies.
Assignment out_of_box(const AssignContext& ctx);

/// One materialized copy edge: the block transfers that fill a selected CC
/// from its parent store (next selected shallower CC of the same chain, or
/// the array's home layer).
struct TransferEdge {
  int cc_id = -1;
  int src_layer = -1;   ///< parent store layer
  int dst_layer = -1;   ///< the CC's own layer
  bool write_back = false;  ///< CC also flushes dirty data back to the parent
};

/// The assignment resolved against the reuse chains:
///  * which layer serves every access site (deepest selected covering CC), and
///  * the list of copy edges with their source/destination layers.
struct Resolution {
  std::vector<int> site_layer;          ///< indexed by AccessSite::id
  std::vector<TransferEdge> transfers;  ///< one per selected CC
};

/// True iff `site` is a member of candidate `cc` (same array, same nest,
/// site lies under the CC's fixed loop prefix).
bool cc_covers_site(const analysis::CopyCandidate& cc, const analysis::AccessSite& site);

/// True iff selected candidate `parent` is an ancestor of `child` in the
/// reuse chain (same array/nest, parent's prefix is a proper prefix).
bool cc_is_ancestor(const analysis::CopyCandidate& parent, const analysis::CopyCandidate& child);

/// Resolve an assignment.  Does not check feasibility (see FootprintTracker) but
/// throws std::invalid_argument on structurally broken assignments
/// (unknown cc ids, copy on the background layer with no gain, etc. are
/// permitted — they are merely bad, not broken).
Resolution resolve(const AssignContext& ctx, const Assignment& assignment);

/// Structural validity: every selected CC sits strictly closer to the
/// processor than its parent store.  (Capacity is checked separately.)
bool layering_valid(const AssignContext& ctx, const Assignment& assignment);

/// Remove every selected copy that violates the layering rule (its layer is
/// not strictly closer than its parent store), repeating until the
/// assignment is layering-valid.  Returns the number of copies dropped.
/// Used for compound moves: migrating an array on-chip can make copies of
/// it redundant/invalid; dropping them is part of the move.
int drop_invalid_copies(const AssignContext& ctx, Assignment& assignment);

/// One-time whole-array transfer implied by homing a pinned array on-chip:
/// an *input* array must be filled from background memory before use, an
/// *output* array must be flushed back after its last write.  Without this
/// charge, migrating inputs on-chip would be free — an unphysical loophole
/// the cost model and the simulator both close.
struct PinnedTraffic {
  const ir::ArrayDecl* array = nullptr;
  int home = -1;     ///< on-chip layer the array lives on
  bool fill = true;  ///< true: background -> home (input); false: flush back
};

/// Enumerate the init-fill / final-flush transfers of an assignment.
std::vector<PinnedTraffic> pinned_array_traffic(const AssignContext& ctx,
                                                const Assignment& assignment);

}  // namespace mhla::assign
