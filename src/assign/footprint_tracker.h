#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "assign/assignment.h"
#include "core/arena.h"
#include "core/span.h"

namespace mhla::assign {

/// Lifetime extension of one copy buffer caused by time extensions:
/// the buffer becomes live from `start_nest` (instead of only during its own
/// nest) and `extra_buffers` additional buffer instances coexist during its
/// own nest (multi-buffering for iteration lookahead).
struct CopyExtension {
  int cc_id = -1;
  int start_nest = -1;   ///< -1 means "no earlier than its own nest"
  int extra_buffers = 0;
};

/// Per-layer in-place (lifetime-aware) footprints: at every step of the
/// coarse time axis (top-level nest index), a layer holds the arrays whose
/// live ranges cover that step plus the copy buffers of that nest (extended
/// per the `CopyExtension`s).  A dead-range array contributes nothing.  This
/// models the paper's "limited lifetime of the arrays" exploitation: layer
/// usage is the *peak* concurrent footprint, not the sum of sizes.
struct FootprintReport {
  std::vector<i64> peak_bytes;          ///< per layer, max over the time axis
  std::vector<std::vector<i64>> usage;  ///< [layer][nest] live bytes
  bool feasible = true;                 ///< all bounded layers within capacity
};

/// Incremental footprint/feasibility tracker for the MHLA searches and the
/// time-extension stage.
///
/// The one production evaluator of `FootprintReport`: the searches, TE,
/// `sim::simulate` and the anytime fallback all read it.  A from-scratch
/// evaluation rebuilds the complete per-layer x per-nest usage matrix from
/// every array live range and every placed copy per feasibility probe; the
/// tracker owns that matrix and maintains it incrementally under undoable
/// moves:
///
///  * `place_copy` / `remove_copy` — a copy's footprint touches only the
///    cells of its (possibly extended) lifetime, O(lifetime) instead of
///    O(arrays x nests),
///  * `set_home` — an array home change moves the array's bytes between two
///    rows over its clipped live range, O(live range),
///  * `extend_copy` — grow or shrink a `CopyExtension` (extra buffers,
///    earlier start nest) for the TE freedom-unit loop, O(extended lifetime).
///
/// Feasibility is answered in O(1) from a running count of overfull
/// (layer, nest) cells: a bounded layer's peak exceeds its capacity iff at
/// least one of its cells does, so `feasible()` is exactly the test oracle's
/// `oracle::fits` — verdicts are exact, never approximated.  All arithmetic
/// is integer, so there is no accumulation-order concern: `report()` is
/// bit-identical to `oracle::compute_footprints` (tests/oracle/model.h) on
/// the mirrored (assignment, extensions) state by construction, and
/// tests/assign/footprint_tracker_test.cpp property-tests the contract over
/// randomized move/undo sequences.
///
/// ## Undo discipline
///
/// Every primitive move appends exactly one undo record.  `checkpoint()` /
/// `undo_to(mark)` rewind any sequence LIFO, like `CostEngine`;
/// `undo_one()` rewinds a single primitive (the engine uses it to pop its
/// own journal and the tracker's in lockstep).
///
/// ## Extension semantics
///
/// The tracker holds at most one extension per placed copy (the
/// replace-entry discipline `time_extend` previously implemented with a
/// clone + `std::erase_if` per freedom unit).  `extend_copy` replaces the
/// copy's extension outright; `remove_copy` clears it (and undo restores
/// it).  `load(assignment, extensions)` folds duplicate entries (earliest
/// start, summed extra buffers), like `oracle::compute_footprints`.
class FootprintTracker {
 public:
  /// Precomputes the per-array clipped live spans and the cheapest
  /// placeable object, then loads `out_of_box(ctx)`.
  explicit FootprintTracker(const AssignContext& ctx);

  /// Same precompute, but loads `assignment` directly — callers with a
  /// known start state (TE, the benches) skip the out-of-box load.
  FootprintTracker(const AssignContext& ctx, const Assignment& assignment,
                   const std::vector<CopyExtension>& extensions = {});

  /// Full (re)load of an assignment plus optional extensions.  Clears the
  /// undo history.  Throws std::invalid_argument on unknown/duplicate copy
  /// candidates or unknown layers (mirrors CostEngine::load).
  void load(const Assignment& assignment, const std::vector<CopyExtension>& extensions = {});

  // -------------------------------------------------------------- moves
  using Checkpoint = std::size_t;
  Checkpoint checkpoint() const { return undo_.size(); }
  void undo_to(Checkpoint mark);
  /// Rewind exactly one primitive move (undo history must be non-empty).
  void undo_one();

  /// Add the footprint of candidate `cc_id` placed on `layer` (one buffer,
  /// own nest — no extension).  Throws if the candidate is already placed.
  void place_copy(int cc_id, int layer);

  /// Remove a placed copy's footprint, extension included.
  void remove_copy(int cc_id);

  /// Move `array`'s home row; no-op (and no undo record) when unchanged.
  /// The id overload is the hot path — arguments are debug-asserted only;
  /// the string overload validates both name and layer and forwards.
  void set_home(const std::string& array, int layer);
  void set_home(std::size_t array_index, int layer);

  /// Replace the extension of placed copy `cc_id` with
  /// `{start_nest, extra_buffers}` (start_nest < 0 = own nest only).
  void extend_copy(int cc_id, int start_nest, int extra_buffers);

  // ------------------------------------------------------------ queries
  /// O(1): true iff no bounded layer holds an over-capacity cell — exactly
  /// `report().feasible`.
  bool feasible() const { return overfull_cells_ == 0; }

  /// Live bytes of one (layer, nest) cell.
  i64 usage(int layer, int nest) const {
    return usage_[static_cast<std::size_t>(layer) * row_ + static_cast<std::size_t>(nest)];
  }

  /// Exact feasibility of the state `place_copy(cc_id, layer)` would reach,
  /// answered without mutating anything: an unextended placement touches a
  /// single (layer, own-nest) cell, so the post-move overfull count is the
  /// live count plus that one cell's transition.  Lets a scorer probe
  /// a whole round of placements against the live matrix.
  bool feasible_with_copy(int cc_id, int layer) const;

  /// Exact feasibility of the state a home change of `array_index` to
  /// `layer` plus `remove_copy` of every id in `dropped` would reach — a
  /// migrate with its invalid-copy drops — without mutating anything.  The
  /// net change of each touched cell is gathered in scratch, so a cell hit
  /// by several of the moves makes one transition.  Allocation-free.
  bool feasible_with_home(std::size_t array_index, int layer, core::IntSpan dropped) const;

  /// Peak of one layer over the time axis (O(nests), for reporting).
  i64 peak(int layer) const;

  /// Full report of the mirrored (assignment, extensions) state.
  FootprintReport report() const;

  int copy_layer(int cc_id) const { return cc_layer_[static_cast<std::size_t>(cc_id)]; }

 private:
  struct UndoRec {
    enum class Kind { Place, Remove, Home, Extend };
    Kind kind;
    int a = 0;  ///< Place/Remove/Extend: cc_id       Home: array index
    int b = 0;  ///< Remove: layer                    Home: old layer
    int c = 0;  ///< Remove/Extend: old ext start
    int d = 0;  ///< Remove/Extend: old ext buffers
  };

  /// Apply `delta` bytes to one cell, keeping the overfull count exact.
  void add_cell(int layer, int nest, i64 delta);
  /// Call `fn(layer, nest, bytes)` for every cell of a placed copy's
  /// current (possibly extended) footprint.
  template <typename Fn>
  void each_copy_cell(std::size_t c, Fn&& fn) const;
  /// Add (+1) or subtract (-1) a placed copy's current footprint.
  void apply_copy(std::size_t c, int sign);
  /// Add or subtract an array's footprint on `layer` over its live span.
  void apply_array(std::size_t a, int layer, int sign);
  void validate_copy(int cc_id, int layer) const;
  std::size_t array_index(const std::string& name) const;

  const AssignContext& ctx_;
  int num_layers_ = 0;
  int num_nests_ = 0;
  int background_ = 0;
  std::size_t row_ = 1;  ///< cells per layer row == max(num_nests, 1)

  // ---- assignment-independent precomputation
  std::vector<i64> layer_capacity_;  ///< per layer; <= 0 = unbounded
  std::vector<i64> array_bytes_;
  std::vector<int> array_first_;  ///< clipped live span (first > last = dead)
  std::vector<int> array_last_;
  std::vector<int> cc_nest_;
  std::vector<i64> cc_bytes_;

  // ---- incremental state
  std::vector<i64> usage_;        ///< [layer][nest], flat
  long overfull_cells_ = 0;       ///< bounded cells with usage > capacity
  std::vector<int> home_;         ///< array index -> home layer
  std::vector<int> cc_layer_;     ///< cc -> layer or -1
  std::vector<int> cc_ext_start_; ///< cc -> extension start nest or -1
  std::vector<int> cc_ext_buffers_;  ///< cc -> extra buffers
  core::ArenaStack<UndoRec> undo_;
  mutable std::vector<i64> scr_delta_;         ///< feasible_with_home: cell -> net bytes
  mutable std::vector<std::size_t> scr_cells_;  ///< the cells it touched
};

}  // namespace mhla::assign
