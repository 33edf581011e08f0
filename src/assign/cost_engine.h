#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "assign/cost.h"
#include "assign/footprint_tracker.h"
#include "assign/search.h"
#include "core/arena.h"
#include "core/span.h"

namespace mhla::assign {

/// Incremental cost evaluator for the MHLA searches — the one production
/// evaluator of `CostEstimate` and of the objective's baseline.
///
/// A from-scratch evaluation (the test oracle's `oracle::estimate_cost`,
/// tests/oracle/model.h) pays a full `resolve()` (O(sites x copies) with
/// string map lookups), a complete IR statement walk for the
/// assignment-independent compute cycles, and a pass over every access site
/// — for *every* candidate state a search scores.  The engine precomputes
/// every assignment-independent term once per `AssignContext`:
///
///  * total compute cycles (one IR walk at construction),
///  * per-site access counts and the energy/latency term for every possible
///    serving layer,
///  * per-candidate transfer terms for every (source, destination) layer pair,
///  * per-array pinned fill/flush terms for every possible home layer,
///  * the site -> covering-candidate and candidate -> ancestor maps that
///    `resolve()` rederives from scratch each call,
///
/// and then maintains the resolution (serving layer per site, parent store
/// per selected copy) incrementally under `select_copy` / `remove_copy` /
/// `migrate_array` moves, each undoable in LIFO order via checkpoints.
/// Applying or undoing a move costs O(sites covered by the touched candidate)
/// — O(changed sites + changed transfers), not O(program).
///
/// ## Data layout
///
/// The hot paths are allocation-free in steady state and string-free
/// throughout, and so is the construction: arrays are the dense ids the
/// analyses already carry (`AccessSite::array_id`, `CopyCandidate::array_id`;
/// the string overloads of `set_home` / `migrate_array` are setup-time shims
/// that validate and forward to the id overloads).  A candidate's member
/// sites are its covered sites, so the candidate -> sites rows are the
/// member lists, each site's covering row (deepest first) is their inverse,
/// and a candidate's ancestors are the tail of a member site's covering row
/// after it.  All three are contiguous offset-indexed arrays (accessors
/// return `core::IntSpan` views), and the undo journal lives in a
/// reserve-once `core::ArenaStack` that rewinding never returns to the heap.
///
/// ## Exactness contract
///
/// `cost()` / `totals()` / `scalar()` are **bit-identical** to
/// `oracle::estimate_cost(ctx, assignment())` (and `Objective::scalar` of
/// it), and `objective()` is bit-identical to `oracle::make_objective`: the
/// engine caches the very term values the from-scratch path computes and
/// re-accumulates them in the same canonical order (sites in id order, then
/// transfers in copy-selection order, then pinned arrays in declaration
/// order).  Floating-point summation order is part of the contract; searches
/// built on the engine make exactly the decisions the from-scratch test
/// oracles make.  The scalar read is O(sites + copies) cached additions; the
/// expensive parts (resolution, model lookups, IR walks, allocation) are
/// all precomputed or maintained incrementally.
///
/// The engine's assignment must not hold duplicate copy-candidate entries
/// (`load` throws std::invalid_argument; searches never create duplicates).
class CostEngine {
 public:
  explicit CostEngine(const AssignContext& ctx);

  /// Full (re)load of an assignment: one O(sites x covering) resolution.
  /// Clears the undo history.
  void load(const Assignment& assignment);

  /// The live assignment the engine mirrors.  Mutated in place by the move
  /// methods; copy it if you need a snapshot.  The `array_layer` map is
  /// synced lazily on read (home moves only touch the dense id-indexed
  /// table); `placed_copies()` is the map-free hot-path view.
  const Assignment& assignment() const {
    if (assignment_dirty_) sync_assignment();
    return assignment_;
  }

  /// The live placed-copy list, in selection order — the same vector
  /// `assignment().copies` exposes, without triggering the array_layer sync.
  const std::vector<PlacedCopy>& placed_copies() const { return assignment_.copies; }

  const AssignContext& context() const { return ctx_; }

  // -------------------------------------------------------------- moves
  /// A checkpoint marks a point in the undo history; `undo_to` rewinds to
  /// it.  Checkpoints nest (LIFO): rewind to an older checkpoint undoes
  /// everything after it, compound moves included.
  using Checkpoint = std::size_t;
  Checkpoint checkpoint() const { return undo_.size(); }
  void undo_to(Checkpoint mark);

  /// Select candidate `cc_id` on `layer`.  Throws std::invalid_argument on
  /// unknown ids/layers or if the candidate is already selected (mirrors
  /// `resolve()`'s validation).
  void select_copy(int cc_id, int layer);

  /// Deselect candidate `cc_id` (must be selected).
  void remove_copy(int cc_id);

  /// Move the array's home to `layer` and drop every copy the new home makes
  /// layering-invalid, exactly like `drop_invalid_copies`.  Returns the
  /// number of copies dropped.  The whole compound move rewinds as one unit
  /// via a checkpoint taken before the call.
  ///
  /// The id overload is the hot path (debug-asserted arguments only); the
  /// string overload validates and forwards — setup-time convenience.
  int migrate_array(std::size_t array_index, int layer);
  int migrate_array(const std::string& array, int layer);

  /// Primitive home change without the invalid-copy sweep (exhaustive
  /// enumeration sets homes before any copy exists).  Same id/string split
  /// as `migrate_array`.
  void set_home(std::size_t array_index, int layer);
  void set_home(const std::string& array, int layer);

  /// Dense id of a declared array name (throws std::invalid_argument on
  /// unknown names).  Intern once at setup; move with the id overloads.
  std::size_t array_id(const std::string& name) const { return array_index(name); }
  std::size_t num_arrays() const { return home_.size(); }

  // ------------------------------------------------------------ queries
  bool has_copy(int cc_id) const { return copy_layer_[static_cast<std::size_t>(cc_id)] >= 0; }
  int copy_layer(int cc_id) const { return copy_layer_[static_cast<std::size_t>(cc_id)]; }
  int home_of(std::size_t array_index) const { return home_[array_index]; }

  /// Layer serving access site `site` under the current assignment
  /// (== resolve().site_layer[site]).
  int serving_layer(std::size_t site) const {
    int cc = serving_cc_[site];
    return cc >= 0 ? copy_layer_[static_cast<std::size_t>(cc)] : home_[site_array_[site]];
  }

  /// Parent-store layer of candidate `cc_id` (deepest selected ancestor, or
  /// the array's home layer) under the current assignment.
  int parent_layer(int cc_id) const;

  /// True iff every selected copy sits strictly closer to the processor than
  /// its parent store.  O(copies x chain depth), no resolve.
  bool layering_valid() const;

  /// O(1) feasibility of the live assignment — exactly
  /// `oracle::fits(ctx, assignment())`, answered from the composed
  /// FootprintTracker (maintained in lockstep with every move and undo).
  bool fits() const { return footprint_.feasible(); }

  /// The composed tracker, for searches that need the usage matrix itself
  /// (the branch-and-bound capacity pruning reads single cells).
  const FootprintTracker& footprint() const { return footprint_; }

  // --------------------------------------------------------- evaluation
  /// The scalar-relevant accumulators of a CostEstimate, without the
  /// per-layer access-count vectors (no allocation on the hot path).
  struct Totals {
    double energy_nj = 0.0;
    double compute_cycles = 0.0;
    double access_cycles = 0.0;
    double transfer_cycles = 0.0;
    double total_cycles() const { return compute_cycles + access_cycles + transfer_cycles; }
  };

  /// Bit-identical to the double fields of
  /// `oracle::estimate_cost(ctx, assignment())`.
  Totals totals() const;

  /// Bit-identical to `oracle::estimate_cost(ctx, assignment())`, counts
  /// included.
  CostEstimate cost() const;

  /// The search objective for these weights, normalized against the
  /// `totals()` of `out_of_box(ctx)`, which the constructor loads and keeps
  /// (a non-positive baseline term normalizes by 1).  Independent of the
  /// live state; bit-identical to `oracle::make_objective(ctx, ...)`.
  Objective objective(double energy_weight, double time_weight) const;

  /// Bit-identical to `objective.scalar(oracle::estimate_cost(ctx, assignment()))`.
  double scalar(const Objective& objective) const {
    Totals t = totals();
    return objective.scalar_terms(t.energy_nj, t.total_cycles());
  }

  /// What a greedy move would change, without applying it: `ok` is the
  /// move's array-local gate (the post-move state is layering-valid), and
  /// the deltas are the post-move `totals()` minus the live ones, energy
  /// and total cycles.  One method per `GreedyMove` kind: select `cc_id` on
  /// `layer`, migrate `array` to home `layer` (dropping the copies
  /// `migrate_drops` names) or remove `cc_id`.  Whether the post-move state
  /// fits is the footprint's query: `feasible_with_copy(cc_id, layer)` for
  /// a select, `feasible_with_home(array, layer, migrate_drops(...))` for a
  /// migrate; a remove always fits.
  ///
  /// Every move changes the terms of one array only — its sites, the
  /// transfers of its copies and its pinned traffic — so the deltas are
  /// summed over that array alone, in no canonical order: they match the
  /// canonical fold to rounding, not bit for bit (docs/perf.md derives the
  /// bound greedy's screen relies on).  The verdict is exact.  A delta
  /// reads its own array's state only, so it stays bit-identical until a
  /// move touches that array; greedy caches it on that contract.
  ///
  /// Preconditions (the searches' standing invariants): the live
  /// assignment is feasible and layering-valid, a select candidate is
  /// unselected, a removed candidate is selected and a migrate layer
  /// differs from the home.  Allocation-free; internal scratch is reused.
  struct MoveDelta {
    bool ok = false;
    double energy_nj = 0.0;
    double cycles = 0.0;
  };
  MoveDelta select_delta(int cc_id, int layer) const;
  MoveDelta migrate_delta(std::size_t array, int layer) const;
  MoveDelta remove_delta(int cc_id) const;

  /// The copies homing `array` on `layer` makes layering-invalid —
  /// `drop_invalid_copies`'s fixpoint, run on the live state as if the
  /// home had moved: each pass's offenders are found against the state
  /// entering the pass, then dropped together.  Ids in drop order; the
  /// span stays valid until the next call.
  core::IntSpan migrate_drops(std::size_t array, int layer) const;

  // ------------------------------------------- precomputed term accessors
  // Exposed for the branch-and-bound lower bound in exhaustive_assign: the
  // bound is built from the same cached terms the evaluation uses, so it is
  // admissible by construction.
  std::size_t num_sites() const { return site_n_.size(); }
  std::size_t num_candidates() const { return cc_level_.size(); }
  double compute_cycles() const { return compute_cycles_; }

  /// n * access_energy / n * access_latency of `site` if served by `layer`.
  double site_energy_term(std::size_t site, int layer) const {
    return site_energy_[site * static_cast<std::size_t>(num_layers_) +
                        static_cast<std::size_t>(layer)];
  }
  double site_cycle_term(std::size_t site, int layer) const {
    return site_cycles_[site * static_cast<std::size_t>(num_layers_) +
                        static_cast<std::size_t>(layer)];
  }

  /// Candidate ids covering `site`, deepest (highest level) first.
  core::IntSpan covering(std::size_t site) const {
    const int* base = covering_items_.data();
    return {base + covering_off_[site], base + covering_off_[site + 1]};
  }

  /// Member site ids of candidate `cc_id` (the sites whose serving layer a
  /// selection of the candidate can change).
  core::IntSpan candidate_sites(int cc_id) const {
    std::size_t c = static_cast<std::size_t>(cc_id);
    const int* base = cc_sites_items_.data();
    return {base + cc_sites_off_[c], base + cc_sites_off_[c + 1]};
  }

  /// Site ids of array `array`, in id order.
  core::IntSpan array_sites(std::size_t array) const {
    const int* base = array_sites_items_.data();
    return {base + array_sites_off_[array], base + array_sites_off_[array + 1]};
  }

  /// Ancestor ids of candidate `cc_id` (the shallower candidates of its
  /// reuse chain), deepest first: the tail of a member site's covering row
  /// after the candidate itself.  Covering rows are id-descending, so every
  /// ancestor has a smaller id than the candidate — a search deciding
  /// candidates in id order knows a candidate's parent store exactly when
  /// it decides it.
  core::IntSpan ancestors(int cc_id) const {
    std::size_t c = static_cast<std::size_t>(cc_id);
    const int* base = covering_items_.data();
    return {base + cc_anc_[c].first, base + cc_anc_[c].second};
  }

  /// Energy / blocking-cycle contribution of selecting `cc_id` with parent
  /// store `src` and own layer `dst` (fill + write-back as applicable).
  double cc_energy_term(int cc_id, int src, int dst) const;
  double cc_cycle_term(int cc_id, int src, int dst) const;

  /// Pinned fill/flush (energy, cycles) totals for the current array homes.
  std::pair<double, double> pinned_totals() const;

  /// Index of the array access site `site` belongs to.
  std::size_t site_array(std::size_t site) const { return site_array_[site]; }

  /// Pinned fill+flush contribution of homing array `array` on `home`
  /// (zero for the background home) — the per-array terms `pinned_totals`
  /// sums for the current homes.
  double pinned_energy_term(std::size_t array, int home) const;
  double pinned_cycle_term(std::size_t array, int home) const;

 private:
  struct UndoRec {
    enum class Kind { Serving, CopyPush, CopyErase, Home };
    Kind kind;
    int a = 0;  ///< Serving: site     CopyPush/CopyErase: cc_id  Home: array idx
    int b = 0;  ///< Serving: old cc   CopyErase: layer           Home: old layer
    int c = 0;  ///< CopyErase: index in copies
  };

  std::size_t table_index(int cc_id, int src, int dst) const {
    return (static_cast<std::size_t>(cc_id) * static_cast<std::size_t>(num_layers_) +
            static_cast<std::size_t>(src)) *
               static_cast<std::size_t>(num_layers_) +
           static_cast<std::size_t>(dst);
  }

  void set_serving(std::size_t site, int cc_id);
  /// Whether selecting `cc_id` makes it the copy serving `site` (a member).
  bool would_serve(std::size_t site, int cc_id) const {
    int cur = serving_cc_[site];
    return cur < 0 || cc_level_[static_cast<std::size_t>(cur)] <
                          cc_level_[static_cast<std::size_t>(cc_id)];
  }
  /// Deepest selected candidate covering `site` other than `skip`, or -1.
  int deepest_selected(std::size_t site, int skip) const;
  /// The layer of `cc_id` / of its parent store once `migrate_drops`' last
  /// list is dropped and `array` homes on `layer` (-1: not placed).
  int layer_after_drops(int cc_id) const {
    std::size_t c = static_cast<std::size_t>(cc_id);
    return scr_drop_[c] ? -1 : copy_layer_[c];
  }
  int parent_after_drops(int cc_id, std::size_t array, int layer) const;
  /// Whether `cc_id`, selected, is the parent store of placed copy `child`:
  /// the first selected ancestor of `child`, counting `cc_id` itself.
  bool parents(int cc_id, int child) const;
  /// `d` += sign x the transfer terms of `cc_id` from `src` to `dst`.
  void add_copy_terms(MoveDelta& d, int cc_id, int src, int dst, double sign) const {
    d.energy_nj += sign * cc_energy_term(cc_id, src, dst);
    d.cycles += sign * cc_cycle_term(cc_id, src, dst);
  }
  /// `d` += the change of `site`'s terms when `to` serves it instead of `from`.
  void add_reroute(MoveDelta& d, std::size_t site, int from, int to) const {
    d.energy_nj += site_energy_term(site, to) - site_energy_term(site, from);
    d.cycles += site_cycle_term(site, to) - site_cycle_term(site, from);
  }
  void validate_copy(int cc_id, int layer) const;
  std::size_t array_index(const std::string& name) const;
  /// Replay every home change since load into assignment_.array_layer —
  /// writes exactly the entries the eager per-move map writes produced.
  void sync_assignment() const;

  const AssignContext& ctx_;
  int num_layers_ = 0;
  int background_ = 0;

  // ---- assignment-independent precomputation
  Totals baseline_;  ///< totals() of out_of_box(ctx), the objective's baseline
  double compute_cycles_ = 0.0;
  std::vector<i64> site_n_;            ///< dynamic accesses per site
  std::vector<bool> site_write_;
  std::vector<std::size_t> site_array_;  ///< site -> array index
  std::vector<double> site_energy_;    ///< [site][layer]
  std::vector<double> site_cycles_;    ///< [site][layer]
  std::vector<int> covering_items_;          ///< site -> cc ids, level desc (CSR)
  std::vector<std::size_t> covering_off_;    ///< size sites + 1
  std::vector<int> cc_level_;
  std::vector<bool> cc_fill_free_;
  std::vector<bool> cc_write_back_;
  std::vector<i64> cc_elems_moved_;
  std::vector<int> cc_sites_items_;          ///< cc -> member site ids (CSR)
  std::vector<std::size_t> cc_sites_off_;    ///< size candidates + 1
  /// cc -> ancestor ids, level desc: a [first, second) range of covering_items_
  std::vector<std::pair<std::size_t, std::size_t>> cc_anc_;
  std::vector<std::size_t> cc_array_;          ///< cc -> array index
  std::vector<int> array_sites_items_;         ///< array -> site ids (CSR)
  std::vector<std::size_t> array_sites_off_;   ///< size arrays + 1
  std::vector<double> fill_energy_;    ///< [cc][src][dst]
  std::vector<double> wb_energy_;      ///< [cc][src][dst]
  std::vector<double> xfer_cycles_;    ///< [cc][src][dst] (per direction)
  std::vector<bool> array_input_;
  std::vector<bool> array_output_;
  std::vector<i64> array_elems_;
  std::vector<double> pin_fill_energy_;   ///< [array][home]
  std::vector<double> pin_fill_cycles_;   ///< [array][home]
  std::vector<double> pin_flush_energy_;  ///< [array][home]
  std::vector<double> pin_flush_cycles_;  ///< [array][home]

  // ---- incremental state
  /// The copies vector is maintained eagerly (selection order is the
  /// canonical transfer order); array_layer is synced lazily from home_ on
  /// `assignment()` reads, hence mutable together with the dirty flag.
  mutable Assignment assignment_;
  mutable bool assignment_dirty_ = false;
  std::vector<char> home_touched_;      ///< array changed home since load()
  std::vector<int> home_touched_list_;
  std::vector<int> copy_layer_;   ///< cc -> layer or -1
  std::vector<int> serving_cc_;   ///< site -> deepest selected covering cc or -1
  std::vector<int> home_;         ///< array index -> home layer
  core::ArenaStack<UndoRec> undo_;
  FootprintTracker footprint_;    ///< usage matrix, mirrored move for move

  // ---- migrate_drops scratch (sized once at construction; mutable because
  // the query is logically const): the last call's drop list and its marks
  mutable std::vector<char> scr_drop_;       ///< cc -> dropped by the move
  mutable std::vector<int> scr_drop_list_;   ///< the marked cc ids, drop order
};

}  // namespace mhla::assign
