#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <cstddef>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "core/json.h"
#include "core/parallel_for.h"
#include "core/run_budget.h"
#include "core/work_stealing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mhla::assign {

namespace {

/// The layer at `offset` of the canonical home order: background first,
/// then the on-chip layers outermost-in.
int home_layer(const AssignContext& ctx, int offset) {
  const int L = ctx.hierarchy.num_layers();
  return (ctx.hierarchy.background() + L - offset) % L;
}

/// The canonical feasible-home enumeration: `fn(offset, layer)` for each
/// layer of the home order the array fits.  Every phase that walks the
/// array-home decision — the DFS and the bound precompute — goes through
/// here, and the DFS path stores the offset, so a bnb-par task replays a
/// home with `home_layer` alone.
template <typename Fn>
void for_each_feasible_home(const AssignContext& ctx, const ir::ArrayDecl& array,
                            bool allow_migration, Fn&& fn) {
  int last = allow_migration ? ctx.hierarchy.num_layers() - 1 : 0;
  for (int offset = 0; offset <= last; ++offset) {
    int layer = home_layer(ctx, offset);
    if (ctx.hierarchy.layer(layer).fits(array.bytes())) fn(offset, layer);
  }
}

/// The parallel copy phase offloads its Option-B branches only while at
/// least this many candidates remain undecided.  Below it a subtree is too
/// small to pay for the task and its prefix replay; docs/perf.md ("Parallel
/// branch-and-bound") has the per-instance measurements behind the value.
constexpr std::size_t kMinCopySplit = 14;

/// Units a worker of a multi-worker search counts locally before charging
/// them to the shared run budget in one `probe(n)` — one shared fetch_add
/// per batch instead of per node.
constexpr long kProbeBatch = 64;

/// Stamp the anytime contract fields onto a finished (or truncated) result:
/// map a completed run to Optimal/gap 0; on a truncated run name its stop
/// (the expired budget's reason, else the node cap), substitute the greedy
/// fallback when it beats the incumbent, certify the gap against the global
/// root lower bound, and verify the returned assignment is actually
/// consumable.
void finalize_anytime(SearchResult& result, const AssignContext& ctx, bool budget_hit,
                      const core::RunBudget& budget, double lower_bound,
                      const SearchResult* fallback) {
  result.lower_bound = lower_bound;
  if (!budget_hit) {
    result.status = SearchStatus::Optimal;
    result.gap = 0.0;
    return;
  }
  result.stop = budget.expired() ? budget.reason() : core::StopReason::NodeCap;
  if (fallback && fallback->scalar < result.scalar) {
    result.assignment = fallback->assignment;
    result.scalar = fallback->scalar;
  }
  result.status = fits(ctx, result.assignment) && layering_valid(ctx, result.assignment)
                      ? SearchStatus::BudgetExhausted
                      : SearchStatus::Infeasible;
  if (result.scalar > 0.0) {
    result.gap = std::max(0.0, (result.scalar - lower_bound) / result.scalar);
  } else {
    result.gap = -1.0;
  }
}

/// Engine-backed branch-and-bound in canonical DFS order (array homes, then
/// copy candidates skip-first), so the first strictly-improving state is the
/// one a plain enumeration finds; pruning discards only subtrees whose
/// admissible lower bound shows they cannot *strictly* beat the incumbent,
/// placements whose cumulative (layer, nest) footprint already overflows
/// a bounded layer (copy selection only ever adds footprint, so no
/// completion of such a branch is feasible), and placements not strictly
/// below the copy's parent store (fixed by then, so never layering-valid).
///
/// Copyable on purpose: a multi-worker search stamps one search per pool
/// worker from a shared prototype, reusing the engine precompute and the
/// bound tables instead of rebuilding them per worker (a one-worker search
/// runs on the prototype itself).
///
/// Workers visit subtree tasks in steal order, not canonical DFS order, so
/// canonical-first tie semantics cannot lean on visit order.  Instead every
/// leaf is keyed by its canonical path: pruning is strict (a subtree that
/// could still tie survives) and a tied leaf replaces the incumbent iff its
/// path is lexicographically smaller — see `evaluate_leaf` and the
/// reduction in `branch_and_bound`.
struct EngineSearch {
  const AssignContext& ctx;
  const SearchOptions& options;
  CostEngine engine;
  Objective objective;
  Assignment best;
  double best_scalar = 0.0;
  long states = 0;  ///< leaves evaluated
  /// Nodes charged: exact for a lone worker; with peers, the search's total
  /// at this worker's last flush plus its own nodes since.
  long nodes = 0;
  bool budget_hit = false;
  long bound_prunes = 0;
  long capacity_prunes = 0;

  /// Cooperative run budget (never null: the entry points always resolve
  /// one, if only an unlimited local).  Charged one unit per array-phase
  /// and per copy-phase node (leaves included), so an allowance or a
  /// deadline bounds the walk even where the bound cuts nearly every leaf;
  /// never affects any decision unless it expires,
  /// so run-to-completion results are bit-identical with or without a
  /// budget attached.
  core::RunBudget* run_budget = nullptr;

  /// Units charged per `probe` call.  A one-worker search charges every
  /// unit as it happens (batch 1), so `max_probes` and fault-injection hit
  /// counts stay exact.  A worker with peers batches `kProbeBatch` units,
  /// reads the plain `expired()` flag in between, and flushes the remainder
  /// when each task ends.
  long probe_batch = 1;
  long unflushed_probes_ = 0;

  /// Node total of a multi-worker search (null for a lone worker): each
  /// flush adds its batch and reads the sum back, so `max_states` caps the
  /// search, overshot by at most one batch per worker.
  std::atomic<long>* shared_nodes = nullptr;

  /// Count one search node; false once the search has charged `max_states`
  /// nodes or the budget has expired.
  bool charge() {
    if (++nodes > options.max_states) return false;
    if (++unflushed_probes_ < probe_batch) return !run_budget->expired();
    return flush_probes();
  }

  bool flush_probes() {
    long n = unflushed_probes_;
    unflushed_probes_ = 0;
    if (n != 0 && shared_nodes) nodes = shared_nodes->fetch_add(n, std::memory_order_relaxed) + n;
    return n == 0 || run_budget->probe(n);
  }

  /// Incumbent shared by every worker of the search (and seeded with the
  /// greedy scalar).  Tasks publish every locally improving scalar and
  /// prune against it *strictly* — a subtree is cut only when it provably
  /// cannot even equal the shared value — so the canonical-DFS-order
  /// optimum survives in its own task regardless of which task lowered the
  /// bound first.
  core::AtomicMin* shared_incumbent = nullptr;

  core::WorkStealingPool* pool = nullptr;
  /// Offload hook: hand a canonical path prefix to the pool as a new
  /// task.  Set per worker by `branch_and_bound`, and only when the pool
  /// has peers to steal; consulted only when the pool is starving.
  std::function<void(std::vector<int>)> spawn_subtree;
  /// Canonical DFS path of the current node, one code per decision: entry
  /// a < A is array a's home as its offset in the home order (see
  /// `home_layer`); entry A + j is candidate j's choice — 0 to skip,
  /// layer + 1 to place it on `layer`.  Each code maps to its layer by
  /// arithmetic alone, so a prefix replays to the identical subtree on any
  /// worker, and each grows strictly with visit order at its position, so
  /// lexicographic order over full paths equals canonical DFS order.
  std::vector<int> cur_path_;
  std::vector<int> best_path_;  ///< path of `best` (all zeros = out-of-box)

  /// Running lower bound, split into an exact part (terms whose final value
  /// is already fixed) and an optimistic part (admissible minima for the
  /// still-open decisions).  Passed by value down the DFS so backtracking
  /// restores it exactly.
  struct Bound {
    double exact_e = 0.0;
    double exact_c = 0.0;
    double opt_e = 0.0;
    double opt_c = 0.0;
  };

  // -- static bound tables (per context) --
  /// [cc * background + layer]: the candidate's cheapest transfer into
  /// `layer` over every layering-valid parent store (src > layer), divided
  /// by its member-site count — the share of that transfer each member site
  /// carries while the candidate is undecided.  Admissible: a selected copy
  /// serves a subset of its member sites and pays at least the cheapest
  /// transfer, so the shares of the sites it serves sum to at most what it
  /// pays.
  std::vector<double> share_e_;
  std::vector<double> share_c_;
  /// Per-site suffix minima over undecided candidates, [site * (C + 1) +
  /// next_cc]: with candidates decided in id order, the cheapest term any
  /// undecided candidate (id >= next_cc) covering the site could still give
  /// it — its access term on a layer the candidate individually fits plus
  /// the candidate's transfer share there — or +infinity once no covering
  /// candidate remains open.
  std::vector<double> suffix_e_;
  std::vector<double> suffix_c_;
  /// [j] -> sites whose suffix minimum actually changes when candidate j is
  /// decided (suffix at j+1 differs from j) — what the skip branch
  /// re-bounds.  With candidates sorted (array, nest, level) the deepest
  /// chain member usually carries the minimum, so for most candidates this
  /// list is empty and skipping costs nothing; a site whose last useful
  /// candidate dies mid-chain tightens the moment it does.  CSR-flattened
  /// (items + offsets) so per-worker copies are two contiguous blocks.
  std::vector<int> tighten_items_;
  std::vector<std::size_t> tighten_off_;
  core::IntSpan tighten_at(std::size_t j) const {
    const int* base = tighten_items_.data();
    return {base + tighten_off_[j], base + tighten_off_[j + 1]};
  }
  /// Per-site optimistic term before the array's home is decided: min over
  /// the homes the DFS may choose (background always qualifies) of the
  /// site's term there plus its share of the array's pinned fill/flush
  /// (divided evenly over the array's sites, so the shares sum to exactly
  /// the pinned traffic), and over the copy suffix minima — the
  /// array-home-phase part of the bound.
  std::vector<double> site_open_e_;
  std::vector<double> site_open_c_;
  std::vector<int> array_sites_items_;  ///< array index -> site ids (CSR)
  std::vector<std::size_t> array_sites_off_;
  core::IntSpan array_sites(std::size_t a) const {
    const int* base = array_sites_items_.data();
    return {base + array_sites_off_[a], base + array_sites_off_[a + 1]};
  }
  // -- per copy phase --
  std::vector<double> site_lb_e_;  ///< current per-site bound contribution
  std::vector<double> site_lb_c_;

  // -- footprint-aware copy-phase bound (rebuilt at each copy-phase entry) --
  /// The static suffix tables min over every layer a candidate
  /// *individually* fits — too optimistic once the homes-only footprint of
  /// this copy-phase entry already denies some of those placements.  When
  /// that happens the dynamic tables below rebuild the identical suffix
  /// recurrence over only the placements with entry headroom
  /// (usage(layer, nest) + bytes <= capacity).  Copy selection only ever
  /// adds footprint, so entry-feasible is a superset of selectable anywhere
  /// in the subtree: dropping the denied terms keeps the bound admissible
  /// while a site whose every remaining placement is denied contributes its
  /// exact serving term (suffix +inf) instead of an unreachable optimistic
  /// one.  When nothing is denied, `dyn_active_` stays false and the bound
  /// reads the static tables untouched.
  bool dyn_active_ = false;
  std::vector<double> dyn_suffix_e_;  ///< [site * (C + 1) + next_cc]
  std::vector<double> dyn_suffix_c_;
  std::vector<char> placeable_;       ///< scratch: [cc * background + layer]

  double suffix_e(std::size_t site, std::size_t next_cc) const {
    std::size_t i = site * (engine.num_candidates() + 1) + next_cc;
    return dyn_active_ ? dyn_suffix_e_[i] : suffix_e_[i];
  }
  double suffix_c(std::size_t site, std::size_t next_cc) const {
    std::size_t i = site * (engine.num_candidates() + 1) + next_cc;
    return dyn_active_ ? dyn_suffix_c_[i] : suffix_c_[i];
  }

  /// Mark in `placeable_` every (candidate, on-chip layer) placement the
  /// candidate individually fits and, with `entry_headroom`, that still
  /// fits the live footprint of its nest.  Returns true iff the headroom
  /// check denied a placement the individual fit allows.
  bool mark_placeable(bool entry_headroom) {
    const auto& candidates = ctx.reuse.candidates();
    const std::size_t B = static_cast<std::size_t>(ctx.hierarchy.background());
    placeable_.assign(candidates.size() * B, 0);
    bool denied = false;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const analysis::CopyCandidate& cc = candidates[c];
      for (std::size_t layer = 0; layer < B; ++layer) {
        const mem::MemLayer& target = ctx.hierarchy.layer(static_cast<int>(layer));
        if (!target.fits(cc.bytes)) continue;
        if (entry_headroom &&
            !target.fits(engine.footprint().usage(static_cast<int>(layer), cc.nest) + cc.bytes)) {
          denied = true;
          continue;
        }
        placeable_[c * B + layer] = 1;
      }
    }
    return denied;
  }

  /// The suffix-minimum recurrence over the placements `placeable_` marks,
  /// one site row at a time: seed column j with the cheapest term candidate
  /// j offers the site (access term plus transfer share), then fold right
  /// to left; column C is "no candidate left" (+inf).  Builds the static
  /// tables at construction (nothing denied) and the footprint-filtered
  /// ones at a copy-phase entry.
  void build_suffix(std::vector<double>& out_e, std::vector<double>& out_c) const {
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t C = engine.num_candidates();
    const std::size_t S = engine.num_sites();
    const std::size_t B = static_cast<std::size_t>(ctx.hierarchy.background());
    out_e.assign(S * (C + 1), inf);
    out_c.assign(S * (C + 1), inf);
    for (std::size_t s = 0; s < S; ++s) {
      double* row_e = out_e.data() + s * (C + 1);
      double* row_c = out_c.data() + s * (C + 1);
      for (int cc : engine.covering(s)) {
        std::size_t c = static_cast<std::size_t>(cc);
        for (std::size_t layer = 0; layer < B; ++layer) {
          if (!placeable_[c * B + layer]) continue;
          int l = static_cast<int>(layer);
          row_e[c] = std::min(row_e[c], engine.site_energy_term(s, l) + share_e_[c * B + layer]);
          row_c[c] = std::min(row_c[c], engine.site_cycle_term(s, l) + share_c_[c * B + layer]);
        }
      }
      for (std::size_t c = C; c-- > 0;) {
        row_e[c] = std::min(row_e[c], row_e[c + 1]);
        row_c[c] = std::min(row_c[c], row_c[c + 1]);
      }
    }
  }

  /// Recompute the entry-feasibility filter and, if it denies anything, the
  /// dynamic suffix tables.  Called once per copy-phase entry, before any
  /// copy is selected, so `engine.footprint()` holds exactly the homes-only
  /// usage; a replayed task recomputes byte-identical tables because the
  /// same homes produce the same footprint.
  void prepare_copy_bound() {
    dyn_active_ = mark_placeable(/*entry_headroom=*/true);
    if (dyn_active_) build_suffix(dyn_suffix_e_, dyn_suffix_c_);
  }

  /// Backtracking journal for the per-site bound contributions; tighten
  /// pushes the displaced values, restore pops to a mark.  An arena stack
  /// reserved for the deepest possible DFS path (every candidate's member
  /// sites pushed once) keeps the hot path allocation-free outright.
  struct SavedSite {
    int site;
    double e;
    double c;
  };
  core::ArenaStack<SavedSite> saved_sites_;

  EngineSearch(const AssignContext& c, const SearchOptions& o)
      : ctx(c), options(o), engine(c), objective(make_objective(c, o.energy_weight, o.time_weight)) {
    best_scalar = engine.scalar(objective);
    best = engine.assignment();
    precompute_bounds();
  }

  void precompute_bounds() {
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t C = engine.num_candidates();
    const std::size_t S = engine.num_sites();
    const int L = ctx.hierarchy.num_layers();
    const std::size_t B = static_cast<std::size_t>(ctx.hierarchy.background());

    share_e_.assign(C * B, 0.0);
    share_c_.assign(C * B, 0.0);
    std::size_t member_sites = 0;
    for (std::size_t c = 0; c < C; ++c) {
      int cc = static_cast<int>(c);
      std::size_t members = engine.candidate_sites(cc).size();
      member_sites += members;
      double per_site = 1.0 / static_cast<double>(std::max<std::size_t>(members, 1));
      for (std::size_t dst = 0; dst < B; ++dst) {
        double lb_e = inf;
        double lb_c = inf;
        // Layering-valid states have src > dst (the search cuts the rest),
        // so the cheapest valid parent bounds the transfer admissibly.
        for (int src = static_cast<int>(dst) + 1; src < L; ++src) {
          lb_e = std::min(lb_e, engine.cc_energy_term(cc, src, static_cast<int>(dst)));
          lb_c = std::min(lb_c, engine.cc_cycle_term(cc, src, static_cast<int>(dst)));
        }
        share_e_[c * B + dst] = lb_e * per_site;
        share_c_[c * B + dst] = lb_c * per_site;
      }
    }
    mark_placeable(/*entry_headroom=*/false);
    build_suffix(suffix_e_, suffix_c_);

    tighten_off_.assign(C + 1, 0);
    tighten_items_.clear();
    for (std::size_t c = 0; c < C; ++c) {
      for (int site : engine.candidate_sites(static_cast<int>(c))) {
        std::size_t i = static_cast<std::size_t>(site) * (C + 1) + c;
        if (suffix_e_[i + 1] != suffix_e_[i] || suffix_c_[i + 1] != suffix_c_[i]) {
          tighten_items_.push_back(site);
        }
      }
      tighten_off_[c + 1] = tighten_items_.size();
    }
    // The deepest DFS path decides every candidate once, pushing at most its
    // member sites, so the member-site total bounds the journal depth.
    saved_sites_.reserve(member_sites);

    // The array->sites map via a counting sort over the site->array table.
    const auto& arrays = ctx.program.arrays();
    array_sites_off_.assign(arrays.size() + 1, 0);
    for (std::size_t s = 0; s < S; ++s) ++array_sites_off_[engine.site_array(s) + 1];
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      array_sites_off_[a + 1] += array_sites_off_[a];
    }
    array_sites_items_.assign(S, 0);
    {
      std::vector<std::size_t> cursor(array_sites_off_.begin(), array_sites_off_.end() - 1);
      for (std::size_t s = 0; s < S; ++s) {
        array_sites_items_[cursor[engine.site_array(s)]++] = static_cast<int>(s);
      }
    }
    site_open_e_.assign(S, inf);
    site_open_c_.assign(S, inf);
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      // An array without access sites has no row to carry a share; its
      // pinned traffic simply enters the bound exactly once its home is set.
      core::IntSpan sites = array_sites(a);
      if (sites.empty()) continue;
      double per_site = 1.0 / static_cast<double>(sites.size());
      for_each_feasible_home(ctx, arrays[a], options.allow_array_migration, [&](int, int home) {
        double pin_e = engine.pinned_energy_term(a, home) * per_site;
        double pin_c = engine.pinned_cycle_term(a, home) * per_site;
        for (int site : sites) {
          std::size_t s = static_cast<std::size_t>(site);
          site_open_e_[s] = std::min(site_open_e_[s], engine.site_energy_term(s, home) + pin_e);
          site_open_c_[s] = std::min(site_open_c_[s], engine.site_cycle_term(s, home) + pin_c);
        }
      });
    }
    for (std::size_t s = 0; s < S; ++s) {
      site_open_e_[s] = std::min(site_open_e_[s], suffix_e_[s * (C + 1)]);
      site_open_c_[s] = std::min(site_open_c_[s], suffix_c_[s * (C + 1)]);
    }
  }

  /// Admissible scalar lower bound for every completion of the current node.
  /// The tiny relative margin absorbs floating-point drift in the running
  /// sums so pruning never discards a state that could strictly improve.
  /// The cut is against the shared incumbent, which every worker's best
  /// improvement lowers (so it is never above `best_scalar`), and strict:
  /// the best may come from a canonically *later* task, so a subtree that
  /// could still tie may hold the canonical-first optimum and must survive
  /// for the path tie-break.
  bool prune(const Bound& bound) {
    double lb = objective.scalar_terms(bound.exact_e + bound.opt_e, bound.exact_c + bound.opt_c);
    if (lb * (1.0 - 1e-9) > shared_incumbent->load()) {
      ++bound_prunes;
      return true;
    }
    return false;
  }

  void evaluate_leaf() {
    ++states;
    // Both hold by construction — every placement on the path passed the
    // incremental (layer, nest) footprint check and sits below its parent
    // store — so these reads are guards, not filters.
    if (!engine.fits()) return;
    if (!engine.layering_valid()) return;
    double scalar = engine.scalar(objective);
    // Ties go to the canonically first path, because this worker visits
    // subtrees in steal order.
    if (scalar < best_scalar || (scalar == best_scalar && cur_path_ < best_path_)) {
      best_scalar = scalar;
      best = engine.assignment();
      best_path_ = cur_path_;
      shared_incumbent->update(scalar);
      // Incumbent timeline: rare (once per improvement), observation-only,
      // and gated on one relaxed load, so the search path never changes.
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled()) {
        core::JsonText args;
        args << "{\"scalar\": " << core::json_number_exact(scalar) << ", \"state\": " << states
             << "}";
        tracer.instant("incumbent", "search", args.take());
      }
    }
  }

  /// Candidate j has just been decided: `sites` can no longer receive a
  /// copy from it, so each one's bound contribution tightens to
  /// min(current serving term, suffix minimum over candidates > j).  Once a
  /// site's last covering candidate is decided the suffix is +inf and the
  /// contribution becomes the exact serving term.  Displaced values go on
  /// `saved_sites_`; the caller restores to its mark.
  ///
  /// A skip re-bounds only `tighten_at(j)`, the sites whose *static* suffix
  /// moves: the others keep a contribution at most the new minimum.  With
  /// the dynamic (footprint-filtered) tables active a site may keep a
  /// stale, smaller contribution past the step where only its dynamic
  /// suffix rose; that is merely a weaker admissible bound, and spawn and
  /// replay tighten at identical steps either way.  A selection re-bounds
  /// every member site: they are now served by the copy, whose transfer is
  /// charged exactly, so a contribution still holding the copy's own share
  /// would count that transfer twice.
  void tighten_sites(core::IntSpan sites, std::size_t j, Bound& bound) {
    for (int site : sites) {
      std::size_t s = static_cast<std::size_t>(site);
      int layer = engine.serving_layer(s);
      double e = std::min(engine.site_energy_term(s, layer), suffix_e(s, j + 1));
      double c = std::min(engine.site_cycle_term(s, layer), suffix_c(s, j + 1));
      saved_sites_.push_back({site, site_lb_e_[s], site_lb_c_[s]});
      bound.opt_e += e - site_lb_e_[s];
      bound.opt_c += c - site_lb_c_[s];
      site_lb_e_[s] = e;
      site_lb_c_[s] = c;
    }
  }

  /// Select candidate j on `layer` below its parent store and fold the
  /// decision into the bound: the copy's transfer is exact (its ancestors
  /// all have smaller ids, so its parent store is final), and its member
  /// sites re-bound against the new serving layer.
  void select_into_bound(std::size_t j, int parent, int layer, Bound& bound) {
    int id = static_cast<int>(j);
    engine.select_copy(id, layer);
    bound.exact_e += engine.cc_energy_term(id, parent, layer);
    bound.exact_c += engine.cc_cycle_term(id, parent, layer);
    tighten_sites(engine.candidate_sites(id), j, bound);
  }

  void restore_sites(std::size_t mark) {
    while (saved_sites_.size() > mark) {
      const SavedSite& saved = saved_sites_.back();
      std::size_t s = static_cast<std::size_t>(saved.site);
      site_lb_e_[s] = saved.e;
      site_lb_c_[s] = saved.c;
      saved_sites_.pop_back();
    }
  }

  void recurse_copies(std::size_t j, Bound bound) {
    if (budget_hit) return;
    if (!charge()) {
      budget_hit = true;
      return;
    }
    if (prune(bound)) return;

    const auto& candidates = ctx.reuse.candidates();
    if (j == candidates.size()) {
      evaluate_leaf();
      return;
    }
    // Parallel split: when peers are starving and enough candidates remain
    // for the subtree to outweigh a prefix replay, hand every live Option-B
    // branch to the pool first, then keep only the skip branch locally.
    const bool offload = candidates.size() - j >= kMinCopySplit && should_split();
    if (offload) place_copy(j, bound, /*offload=*/true);
    // Option A: skip this candidate.
    {
      cur_path_[ctx.program.arrays().size() + j] = 0;
      Bound child = bound;
      std::size_t mark = saved_sites_.size();
      tighten_sites(tighten_at(j), j, child);
      recurse_copies(j + 1, child);
      restore_sites(mark);
    }
    if (!offload) place_copy(j, bound, /*offload=*/false);
  }

  /// Option B of candidate j: place it on every on-chip layer it fits
  /// individually, unless the branch has no feasible, layering-valid
  /// completion.  Each surviving branch is either descended in place or,
  /// when `offload`, bounded and — only if its bound survives — handed to
  /// the pool as a task.  Offloading runs the exact guards the local
  /// descent runs (the placement cuts and the child bound prune), so a
  /// spawned code always replays to a live branch this DFS would have
  /// entered, and the prune counters match.
  void place_copy(std::size_t j, const Bound& bound, bool offload) {
    const std::size_t A = ctx.program.arrays().size();
    const analysis::CopyCandidate& cc = ctx.reuse.candidates()[j];
    assert(cc.id == static_cast<int>(j));
    // Candidates are decided in id order and every ancestor has a smaller
    // id, so the parent store read here is the one the copy will have in
    // every completion of this branch.
    assert(std::all_of(engine.ancestors(cc.id).begin(), engine.ancestors(cc.id).end(),
                       [j](int anc) { return static_cast<std::size_t>(anc) < j; }));
    const int parent = engine.parent_layer(cc.id);
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.fits(cc.bytes)) continue;
      // Two cuts, counted together.  A copy not strictly below its (final)
      // parent store can never become layering-valid.  And the engine's
      // tracker carries the cumulative (layer, nest) footprint of the whole
      // path — array homes plus the copies selected so far — so one cell
      // read decides whether this placement can still fit; copy selection
      // only ever adds footprint, so an overflowing branch has no feasible
      // completion.
      if (parent <= layer || !target.fits(engine.footprint().usage(layer, cc.nest) + cc.bytes)) {
        ++capacity_prunes;
        continue;
      }
      cur_path_[A + j] = layer + 1;
      CostEngine::Checkpoint cp = engine.checkpoint();
      Bound child = bound;
      std::size_t mark = saved_sites_.size();
      select_into_bound(j, parent, layer, child);
      if (!offload) {
        recurse_copies(j + 1, child);
      } else if (!prune(child)) {
        spawn_prefix(A + j + 1);
      }
      restore_sites(mark);
      engine.undo_to(cp);
    }
  }

  /// True where this worker should hand branches to the pool: the
  /// pool has more than one worker (`spawn_subtree` is set only then) and
  /// peers are starving.
  bool should_split() const { return spawn_subtree && pool->starving(); }

  /// Offload the subtree under the first `len` decisions of the current path.
  void spawn_prefix(std::size_t len) {
    spawn_subtree(std::vector<int>(cur_path_.begin(),
                                   cur_path_.begin() + static_cast<std::ptrdiff_t>(len)));
  }

  /// Replay one copy decision of a stolen task's prefix onto the engine and
  /// the bound.  No prune or feasibility re-checks: the spawning worker ran
  /// them on the identical deterministic state before offloading, so
  /// re-running could only agree.
  void apply_copy_code(std::size_t j, int code, Bound& bound) {
    cur_path_[ctx.program.arrays().size() + j] = code;
    if (code > 0) {
      int parent = engine.parent_layer(static_cast<int>(j));
      select_into_bound(j, parent, code - 1, bound);
    } else {
      tighten_sites(tighten_at(j), j, bound);
    }
  }

  /// Copy-phase entry, optionally replaying the copy-code prefix of a
  /// stolen task before recursing at candidate `j0`.  Array homes are fixed
  /// from here on: the pinned traffic and the array-only footprint are
  /// exact, and no copies are selected yet, so the engine's tracker holds
  /// exactly the homes-only footprint the footprint-aware bound filters
  /// against.  The bound is rebuilt from scratch — the same homes always
  /// produce the same numbers, so a replayed subtree prunes identically to
  /// the subtree the spawning worker would have descended.
  void enter_copy_phase_at(std::size_t j0, const int* codes) {
    if (!engine.fits()) return;  // no copy subset can shrink an array overflow

    prepare_copy_bound();
    Bound bound;
    auto [pin_e, pin_c] = engine.pinned_totals();
    bound.exact_e = pin_e;
    bound.exact_c = engine.compute_cycles() + pin_c;

    const std::size_t S = engine.num_sites();
    site_lb_e_.assign(S, 0.0);
    site_lb_c_.assign(S, 0.0);
    for (std::size_t s = 0; s < S; ++s) {
      // No copies are selected yet, so serving_layer == the array's home;
      // suffix 0 is the minimum over every covering candidate.
      int home = engine.serving_layer(s);
      site_lb_e_[s] = std::min(engine.site_energy_term(s, home), suffix_e(s, 0));
      site_lb_c_[s] = std::min(engine.site_cycle_term(s, home), suffix_c(s, 0));
      bound.opt_e += site_lb_e_[s];
      bound.opt_c += site_lb_c_[s];
    }
    for (std::size_t j = 0; j < j0; ++j) apply_copy_code(j, codes[j], bound);
    recurse_copies(j0, bound);
  }

  /// Fold array `a`'s home decision into the array-phase bound: its pinned
  /// traffic becomes exact and its sites' contributions move from the
  /// any-home optimistic term to min(term at the chosen home, copy suffix).
  /// The bound travels by value down the DFS, so no restore is needed.
  void apply_home_to_bound(std::size_t a, int home, Bound& bound) {
    bound.exact_e += engine.pinned_energy_term(a, home);
    bound.exact_c += engine.pinned_cycle_term(a, home);
    const std::size_t C = engine.num_candidates();
    for (int site : array_sites(a)) {
      std::size_t s = static_cast<std::size_t>(site);
      double e = std::min(engine.site_energy_term(s, home), suffix_e_[s * (C + 1)]);
      double c = std::min(engine.site_cycle_term(s, home), suffix_c_[s * (C + 1)]);
      bound.opt_e += e - site_open_e_[s];
      bound.opt_c += c - site_open_c_[s];
    }
  }

  void recurse_arrays(std::size_t index, Bound bound) {
    if (budget_hit) return;
    if (!charge()) {
      budget_hit = true;
      return;
    }
    if (prune(bound)) return;
    const auto& arrays = ctx.program.arrays();
    if (index == arrays.size()) {
      enter_copy_phase_at(0, nullptr);
      return;
    }
    // Parallel split: the array phase is shallow and every subtree under it
    // is large, so when peers starve every live home becomes a task (the
    // last one spawned is this worker's next, LIFO) and this node returns.
    const bool offload = should_split();
    for_each_feasible_home(ctx, arrays[index], options.allow_array_migration,
                           [&](int offset, int layer) {
      cur_path_[index] = offset;
      CostEngine::Checkpoint cp = engine.checkpoint();
      engine.set_home(index, layer);
      Bound child = bound;
      apply_home_to_bound(index, layer, child);
      if (!offload) {
        recurse_arrays(index + 1, child);
      } else if (!prune(child)) {
        spawn_prefix(index + 1);
      }
      engine.undo_to(cp);
    });
  }

  /// Array-phase bound with the homes of arrays [0, homes) already set on
  /// the engine: every site starts at its any-home optimistic term, then
  /// each decided home is folded in.  `homes == 0` gives the root bound.
  Bound array_phase_bound(std::size_t homes) {
    Bound bound;
    bound.exact_c = engine.compute_cycles();
    const std::size_t S = engine.num_sites();
    for (std::size_t s = 0; s < S; ++s) {
      bound.opt_e += site_open_e_[s];
      bound.opt_c += site_open_c_[s];
    }
    for (std::size_t a = 0; a < homes; ++a) {
      apply_home_to_bound(a, engine.home_of(a), bound);
    }
    return bound;
  }

  /// Global admissible scalar lower bound of the whole search (the root
  /// task's bound before any decision): every feasible assignment
  /// costs at least this much.  Built from the static per-site/per-array
  /// tables, so it is independent of the engine's current state — the
  /// anytime gap certificate compares the incumbent against it.
  double root_scalar_bound() {
    Bound bound = array_phase_bound(0);
    return objective.scalar_terms(bound.exact_e + bound.opt_e, bound.exact_c + bound.opt_c);
  }

  /// Execute one work-stealing task: replay the canonical path prefix
  /// onto this worker's engine, search the subtree under it, and unwind so
  /// the next task this worker claims starts from a pristine out-of-box
  /// engine.  A prefix inside the array phase rebuilds the array-phase
  /// bound from the decided homes; a prefix reaching the copy phase lets
  /// `enter_copy_phase_at` rebuild its own bound — either way replay needs
  /// nothing from the spawning worker beyond the codes.
  ///
  /// `nodes` and `budget_hit` outlive the task, so `max_states` bounds the
  /// whole search, not each task; once hit, this worker's later tasks
  /// return immediately and the run reports as truncated.  The task's
  /// uncharged probe remainder is flushed to the budget on exit.
  void run_task(const std::vector<int>& prefix) {
    if (budget_hit) return;
    const auto& arrays = ctx.program.arrays();
    const std::size_t A = arrays.size();
    std::size_t homes = std::min(prefix.size(), A);
    for (std::size_t a = 0; a < homes; ++a) {
      cur_path_[a] = prefix[a];
      engine.set_home(a, home_layer(ctx, prefix[a]));
    }
    if (prefix.size() < A) {
      recurse_arrays(prefix.size(), array_phase_bound(homes));
    } else {
      enter_copy_phase_at(prefix.size() - A, prefix.data() + A);
    }
    if (!flush_probes()) budget_hit = true;
    // Blanket unwind: drop the replay's journal entries and rewind the
    // engine to out-of-box for the next task.
    restore_sites(0);
    engine.undo_to(0);
  }
};

/// Seed `incumbent` with a greedy run (when `bnb_seed_incumbent` is on) and
/// return that run.  A greedy run gives an *achievable* scalar, so pruning strictly above it
/// can only discard non-optimal subtrees: admissible bounds satisfy
/// lb <= optimum <= seed on any subtree holding an optimal state.  The seed
/// scalar rides in `shared_incumbent` — whose prune is strict — rather than
/// the local best, so tie states (scalar == seed) still enumerate and the
/// returned optimum is bit-identical to an unseeded search.  The full
/// greedy result is kept as the anytime fallback: if the budget expires
/// before the enumeration beats it, its assignment is the best answer.
/// The seed search itself observes the run budget, so a cancelled run
/// degrades all the way down.
std::optional<SearchResult> seed_incumbent(const AssignContext& ctx, const SearchOptions& options,
                                           core::RunBudget* run_budget,
                                           core::AtomicMin& incumbent) {
  if (!options.bnb_seed_incumbent) return std::nullopt;
  SearchOptions greedy;
  greedy.energy_weight = options.energy_weight;
  greedy.time_weight = options.time_weight;
  greedy.allow_array_migration = options.allow_array_migration;
  greedy.shared_budget = run_budget;
  SearchResult seed = greedy_assign(ctx, greedy);
  incumbent.update(seed.scalar);
  return seed;
}

/// The one branch-and-bound driver behind "bnb" (one worker) and "bnb-par"
/// (`bnb_threads` workers): one `EngineSearch` per pool worker — the
/// prototype itself when alone, else a lazy copy of it — subtree tasks that
/// split themselves on demand (root homes first, then down into the copy
/// phase) whenever peers starve, a shared strictly-pruning incumbent, and a
/// (scalar, canonical-path) reduction over the per-worker bests that
/// returns the canonical-DFS-order optimum for any worker count and any
/// steal interleaving (see the notes on `EngineSearch`).
SearchResult branch_and_bound(const AssignContext& ctx, const SearchOptions& options,
                              unsigned threads) {
  std::optional<core::RunBudget> local;
  core::RunBudget* run_budget = core::resolve_budget(options.budget, options.shared_budget, local);

  EngineSearch prototype(ctx, options);
  prototype.run_budget = run_budget;
  double root_lb = prototype.root_scalar_bound();

  SearchResult result;
  result.assignment = prototype.best;
  result.scalar = prototype.best_scalar;

  // Both seeds are costs of feasible assignments, so strict pruning above
  // them never cuts an optimal state; the returned assignment always comes
  // from the enumeration (greedy substitutes only on a truncated run).
  core::AtomicMin incumbent(prototype.best_scalar);
  std::optional<SearchResult> fallback = seed_incumbent(ctx, options, run_budget, incumbent);

  core::WorkStealingPool pool(threads);
  const bool alone = pool.num_workers() == 1;

  const std::size_t path_len = ctx.program.arrays().size() + ctx.reuse.candidates().size();
  prototype.pool = &pool;
  prototype.probe_batch = alone ? 1 : kProbeBatch;
  std::atomic<long> search_nodes{0};
  if (!alone) prototype.shared_nodes = &search_nodes;
  prototype.shared_incumbent = &incumbent;
  prototype.cur_path_.assign(path_len, 0);
  prototype.best_path_.assign(path_len, 0);  // the out-of-box incumbent is the all-zero leaf

  // One search per worker, created on its first task so idle workers never
  // pay the engine copy; the search (and its engine) is reused for every
  // task that worker claims.  A lone worker has nobody to feed, so it never
  // splits and runs the one root task as a plain DFS on the prototype.
  std::vector<std::unique_ptr<EngineSearch>> copies(pool.num_workers());
  std::vector<EngineSearch*> workers(pool.num_workers(), nullptr);
  if (alone) workers[0] = &prototype;
  std::function<void(unsigned, const std::vector<int>&)> run_subtree =
      [&](unsigned w, const std::vector<int>& prefix) {
        obs::Span span("bnb_task", "search");
        if (!workers[w]) {
          copies[w] = std::make_unique<EngineSearch>(prototype);
          workers[w] = copies[w].get();
          workers[w]->spawn_subtree = [&pool, &run_subtree, w](std::vector<int> child) {
            pool.spawn(w, [&run_subtree, child = std::move(child)](unsigned worker) {
              run_subtree(worker, child);
            });
          };
        }
        workers[w]->run_task(prefix);
      };
  pool.spawn(0, [&run_subtree](unsigned w) { run_subtree(w, std::vector<int>{}); });
  std::size_t skipped = pool.run(run_budget);
  // Scheduler telemetry, recorded once per search from the pool's
  // per-worker tallies (nothing is counted on the task path itself).
  obs::Registry& registry = obs::Registry::instance();
  registry.histogram("search.bnb_tasks").record(static_cast<std::uint64_t>(pool.tasks_run()));
  registry.counter("search.bnb_steals").add(static_cast<std::uint64_t>(pool.steals()));

  // (scalar, canonical path) reduction over the per-worker searches: the
  // smallest scalar wins and path order breaks ties exactly as canonical
  // DFS visit order would.  A null winner path stands for the all-zero
  // out-of-box path, which no other path can precede.  Tasks the expired
  // budget made the pool discard mark the run truncated.
  bool budget_hit = skipped > 0;
  const std::vector<int>* best_path = nullptr;
  for (const EngineSearch* worker : workers) {
    if (!worker) continue;
    result.states_explored += worker->states;
    result.bound_prunes += worker->bound_prunes;
    result.capacity_prunes += worker->capacity_prunes;
    budget_hit = budget_hit || worker->budget_hit;
    bool wins = worker->best_scalar < result.scalar ||
                (worker->best_scalar == result.scalar && best_path &&
                 worker->best_path_ < *best_path);
    if (wins) {
      result.scalar = worker->best_scalar;
      result.assignment = worker->best;
      best_path = &worker->best_path_;
    }
  }
  finalize_anytime(result, ctx, budget_hit, *run_budget, root_lb,
                   fallback ? &*fallback : nullptr);
  return result;
}

}  // namespace

SearchResult exhaustive_assign(const AssignContext& ctx, const SearchOptions& options) {
  return branch_and_bound(ctx, options, 1);
}

SearchResult exhaustive_parallel_assign(const AssignContext& ctx, const SearchOptions& options) {
  return branch_and_bound(ctx, options,
                          options.bnb_threads ? options.bnb_threads : core::default_parallelism());
}

}  // namespace mhla::assign
