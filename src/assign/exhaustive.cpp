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
/// consumable.  Where capacity does not bind the root bound equals the
/// optimum and may round an ulp above it, so the reported bound is clamped
/// to the returned scalar.
void finalize_anytime(SearchResult& result, const AssignContext& ctx, bool budget_hit,
                      const core::RunBudget& budget, double lower_bound,
                      const SearchResult* fallback) {
  if (!budget_hit) {
    result.status = SearchStatus::Optimal;
    result.gap = 0.0;
    result.lower_bound = std::min(lower_bound, result.scalar);
    return;
  }
  result.stop = budget.expired() ? budget.reason() : core::StopReason::NodeCap;
  if (fallback && fallback->scalar < result.scalar) {
    result.assignment = fallback->assignment;
    result.scalar = fallback->scalar;
  }
  bool usable = FootprintTracker(ctx, result.assignment).feasible() &&
                layering_valid(ctx, result.assignment);
  result.status = usable ? SearchStatus::BudgetExhausted : SearchStatus::Infeasible;
  result.lower_bound = std::min(lower_bound, result.scalar);
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
/// ## The lower bound
///
/// Every objective term but the compute cycles belongs to one array: its
/// sites, its copies' transfers and its pinned traffic.  With the capacity
/// rows dropped the problem therefore splits per array (the λ = 0
/// Lagrangian relaxation), and one array's copy choice is a tree problem:
/// a candidate's parent is `ancestors(c)[0]`, a site is served by its
/// deepest selected covering copy, and a copy's parent store is the layer
/// serving its parent's sites.  `solve_trees` computes, bottom-up,
/// g(c, p) — the cheapest cost of c's subtree (its own sites, its
/// descendants' sites and the transfers of the copies chosen there) when
/// the store above it is layer p — in objective-scalar units, over only
/// the placements that fit.  Footprints only grow along a DFS path, so a
/// placement denied at a node stays denied below it and the bound is
/// admissible.  Candidates are decided in id order and ancestors have
/// smaller ids, so the undecided candidates always form whole subtrees
/// under decided parents: the bound of a copy-phase node is the exact
/// terms of everything decided plus g(root, parent layer) per undecided
/// subtree, and deciding candidate j swaps g(j, p) for j's own-site terms,
/// its transfer and its children's g — an O(1) update.
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

  // -- static bound tables (per context) --
  std::size_t layers_ = 0;  ///< row width of the [.. * layers_ + layer] tables
  /// [c * layers_ + layer]: scalar terms of the sites candidate c covers
  /// deepest (its own sites), served from `layer`.
  std::vector<double> own_;
  /// [a * layers_ + home]: array a's pinned traffic plus the terms of its
  /// sites no candidate covers — what a home fixes outright.
  std::vector<double> fixed_;
  /// [a * layers_ + home]: array a's exact capacity-free minimum under a
  /// feasible home (individual fits only); `home_min_` is its minimum over
  /// the homes the DFS may choose.
  std::vector<double> home_bound_;
  std::vector<double> home_min_;
  double root_bound_ = 0.0;

  // -- per copy phase (rebuilt at each copy-phase entry) --
  /// [c * layers_ + p]: g(c, p) over the placements with entry headroom.
  std::vector<double> tree_;
  /// [c * layers_ + l]: c's own-site terms at l plus its children's
  /// g(., l) — c's subtree cost once the layer serving c's sites is l.
  std::vector<double> served_;
  /// [a * layers_ + h]: g(r, h) summed over array a's chain roots r.
  std::vector<double> roots_;

  EngineSearch(const AssignContext& c, const SearchOptions& o)
      : ctx(c),
        options(o),
        engine(c),
        objective(engine.objective(o.energy_weight, o.time_weight)) {
    best_scalar = engine.scalar(objective);
    best = engine.assignment();
    precompute_bounds();
  }

  /// One (energy, cycles) term in objective-scalar units; the objective is
  /// linear, so these sum to the scalar up to rounding.
  double term(double energy, double cycles) const { return objective.scalar_terms(energy, cycles); }

  double transfer(int cc, int src, int dst) const {
    return term(engine.cc_energy_term(cc, src, dst), engine.cc_cycle_term(cc, src, dst));
  }

  void precompute_bounds() {
    const std::size_t C = engine.num_candidates();
    const std::size_t A = ctx.program.arrays().size();
    layers_ = static_cast<std::size_t>(ctx.hierarchy.num_layers());

    own_.assign(C * layers_, 0.0);
    fixed_.assign(A * layers_, 0.0);
    for (std::size_t s = 0; s < engine.num_sites(); ++s) {
      core::IntSpan covering = engine.covering(s);
      double* out = covering.empty()
                        ? &fixed_[engine.site_array(s) * layers_]
                        : &own_[static_cast<std::size_t>(covering[0]) * layers_];
      for (std::size_t l = 0; l < layers_; ++l) {
        int layer = static_cast<int>(l);
        out[l] += term(engine.site_energy_term(s, layer), engine.site_cycle_term(s, layer));
      }
    }

    // The static trees admit every placement a candidate fits on its own.
    solve_trees(/*entry_headroom=*/false);
    const auto& arrays = ctx.program.arrays();
    home_bound_.assign(A * layers_, std::numeric_limits<double>::infinity());
    home_min_.assign(A, std::numeric_limits<double>::infinity());
    root_bound_ = term(0.0, engine.compute_cycles());
    for (std::size_t a = 0; a < A; ++a) {
      for_each_feasible_home(ctx, arrays[a], options.allow_array_migration, [&](int, int home) {
        std::size_t h = static_cast<std::size_t>(home);
        fixed_[a * layers_ + h] +=
            term(engine.pinned_energy_term(a, home), engine.pinned_cycle_term(a, home));
        double value = array_value(a, home);
        home_bound_[a * layers_ + h] = value;
        home_min_[a] = std::min(home_min_[a], value);
      });
      root_bound_ += home_min_[a];
    }
  }

  /// Fill `tree_`, `served_` and `roots_` bottom-up.  A candidate's parent
  /// is `ancestors(c)[0]`, a smaller id, so by the time c is solved every
  /// child has folded its g into c's `served_` row, and c folds its own
  /// into its parent's row (or, for a chain root, its array's `roots_`).
  /// A candidate may go on an on-chip layer strictly below the store above
  /// it that it fits on its own and, with `entry_headroom`, that still fits
  /// the live footprint of its nest.
  void solve_trees(bool entry_headroom) {
    const auto& candidates = ctx.reuse.candidates();
    const int L = static_cast<int>(layers_);
    const int B = ctx.hierarchy.background();
    tree_.resize(candidates.size() * layers_);
    served_ = own_;
    roots_.assign(ctx.program.arrays().size() * layers_, 0.0);
    for (std::size_t c = candidates.size(); c-- > 0;) {
      const analysis::CopyCandidate& cc = candidates[c];
      const double* served = &served_[c * layers_];
      double* g = &tree_[c * layers_];
      for (int p = 0; p < L; ++p) g[p] = served[p];
      for (int l = 0; l < B; ++l) {
        const mem::MemLayer& target = ctx.hierarchy.layer(l);
        if (!target.fits(cc.bytes)) continue;
        if (entry_headroom && !target.fits(engine.footprint().usage(l, cc.nest) + cc.bytes)) continue;
        for (int p = l + 1; p < L; ++p) {
          g[p] = std::min(g[p], transfer(cc.id, p, l) + served[l]);
        }
      }
      core::IntSpan ancestors = engine.ancestors(cc.id);
      double* up = ancestors.empty()
                       ? &roots_[static_cast<std::size_t>(cc.array_id) * layers_]
                       : &served_[static_cast<std::size_t>(ancestors[0]) * layers_];
      for (std::size_t l = 0; l < layers_; ++l) up[l] += g[l];
    }
  }

  /// Array a's minimum under `home` from the last `solve_trees`.
  double array_value(std::size_t a, int home) const {
    std::size_t h = a * layers_ + static_cast<std::size_t>(home);
    return fixed_[h] + roots_[h];
  }

  /// The bound once candidate j, under a store on `parent`, is decided:
  /// skipped (`layer == parent`, its own sites stay served by the parent)
  /// or placed on `layer`.  g(j, parent) gives way to j's transfer, if
  /// any, plus its own-site terms and its children's g under `layer`.
  double decide(double bound, std::size_t j, int parent, int layer) const {
    double next = bound - tree_[j * layers_ + static_cast<std::size_t>(parent)] +
                  served_[j * layers_ + static_cast<std::size_t>(layer)];
    if (layer != parent) next += transfer(static_cast<int>(j), parent, layer);
    return next;
  }

  /// The bound once array a homes on `home`: its any-home minimum gives way
  /// to its minimum under that home.
  double with_home(double bound, std::size_t a, int home) const {
    return bound + (home_bound_[a * layers_ + static_cast<std::size_t>(home)] - home_min_[a]);
  }

  /// Admissible scalar lower bound `lb` for every completion of the current
  /// node.  The tiny relative margin absorbs floating-point drift in the
  /// running sums so pruning never discards a state that could strictly
  /// improve.  The cut is against the shared incumbent, which every
  /// worker's best improvement lowers (so it is never above `best_scalar`),
  /// and strict: the best may come from a canonically *later* task, so a
  /// subtree that could still tie may hold the canonical-first optimum and
  /// must survive for the path tie-break.
  bool prune(double lb) {
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

  void recurse_copies(std::size_t j, double bound) {
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
    // Candidates are decided in id order and every ancestor has a smaller
    // id, so the parent store read here is the one candidate j will have
    // in every completion of this node.
    const int parent = engine.parent_layer(static_cast<int>(j));
    // Parallel split: when peers are starving and enough candidates remain
    // for the subtree to outweigh a prefix replay, hand every live Option-B
    // branch to the pool first, then keep only the skip branch locally.
    const bool offload = candidates.size() - j >= kMinCopySplit && should_split();
    if (offload) place_copy(j, parent, bound, /*offload=*/true);
    // Option A: skip this candidate.
    cur_path_[ctx.program.arrays().size() + j] = 0;
    recurse_copies(j + 1, decide(bound, j, parent, parent));
    if (!offload) place_copy(j, parent, bound, /*offload=*/false);
  }

  /// Option B of candidate j: place it on every on-chip layer it fits
  /// individually, unless the branch has no feasible, layering-valid
  /// completion.  Each surviving branch is either descended in place or,
  /// when `offload`, bounded and — only if its bound survives — handed to
  /// the pool as a task.  Offloading runs the exact guards the local
  /// descent runs (the placement cuts and the child bound prune), so a
  /// spawned code always replays to a live branch this DFS would have
  /// entered, and the prune counters match.
  void place_copy(std::size_t j, int parent, double bound, bool offload) {
    const std::size_t A = ctx.program.arrays().size();
    const analysis::CopyCandidate& cc = ctx.reuse.candidates()[j];
    assert(cc.id == static_cast<int>(j));
    assert(std::all_of(engine.ancestors(cc.id).begin(), engine.ancestors(cc.id).end(),
                       [j](int anc) { return static_cast<std::size_t>(anc) < j; }));
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
      engine.select_copy(cc.id, layer);
      double child = decide(bound, j, parent, layer);
      if (!offload) {
        recurse_copies(j + 1, child);
      } else if (!prune(child)) {
        spawn_prefix(A + j + 1);
      }
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

  /// Copy-phase entry, optionally replaying the copy-code prefix of a
  /// stolen task before recursing at candidate `j0`.  Array homes are fixed
  /// from here on: the pinned traffic and the array-only footprint are
  /// exact, and no copies are selected yet, so the engine's tracker holds
  /// exactly the homes-only footprint the trees filter against.  The bound
  /// is rebuilt from scratch and the replayed codes fold in exactly as the
  /// DFS folded them (no prune or feasibility re-checks: the spawning
  /// worker ran them on the identical deterministic state), so a replayed
  /// subtree prunes identically to the one the spawning worker would have
  /// descended.
  void enter_copy_phase_at(std::size_t j0, const int* codes) {
    if (!engine.fits()) return;  // no copy subset can shrink an array overflow

    solve_trees(/*entry_headroom=*/true);
    double bound = term(0.0, engine.compute_cycles());
    for (std::size_t a = 0; a < ctx.program.arrays().size(); ++a) {
      bound += array_value(a, engine.home_of(a));
    }
    const std::size_t A = ctx.program.arrays().size();
    for (std::size_t j = 0; j < j0; ++j) {
      int parent = engine.parent_layer(static_cast<int>(j));
      int layer = codes[j] > 0 ? codes[j] - 1 : parent;
      cur_path_[A + j] = codes[j];
      if (codes[j] > 0) engine.select_copy(static_cast<int>(j), layer);
      bound = decide(bound, j, parent, layer);
    }
    recurse_copies(j0, bound);
  }

  void recurse_arrays(std::size_t index, double bound) {
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
      double child = with_home(bound, index, layer);
      if (!offload) {
        recurse_arrays(index + 1, child);
      } else if (!prune(child)) {
        spawn_prefix(index + 1);
      }
      engine.undo_to(cp);
    });
  }

  /// Execute one work-stealing task: replay the canonical path prefix
  /// onto this worker's engine, search the subtree under it, and unwind so
  /// the next task this worker claims starts from a pristine out-of-box
  /// engine.  A prefix inside the array phase folds the decided homes into
  /// the root bound exactly as the DFS did; a prefix reaching the copy
  /// phase lets `enter_copy_phase_at` rebuild its own bound — either way
  /// replay needs nothing from the spawning worker beyond the codes.
  ///
  /// `nodes` and `budget_hit` outlive the task, so `max_states` bounds the
  /// whole search, not each task; once hit, this worker's later tasks
  /// return immediately and the run reports as truncated.  The task's
  /// uncharged probe remainder is flushed to the budget on exit.
  void run_task(const std::vector<int>& prefix) {
    if (budget_hit) return;
    const std::size_t A = ctx.program.arrays().size();
    std::size_t homes = std::min(prefix.size(), A);
    double bound = root_bound_;
    for (std::size_t a = 0; a < homes; ++a) {
      cur_path_[a] = prefix[a];
      int layer = home_layer(ctx, prefix[a]);
      engine.set_home(a, layer);
      bound = with_home(bound, a, layer);
    }
    if (prefix.size() < A) {
      recurse_arrays(prefix.size(), bound);
    } else {
      enter_copy_phase_at(prefix.size() - A, prefix.data() + A);
    }
    if (!flush_probes()) budget_hit = true;
    engine.undo_to(0);  // rewind to out-of-box for the next task
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
  double root_lb = prototype.root_bound_;

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
