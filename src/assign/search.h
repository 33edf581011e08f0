#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "assign/cost.h"
#include "assign/search_status.h"
#include "core/run_budget.h"

namespace mhla::assign {

/// Optimization target of an MHLA search (the paper's trade-off axes).
enum class Target {
  Energy,    ///< minimize memory energy
  Time,      ///< minimize execution cycles
  Balanced,  ///< equal normalized weight on both (paper's trade-off points)
  Custom,    ///< keep the caller's explicit energy/time weights
};

/// The one named-Target -> (energy_weight, time_weight) mapping.  Every
/// caller — the pipeline, the explorer, the benches — goes through here, so a
/// target always means the same weights everywhere.
/// Target::Custom has no canonical weights and throws; use
/// `SearchOptions::set_target`, which keeps the explicit weights for it.
std::pair<double, double> target_weights(Target target);

/// Parse "energy" / "time" / "balanced" / "custom"; throws
/// std::invalid_argument on anything else.  Inverse of `to_string(Target)`.
Target parse_target(const std::string& name);
std::string to_string(Target target);

/// Options of every search strategy.  Each strategy consumes the subset
/// that applies to it (greedy reads `max_moves`, exhaustive reads
/// `max_states`, ...) and ignores the rest, so one struct configures any
/// strategy selected by name.
struct SearchOptions {
  double energy_weight = 1.0;  ///< relative weight of normalized energy
  double time_weight = 1.0;    ///< relative weight of normalized time

  int max_moves = 100000;        ///< greedy: safety bound on accepted moves
  long max_states = 2'000'000;   ///< exact search: search nodes per search
  bool allow_array_migration = true;  ///< consider moving whole arrays on-chip

  /// "anneal": a Metropolis chain over the greedy move set.  Every random
  /// draw comes from one PRNG seeded with `anneal_seed` and bounded by plain
  /// modulo, so a config document pins the whole walk and annealing results
  /// reproduce bit-identically from a file on every platform.
  int anneal_iterations = 2000;       ///< proposed moves (integral evaluation budget)
  std::uint32_t anneal_seed = 1;      ///< PRNG seed; same seed => bit-identical result
  double anneal_initial_temp = 0.05;  ///< start temperature, in normalized-scalar units
  double anneal_cooling = 0.997;      ///< geometric per-iteration temperature decay

  /// "bnb-par": the "bnb" driver on this many workers, sharing one atomic
  /// incumbent bound.  The result is bit-identical to "bnb" for any thread
  /// count (the incumbent only prunes).
  unsigned bnb_threads = 0;        ///< worker threads (0 = hardware concurrency)

  /// Cooperative run budget for any strategy (see core::BudgetSpec).  The
  /// deadline/probe knobs round-trip through the JSON config ("search"
  /// object keys "deadline_seconds" / "max_probes"); the cancel flag is a
  /// live process object and never serialized.  When the budget binds, the
  /// strategy returns best-so-far with status BudgetExhausted instead of
  /// running on (exact strategies also certify an optimality gap).
  core::BudgetSpec budget;

  /// Live budget token shared across stages (search + time extension +
  /// batch / exploration siblings).  When set it takes precedence over
  /// `budget`, so a driver can start one deadline clock for a whole run
  /// instead of restarting it per stage.  Not serialized; compared by
  /// identity in operator==.
  core::RunBudget* shared_budget = nullptr;

  /// Replace the weights with the canonical mapping for `target`;
  /// Target::Custom leaves the explicit weights untouched.
  SearchOptions& set_target(Target target);

  friend bool operator==(const SearchOptions&, const SearchOptions&) = default;
};

/// Trace entry for one accepted greedy move, for diagnostics and the
/// tool-runtime benchmark.
struct GreedyMove {
  enum class Kind { SelectCopy, MigrateArray, RemoveCopy };
  Kind kind = Kind::SelectCopy;
  int cc_id = -1;           ///< for SelectCopy / RemoveCopy
  std::string array;        ///< for MigrateArray
  int layer = -1;
  double gain = 0.0;        ///< scalar objective improvement
  double gain_per_byte = 0.0;
};

/// Result of any strategy.  Greedy fills the move trace; the exact
/// strategies fill the state counters.
struct SearchResult {
  Assignment assignment;
  double scalar = 0.0;  ///< final scalarized objective value

  std::vector<GreedyMove> moves;  ///< accepted-move trace (greedy)
  int evaluations = 0;            ///< cost-model invocations (greedy, anneal)
  /// Greedy: the evaluations its screen scored with the canonical fold.  A
  /// run metric (`search.exact_folds`), kept out of the report JSON.
  int exact_folds = 0;

  long states_explored = 0;       ///< evaluated leaves (exact strategies)
  long bound_prunes = 0;          ///< subtrees cut by the lower bound
  long capacity_prunes = 0;       ///< placements cut by cumulative capacity or layering

  /// Outcome contract (see assign/search_status.h).  Exact strategies that
  /// ran to completion report Optimal with gap 0; a budget-truncated exact
  /// search reports BudgetExhausted with a certified gap against
  /// `lower_bound`; heuristics report Feasible / BudgetExhausted with
  /// gap -1.
  SearchStatus status = SearchStatus::Feasible;
  double gap = -1.0;
  double lower_bound = 0.0;  ///< global admissible root bound (exact strategies)
  core::StopReason stop = core::StopReason::None;  ///< budget's reason, else NodeCap
};

/// Greedy steering heuristic (registry "greedy", MHLA step 1): start from
/// the out-of-box assignment and repeatedly apply the feasible move —
/// select a copy candidate onto a layer, migrate an array's home layer, or
/// deselect a copy — with the best objective gain per byte of on-chip space
/// claimed; stop when no improving feasible move remains.  A move's delta
/// and layering come from its one array (`CostEngine::*_delta`, cached until
/// a move touches that array), its fit from the footprint; only the moves
/// that could win the round are applied, scored and undone on the engine.
/// One budget probe (an inline count on an unbounded budget) is charged
/// per enumerated candidate; on expiry the round is abandoned, so the
/// result is always the exact state after the last accepted move (status
/// BudgetExhausted) and replays from `moves`.
SearchResult greedy_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// Branch-and-bound exhaustive search (registry "bnb"): enumerate every
/// feasible (array homes) x (copy selection with a layer each) configuration
/// in canonical DFS order on the CostEngine, pruning subtrees whose
/// admissible lower bound cannot strictly beat the incumbent and placements
/// whose cumulative (layer, nest) footprint overflows.  The copy-phase bound
/// is filtered by the homes-only footprint headroom at each copy-phase entry.
///
/// Anytime contract, on every instance: Optimal (gap 0) when the
/// enumeration ran to completion; BudgetExhausted when `max_states` or the
/// run budget bound, in which case the result is the best feasible state
/// seen (the greedy incumbent seed serves as a floor) and `gap` certifies
/// (scalar - lower_bound) / scalar against the global admissible root
/// bound.  Each array- and copy-phase node (leaves included) counts
/// against `max_states` and charges one budget probe as it happens, so the
/// default cap bounds the run time of any request; `states_explored`
/// counts the leaves.  The search is the one-worker run of the
/// `exhaustive_parallel_assign` driver: its single `core::WorkStealingPool`
/// task runs on the calling thread.
SearchResult exhaustive_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// Parallel branch-and-bound (registry "bnb-par"): the "bnb" driver with
/// `bnb_threads` workers.  Subtree tasks live on the per-worker deques of a
/// `core::WorkStealingPool`: one seed task descends from the root and,
/// while the pool starves, a task offloads its
/// sibling branches — array homes, then copy-phase placements while enough
/// candidates remain — but only those whose child bound survives pruning.
/// Tasks are canonical path prefixes, replayed onto a per-worker engine;
/// every worker prunes against a shared atomic incumbent bound (seeded
/// with the greedy scalar).  With more than one worker each charges
/// the run budget and a shared node total in batches of 64 units, so a
/// `max_probes` allowance or the `max_states` cap may be overshot by at most
/// one batch per worker; a lone worker charges each unit exactly as "bnb"
/// does.
///
/// The result — best assignment and scalar — is **bit-identical to "bnb"
/// for any thread count and any steal interleaving**: the shared incumbent
/// only ever holds scalars of feasible assignments, pruning is strict, and every leaf is keyed by its canonical DFS path with
/// ties resolved to the lexicographically first path — exactly the leaf a
/// one-worker DFS reaches first.  With more than one worker the state/prune
/// counters depend on incumbent-propagation timing and are not reproducible
/// run to run; `max_states` bounds the whole search, and the determinism
/// guarantee requires the budget not to bind.
SearchResult exhaustive_parallel_assign(const AssignContext& ctx,
                                        const SearchOptions& options = {});

/// Simulated annealing (registry "anneal"): a Metropolis chain over the
/// greedy move set, applied and undone through the CostEngine, starting
/// from the out-of-box assignment.  Infeasible or layering-invalid
/// proposals are rejected before scoring.  Returns the best feasible state
/// visited (never worse than out-of-box).  One budget probe per iteration,
/// checked before the proposal is drawn, so an expired budget truncates the
/// walk at an iteration boundary (status BudgetExhausted).
SearchResult anneal_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// A search strategy selectable by name.  `search` is stateless across
/// calls (one table entry serves every caller, including the Explorer's
/// parallel waves).
using SearchFn = SearchResult (*)(const AssignContext&, const SearchOptions&);
struct Searcher {
  std::string name;
  std::string description;
  SearchFn search = nullptr;
};

/// The strategy names, sorted: "anneal" (`anneal_assign`), "bnb"
/// (`exhaustive_assign`), "bnb-par" (`exhaustive_parallel_assign`) and
/// "greedy" (`greedy_assign`).  The table is fixed at build time.
std::vector<std::string> searcher_names();

/// Look up a strategy by name; throws std::out_of_range whose message lists
/// every strategy name (surfaced verbatim by the CLI tool).
const Searcher& searcher(const std::string& name);

}  // namespace mhla::assign
