#pragma once

// From-scratch reference searches: the test oracles every production search
// strategy is compared against.  Built only on the model definition —
// `estimate_cost`, `make_objective` and `fits` of oracle/model.h, plus
// `assign::layering_valid`, over plain `Assignment` copies — with no
// incremental engine state, so an engine bug cannot hide in both sides of a
// comparison.

#include <cstddef>

#include "assign/search.h"

namespace mhla::oracle {

/// Candidate placements (candidates x on-chip layers) above which
/// `enumerate` refuses an instance: the un-pruned enumeration is
/// exponential in them.
inline constexpr std::size_t kReferencePlacementGuard = 24;

/// Candidate placements up to which a test corpus counts an instance as
/// small for branch-and-bound.  Suites that compare full exact searches
/// filter their corpora with it: the four registry apps at or below it
/// finish `bnb` in milliseconds, and most random programs do too.
inline constexpr std::size_t kExactCorpusPlacements = 64;

/// Candidate placements of an instance, the quantity both limits above are
/// stated in.
std::size_t candidate_placements(const assign::AssignContext& ctx);

/// The greedy steering heuristic, every candidate scored by a fresh
/// `oracle::estimate_cost` over a copied assignment.  Enumerates moves, charges
/// budget probes, counts evaluations and breaks ties exactly as
/// `assign::greedy_assign` must, so the two agree move for move.
assign::SearchResult greedy(const assign::AssignContext& ctx,
                            const assign::SearchOptions& options = {});

/// Plain enumeration of every (array homes) x (copy selection) state in the
/// canonical DFS order — homes background-first then on-chip outermost-in,
/// each copy candidate skipped before it is placed — keeping the first
/// strictly best feasible, layering-valid state.  One budget probe per
/// state and per array-phase node; `max_states` bounds the states.  On
/// completion: status Optimal, gap 0.  Truncated: status BudgetExhausted
/// (or Infeasible), gap -1.  Throws std::invalid_argument above
/// `kReferencePlacementGuard` placements.
assign::SearchResult enumerate(const assign::AssignContext& ctx,
                               const assign::SearchOptions& options = {});

}  // namespace mhla::oracle
