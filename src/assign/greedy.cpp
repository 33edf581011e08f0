#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "obs/trace.h"

namespace mhla::assign {

/// Each round runs in two passes.  Pass A enumerates and probes the moves
/// in the canonical order (select, migrate, remove), gates each one and
/// estimates its post-move scalar from the engine's `*_delta` — the terms
/// of the one array the move touches — without applying it.  Pass B counts
/// every gated move as an evaluation and runs the canonical fold
/// (checkpoint, apply, `totals()`, undo) only for a move whose per-byte
/// gain could still win the round: its upper bound (from estimate - eps)
/// must reach the best lower bound (from estimate + eps) of the round.
/// `eps` dwarfs the worst-case rounding gap between the estimate and the
/// fold (by 4x10^4 or more on the registry apps; docs/perf.md derives the
/// bound), so the per-byte race sees exactly the scores, ties and winner
/// of a walk that folds every move.  The walk is id-based and
/// allocation-free in steady state.
SearchResult greedy_assign(const AssignContext& ctx, const SearchOptions& options) {
  obs::Span span("greedy_walk", "search");
  SearchResult result;

  CostEngine engine(ctx);  // loads out_of_box
  Objective objective = engine.objective(options.energy_weight, options.time_weight);
  // The live totals: the start state's fold, then the accepted move's.
  CostEngine::Totals now = engine.totals();
  double current_scalar = objective.scalar_terms(now.energy_nj, now.total_cycles());
  result.evaluations = 1;
  // A move's estimate is the live scalar plus its deltas scaled by the
  // objective's per-unit weights; its rounding allowance scales with the
  // magnitude of the weighted terms (the scalar itself for non-negative
  // weights).
  const double energy_unit = objective.energy_weight / objective.baseline_energy_nj;
  const double cycle_unit = objective.time_weight / objective.baseline_cycles;

  int background = ctx.hierarchy.background();
  const auto& arrays = ctx.program.arrays();
  const auto& candidates = ctx.reuse.candidates();

  // One probe per enumerated candidate, charged in pass A before the
  // candidate is gated; expiry abandons the round before any move is
  // applied.
  std::optional<core::RunBudget> local_budget;
  core::RunBudget* budget =
      core::resolve_budget(options.budget, options.shared_budget, local_budget);
  bool cancelled = false;
  auto probe = [&]() {
    if (!cancelled && !budget->probe()) cancelled = true;
    return !cancelled;
  };

  /// A move by plain ids; `array` is meaningful for MigrateArray.
  struct Move {
    GreedyMove::Kind kind = GreedyMove::Kind::SelectCopy;
    int cc_id = -1;
    std::size_t array = 0;
    int layer = -1;
    i64 bytes = 1;
    double gain_hi = 0.0;  ///< upper bound of the move's gain
  };
  auto apply = [&](const Move& move) {
    switch (move.kind) {
      case GreedyMove::Kind::SelectCopy:
        engine.select_copy(move.cc_id, move.layer);
        break;
      case GreedyMove::Kind::MigrateArray:
        engine.migrate_array(move.array, move.layer);
        break;
      case GreedyMove::Kind::RemoveCopy:
        engine.remove_copy(move.cc_id);
        break;
    }
  };

  // The gated moves of a round, sized once for the largest round.
  std::vector<Move> gated;
  gated.reserve(candidates.size() * static_cast<std::size_t>(std::max(background, 1)) +
                arrays.size() * static_cast<std::size_t>(ctx.hierarchy.num_layers()) +
                candidates.size());

  for (int accepted = 0; accepted < options.max_moves && !cancelled; ++accepted) {
    // Pass A: enumerate, probe, gate and estimate.
    gated.clear();
    const double now_scalar = objective.scalar_terms(now.energy_nj, now.total_cycles());
    const double now_magnitude = std::abs(energy_unit) * now.energy_nj +
                                 std::abs(cycle_unit) * now.total_cycles();
    // The best lower-bound gain per byte of a move sure to clear the 1e-12
    // floor: the round's winner reaches it.  Products stand in for the
    // quotients of the race; eps dwarfs their rounding too.
    double floor = -std::numeric_limits<double>::infinity();
    const double eps_min = 1e-9 * std::max({1.0, std::abs(current_scalar), now_magnitude});
    auto screen = [&](const CostEngine::MoveDelta& d, GreedyMove::Kind kind, int cc_id,
                      std::size_t array, int layer, i64 bytes) {
      if (!d.ok) return;
      double estimate = now_scalar + energy_unit * d.energy_nj + cycle_unit * d.cycles;
      double magnitude = now_magnitude + std::abs(energy_unit) * d.energy_nj +
                         std::abs(cycle_unit) * d.cycles;
      double eps = std::max(eps_min, 1e-9 * magnitude);
      double gain_lo = current_scalar - (estimate + eps);
      double size = static_cast<double>(std::max<i64>(bytes, 1));
      if (gain_lo > 1e-12 && gain_lo > floor * size) floor = gain_lo / size;
      gated.push_back({kind, cc_id, array, layer, bytes, current_scalar - (estimate - eps)});
    };

    // Move type 1: select an unselected copy candidate onto an on-chip layer.
    for (const analysis::CopyCandidate& cc : candidates) {
      if (cancelled) break;
      if (engine.has_copy(cc.id)) continue;
      if (cc.elems <= 0) continue;
      for (int layer = 0; layer < background; ++layer) {
        if (!probe()) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.fits(cc.bytes)) continue;
        screen(engine.select_delta(cc.id, layer), GreedyMove::Kind::SelectCopy, cc.id, 0, layer,
               cc.bytes);
      }
    }

    // Move type 2: migrate an array's home layer (drops invalidated copies
    // as part of the compound move).
    if (options.allow_array_migration) {
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        if (cancelled) break;
        int home = engine.home_of(a);
        for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
          if (!probe()) break;
          if (layer == home) continue;
          const mem::MemLayer& target = ctx.hierarchy.layer(layer);
          if (!target.fits(arrays[a].bytes())) continue;
          screen(engine.migrate_delta(a, layer), GreedyMove::Kind::MigrateArray, -1, a, layer,
                 arrays[a].bytes());
        }
      }
    }

    // Move type 3: deselect a copy.
    for (const PlacedCopy& pc : engine.placed_copies()) {
      if (!probe()) break;
      screen(engine.remove_delta(pc.cc_id), GreedyMove::Kind::RemoveCopy, pc.cc_id, 0, pc.layer,
             1);
    }

    result.evaluations += static_cast<int>(gated.size());
    if (cancelled) break;

    // Pass B: fold only the moves whose gain per byte could reach the floor.
    // The strict per-byte race of the fold-every-move walk: the first of
    // equals wins.
    const Move* best = nullptr;
    double best_gain = 0.0;
    double best_per_byte = 0.0;
    CostEngine::Totals best_totals;
    for (const Move& move : gated) {
      double size = static_cast<double>(std::max<i64>(move.bytes, 1));
      if (move.gain_hi <= 1e-12 || move.gain_hi < floor * size) continue;
      ++result.exact_folds;
      CostEngine::Checkpoint cp = engine.checkpoint();
      apply(move);
      CostEngine::Totals folded = engine.totals();
      engine.undo_to(cp);
      double gain =
          current_scalar - objective.scalar_terms(folded.energy_nj, folded.total_cycles());
      if (gain <= 1e-12) continue;
      if (!best || gain / size > best_per_byte) {
        best = &move;
        best_gain = gain;
        best_per_byte = gain / size;
        best_totals = folded;
      }
    }

    if (!best) break;
    GreedyMove accepted_move;
    accepted_move.kind = best->kind;
    accepted_move.layer = best->layer;
    accepted_move.gain = best_gain;
    accepted_move.gain_per_byte = best_per_byte;
    if (best->kind == GreedyMove::Kind::MigrateArray) {
      accepted_move.array = arrays[best->array].name;
    } else {
      accepted_move.cc_id = best->cc_id;
    }
    apply(*best);  // the folded state again: same moves, same copy order
    now = best_totals;
    current_scalar -= best_gain;
    result.moves.push_back(std::move(accepted_move));
  }

  result.assignment = engine.assignment();
  result.scalar = current_scalar;
  result.status = cancelled ? SearchStatus::BudgetExhausted : SearchStatus::Feasible;
  if (cancelled) result.stop = budget->reason();
  return result;
}

}  // namespace mhla::assign
