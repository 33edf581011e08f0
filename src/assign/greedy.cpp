#include <algorithm>
#include <optional>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "obs/trace.h"

namespace mhla::assign {

/// Every candidate is applied to the engine, scored from cached terms, and
/// undone — no per-candidate assignment copy, no per-candidate resolve.
/// The whole walk is id-based and allocation-free in steady state: arrays
/// and candidates move by dense index, the best move of a round is tracked
/// as PODs (its name materialized once on acceptance), and the select-copy
/// moves of each round are scored in one pass over the engine's contiguous
/// term tables.
SearchResult greedy_assign(const AssignContext& ctx, const SearchOptions& options) {
  obs::Span span("greedy_walk", "search");
  SearchResult result;

  CostEngine engine(ctx);  // loads out_of_box
  Objective objective = make_objective(ctx, options.energy_weight, options.time_weight);
  double current_scalar = engine.scalar(objective);
  result.evaluations = 1;

  int background = ctx.hierarchy.background();
  const auto& arrays = ctx.program.arrays();
  const auto& candidates = ctx.reuse.candidates();

  // One probe per enumerated candidate, charged before the candidate is
  // scored (before its checkpoint/apply, so expiry never leaves a
  // speculative move on the engine); expiry abandons the round before any
  // move is applied.
  std::optional<core::RunBudget> local_budget;
  core::RunBudget* budget =
      core::resolve_budget(options.budget, options.shared_budget, local_budget);
  bool cancelled = false;
  auto probe = [&]() {
    if (!cancelled && !budget->probe()) cancelled = true;
    return !cancelled;
  };

  /// Round-best move as plain ids; `array` is meaningful for MigrateArray.
  struct Best {
    GreedyMove::Kind kind = GreedyMove::Kind::SelectCopy;
    int cc_id = -1;
    std::size_t array = 0;
    int layer = -1;
    double gain = 0.0;
    double per_byte = 0.0;
    bool valid = false;
  };

  // Batched-scoring slot arrays, sized once and reused round over round.
  std::vector<int> slot_cc;
  std::vector<int> slot_layer;
  std::vector<i64> slot_bytes;
  std::vector<double> slot_scalar;
  std::vector<unsigned char> slot_ok;
  const std::size_t max_slots =
      candidates.size() * static_cast<std::size_t>(std::max(background, 1));
  slot_cc.reserve(max_slots);
  slot_layer.reserve(max_slots);
  slot_bytes.reserve(max_slots);
  slot_scalar.reserve(max_slots);
  slot_ok.reserve(max_slots);

  for (int accepted = 0; accepted < options.max_moves && !cancelled; ++accepted) {
    Best best;

    // A move that passed its feasibility/validity gates, with its post-move
    // scalar: count the evaluation, keep it when it wins the per-byte race
    // (strict — the first of equals wins).
    auto offer = [&](GreedyMove::Kind kind, int cc_id, std::size_t array, int layer,
                     double scalar, i64 bytes) {
      ++result.evaluations;
      double gain = current_scalar - scalar;
      if (gain <= 1e-12) return;
      double per_byte = gain / static_cast<double>(std::max<i64>(bytes, 1));
      if (!best.valid || per_byte > best.per_byte) {
        best = {kind, cc_id, array, layer, gain, per_byte, true};
      }
    };

    // A migrate/remove move is already applied to the engine when this
    // runs; it inspects the engine state and is followed by an undo.
    auto consider_applied = [&](GreedyMove::Kind kind, int cc_id, std::size_t array, int layer,
                                i64 bytes) {
      if (!engine.fits()) return;
      offer(kind, cc_id, array, layer, engine.scalar(objective), bytes);
    };

    // Move type 1: select an unselected copy candidate onto an on-chip layer.
    // Enumerated (and probe-charged) one candidate at a time, collected
    // into slots; one engine pass scores them all.  When the budget expires
    // mid-enumeration only the collected prefix is scored, so evaluation
    // counts match a one-at-a-time walk — the round itself is abandoned
    // below either way.
    slot_cc.clear();
    slot_layer.clear();
    slot_bytes.clear();
    for (const analysis::CopyCandidate& cc : candidates) {
      if (cancelled) break;
      if (engine.has_copy(cc.id)) continue;
      if (cc.elems <= 0) continue;
      for (int layer = 0; layer < background; ++layer) {
        if (!probe()) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.fits(cc.bytes)) continue;
        slot_cc.push_back(cc.id);
        slot_layer.push_back(layer);
        slot_bytes.push_back(cc.bytes);
      }
    }
    if (!slot_cc.empty()) {
      slot_scalar.resize(slot_cc.size());
      slot_ok.resize(slot_cc.size());
      engine.score_select_candidates(objective, slot_cc.data(), slot_layer.data(),
                                     slot_cc.size(), slot_scalar.data(), slot_ok.data());
      for (std::size_t m = 0; m < slot_cc.size(); ++m) {
        if (!slot_ok[m]) continue;
        offer(GreedyMove::Kind::SelectCopy, slot_cc[m], 0, slot_layer[m], slot_scalar[m],
              slot_bytes[m]);
      }
    }

    // Move type 2: migrate an array's home layer (drops invalidated copies
    // as part of the compound move, all rewound by one checkpoint).
    if (options.allow_array_migration) {
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        if (cancelled) break;
        int home = engine.home_of(a);
        for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
          if (!probe()) break;
          if (layer == home) continue;
          const mem::MemLayer& target = ctx.hierarchy.layer(layer);
          if (!target.fits(arrays[a].bytes())) continue;
          CostEngine::Checkpoint cp = engine.checkpoint();
          engine.migrate_array(a, layer);
          consider_applied(GreedyMove::Kind::MigrateArray, -1, a, layer, arrays[a].bytes());
          engine.undo_to(cp);
        }
      }
    }

    // Move type 3: deselect a copy.  Indexed loop: apply/undo restores the
    // copies vector exactly, so positions stay stable across iterations.
    for (std::size_t i = 0; i < engine.placed_copies().size(); ++i) {
      if (!probe()) break;
      PlacedCopy pc = engine.placed_copies()[i];
      CostEngine::Checkpoint cp = engine.checkpoint();
      engine.remove_copy(pc.cc_id);
      consider_applied(GreedyMove::Kind::RemoveCopy, pc.cc_id, 0, pc.layer, 1);
      engine.undo_to(cp);
    }

    if (cancelled || !best.valid) break;
    GreedyMove move;
    move.kind = best.kind;
    move.layer = best.layer;
    move.gain = best.gain;
    move.gain_per_byte = best.per_byte;
    switch (best.kind) {
      case GreedyMove::Kind::SelectCopy:
        move.cc_id = best.cc_id;
        engine.select_copy(best.cc_id, best.layer);
        break;
      case GreedyMove::Kind::MigrateArray:
        move.array = arrays[best.array].name;
        engine.migrate_array(best.array, best.layer);
        break;
      case GreedyMove::Kind::RemoveCopy:
        move.cc_id = best.cc_id;
        engine.remove_copy(best.cc_id);
        break;
    }
    current_scalar -= best.gain;
    result.moves.push_back(std::move(move));
  }

  result.assignment = engine.assignment();
  result.scalar = current_scalar;
  result.status = cancelled ? SearchStatus::BudgetExhausted : SearchStatus::Feasible;
  if (cancelled) result.stop = budget->reason();
  return result;
}

}  // namespace mhla::assign
