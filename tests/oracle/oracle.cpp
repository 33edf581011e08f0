#include "oracle/oracle.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

namespace mhla::oracle {

namespace {

using assign::Assignment;
using ir::i64;
using assign::GreedyMove;
using assign::SearchOptions;
using assign::SearchResult;
using assign::SearchStatus;

/// Bytes a greedy move claims on its target layer, for the gain-per-byte
/// steering metric (removals free space: any gain is pure win).
i64 claimed_bytes(const assign::AssignContext& ctx, const GreedyMove& move) {
  switch (move.kind) {
    case GreedyMove::Kind::SelectCopy:
      return ctx.reuse.candidate(move.cc_id).bytes;
    case GreedyMove::Kind::MigrateArray:
      return ctx.program.array(move.array).bytes();
    case GreedyMove::Kind::RemoveCopy:
      return 1;
  }
  return 1;
}

struct Enumeration {
  const assign::AssignContext& ctx;
  const SearchOptions& options;
  assign::Objective objective;
  core::RunBudget* budget;
  Assignment best;
  double best_scalar = 0.0;
  long states = 0;
  bool budget_hit = false;

  bool probe() {
    if (!budget_hit && !budget->probe()) budget_hit = true;
    return !budget_hit;
  }

  void evaluate(const Assignment& assignment) {
    if (!probe()) return;
    if (++states > options.max_states) {
      budget_hit = true;
      return;
    }
    if (!assign::fits(ctx, assignment) || !assign::layering_valid(ctx, assignment)) return;
    double scalar = objective.scalar(assign::estimate_cost(ctx, assignment));
    if (scalar < best_scalar) {
      best_scalar = scalar;
      best = assignment;
    }
  }

  void copies(Assignment& assignment, std::size_t index) {
    if (budget_hit) return;
    const auto& candidates = ctx.reuse.candidates();
    if (index == candidates.size()) {
      evaluate(assignment);
      return;
    }
    copies(assignment, index + 1);  // skip this candidate
    const analysis::CopyCandidate& cc = candidates[index];
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
      assignment.copies.push_back({cc.id, layer});
      copies(assignment, index + 1);
      assignment.copies.pop_back();
    }
  }

  void homes(Assignment& assignment, std::size_t index) {
    if (budget_hit || !probe()) return;
    const auto& arrays = ctx.program.arrays();
    if (index == arrays.size()) {
      copies(assignment, 0);
      return;
    }
    const ir::ArrayDecl& array = arrays[index];
    const int L = ctx.hierarchy.num_layers();
    const int background = ctx.hierarchy.background();
    const int last = options.allow_array_migration ? L - 1 : 0;
    const int entry = assignment.layer_of(array.name, background);
    for (int offset = 0; offset <= last; ++offset) {
      int layer = (background + L - offset) % L;
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.unbounded() && array.bytes() > target.capacity_bytes) continue;
      assignment.array_layer[array.name] = layer;
      homes(assignment, index + 1);
    }
    assignment.array_layer[array.name] = entry;
  }
};

}  // namespace

std::size_t candidate_placements(const assign::AssignContext& ctx) {
  return ctx.reuse.candidates().size() *
         static_cast<std::size_t>(std::max(ctx.hierarchy.background(), 1));
}

SearchResult greedy(const assign::AssignContext& ctx, const SearchOptions& options) {
  SearchResult result;
  result.assignment = assign::out_of_box(ctx);
  assign::Objective objective =
      assign::make_objective(ctx, options.energy_weight, options.time_weight);
  double current_scalar = objective.scalar(assign::estimate_cost(ctx, result.assignment));
  result.evaluations = 1;
  const int background = ctx.hierarchy.background();

  // One probe per enumerated candidate, charged before it is scored; expiry
  // abandons the round before any move is applied.
  std::optional<core::RunBudget> local;
  core::RunBudget* budget = core::resolve_budget(options.budget, options.shared_budget, local);
  bool cancelled = false;
  auto probe = [&]() {
    if (!cancelled && !budget->probe()) cancelled = true;
    return !cancelled;
  };

  for (int accepted = 0; accepted < options.max_moves && !cancelled; ++accepted) {
    std::optional<GreedyMove> best;
    Assignment best_next;

    auto consider = [&](GreedyMove move, Assignment next) {
      if (!assign::fits(ctx, next)) return;
      if (move.kind == GreedyMove::Kind::SelectCopy && !assign::layering_valid(ctx, next)) return;
      double scalar = objective.scalar(assign::estimate_cost(ctx, next));
      ++result.evaluations;
      double gain = current_scalar - scalar;
      if (gain <= 1e-12) return;
      move.gain = gain;
      move.gain_per_byte =
          gain / static_cast<double>(std::max<i64>(claimed_bytes(ctx, move), 1));
      if (!best || move.gain_per_byte > best->gain_per_byte) {
        best = std::move(move);
        best_next = std::move(next);
      }
    };

    // Select an unselected copy candidate onto an on-chip layer.
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      if (cancelled) break;
      if (result.assignment.has_copy(cc.id) || cc.elems <= 0) continue;
      for (int layer = 0; layer < background; ++layer) {
        if (!probe()) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
        Assignment next = result.assignment;
        next.copies.push_back({cc.id, layer});
        consider({GreedyMove::Kind::SelectCopy, cc.id, {}, layer}, std::move(next));
      }
    }

    // Migrate an array's home layer, dropping the copies it invalidates.
    if (options.allow_array_migration) {
      for (const ir::ArrayDecl& array : ctx.program.arrays()) {
        if (cancelled) break;
        int home = result.assignment.layer_of(array.name, background);
        for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
          if (!probe()) break;
          if (layer == home) continue;
          const mem::MemLayer& target = ctx.hierarchy.layer(layer);
          if (!target.unbounded() && array.bytes() > target.capacity_bytes) continue;
          Assignment next = result.assignment;
          next.array_layer[array.name] = layer;
          assign::drop_invalid_copies(ctx, next);
          consider({GreedyMove::Kind::MigrateArray, -1, array.name, layer}, std::move(next));
        }
      }
    }

    // Deselect a copy.
    for (const assign::PlacedCopy& pc : result.assignment.copies) {
      if (!probe()) break;
      Assignment next = result.assignment;
      std::erase_if(next.copies,
                    [&](const assign::PlacedCopy& other) { return other.cc_id == pc.cc_id; });
      consider({GreedyMove::Kind::RemoveCopy, pc.cc_id, {}, pc.layer}, std::move(next));
    }

    if (cancelled || !best) break;
    current_scalar -= best->gain;
    result.assignment = std::move(best_next);
    result.moves.push_back(std::move(*best));
  }

  result.scalar = current_scalar;
  result.status = cancelled ? SearchStatus::BudgetExhausted : SearchStatus::Feasible;
  return result;
}

SearchResult enumerate(const assign::AssignContext& ctx, const SearchOptions& options) {
  std::size_t placements = candidate_placements(ctx);
  if (placements > kReferencePlacementGuard) {
    throw std::invalid_argument("oracle::enumerate: instance too large (" +
                                std::to_string(placements) + " candidate placements, guard " +
                                std::to_string(kReferencePlacementGuard) + ")");
  }
  std::optional<core::RunBudget> local;
  Enumeration search{ctx, options,
                     assign::make_objective(ctx, options.energy_weight, options.time_weight),
                     core::resolve_budget(options.budget, options.shared_budget, local),
                     assign::out_of_box(ctx)};
  search.best_scalar = search.objective.scalar(assign::estimate_cost(ctx, search.best));
  Assignment scratch = assign::out_of_box(ctx);
  search.homes(scratch, 0);

  SearchResult result;
  result.assignment = std::move(search.best);
  result.scalar = search.best_scalar;
  result.states_explored = search.states;
  if (!search.budget_hit) {
    result.status = SearchStatus::Optimal;
    result.gap = 0.0;
  } else {
    result.status = assign::fits(ctx, result.assignment) &&
                            assign::layering_valid(ctx, result.assignment)
                        ? SearchStatus::BudgetExhausted
                        : SearchStatus::Infeasible;
  }
  return result;
}

}  // namespace mhla::oracle
