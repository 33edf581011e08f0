#pragma once

// The from-scratch model definition of MHLA step 1: the data-reuse cost of
// an assignment and its lifetime-aware (in-place) footprint, each computed
// directly from the IR, the analyses and the `Resolution` of one plain
// `Assignment`.  Production evaluates both quantities incrementally —
// `assign::CostEngine` (cost, objective) and `assign::FootprintTracker`
// (footprints, feasibility) — and the test suite holds each of them
// bit-identical to the functions here.

#include <vector>

#include "assign/cost.h"
#include "assign/footprint_tracker.h"

namespace mhla::oracle {

/// Evaluate an assignment with the static model (block transfers block the
/// processor).  Independent of the simulator in sim/, which must agree with
/// it exactly in Blocking mode.
assign::CostEstimate estimate_cost(const assign::AssignContext& ctx,
                                   const assign::Assignment& assignment);

/// Same, reusing a `Resolution` the caller already computed for
/// `assignment`.
assign::CostEstimate estimate_cost(const assign::AssignContext& ctx,
                                   const assign::Assignment& assignment,
                                   const assign::Resolution& res);

/// An Objective normalized against `estimate_cost` of `out_of_box(ctx)` (a
/// non-positive baseline term normalizes by 1).
assign::Objective make_objective(const assign::AssignContext& ctx, double energy_weight,
                                 double time_weight);

/// `assign::nest_cpu_cycles` / `assign::loop_iteration_cpu_cycles` of a
/// freshly resolved `assignment`.
std::vector<double> nest_cpu_cycles(const assign::AssignContext& ctx,
                                    const assign::Assignment& assignment);
double loop_iteration_cpu_cycles(const assign::AssignContext& ctx,
                                 const assign::Assignment& assignment, int nest,
                                 const ir::LoopNode* loop);

/// Per-layer peak footprints with inter-array in-place optimization, built
/// from every array live range and every placed copy (extended per
/// `extensions`) — see `assign::FootprintReport`.
assign::FootprintReport compute_footprints(
    const assign::AssignContext& ctx, const assign::Assignment& assignment,
    const std::vector<assign::CopyExtension>& extensions = {});

/// Feasibility only: `compute_footprints(...).feasible`.
bool fits(const assign::AssignContext& ctx, const assign::Assignment& assignment,
          const std::vector<assign::CopyExtension>& extensions = {});

}  // namespace mhla::oracle
