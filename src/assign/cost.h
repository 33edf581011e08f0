#pragma once

#include "assign/assignment.h"

namespace mhla::assign {

/// Static cost estimate of an assignment (MHLA step 1 view: block transfers
/// block the processor; time extensions are applied later).
///
/// The energy model counts memory-hierarchy accesses only, exactly like the
/// paper ("in our models we only consider accesses to the memory
/// hierarchy"), so time extensions never change the energy column.
///
/// `CostEngine::cost()` is the one production evaluator; the from-scratch
/// model definition it is checked against is the test oracle's
/// `oracle::estimate_cost` (tests/oracle/model.h).
struct CostEstimate {
  double energy_nj = 0.0;        ///< all processor accesses + copy traffic
  double compute_cycles = 0.0;   ///< statement op cycles
  double access_cycles = 0.0;    ///< processor load/store stall cycles
  double transfer_cycles = 0.0;  ///< blocking block-transfer cycles
  double total_cycles() const { return compute_cycles + access_cycles + transfer_cycles; }

  /// Per-layer dynamic access counts (processor + copy traffic),
  /// reads and writes separately.
  std::vector<i64> layer_reads;
  std::vector<i64> layer_writes;
};

/// Scalarization of (energy, time) used by the search heuristics.
/// Weights are relative to the out-of-box baseline, so energy_weight = 1,
/// time_weight = 1 values both objectives equally regardless of units.
/// `CostEngine::objective` builds one from the engine's out-of-box totals.
struct Objective {
  double energy_weight = 1.0;
  double time_weight = 0.0;
  double baseline_energy_nj = 1.0;
  double baseline_cycles = 1.0;

  /// Scalarize raw (energy, cycles) totals.  `scalar()` delegates here so
  /// the incremental CostEngine can score without materializing a full
  /// CostEstimate; both paths share the exact same arithmetic.
  double scalar_terms(double energy_nj, double total_cycles) const {
    double e = energy_nj / baseline_energy_nj;
    double t = total_cycles / baseline_cycles;
    return energy_weight * e + time_weight * t;
  }

  double scalar(const CostEstimate& cost) const {
    return scalar_terms(cost.energy_nj, cost.total_cycles());
  }
};

/// CPU cycles (statement computation + processor access latency, *excluding*
/// block-transfer stalls) spent in each top-level nest under the resolved
/// assignment `res`.  This is the "hiding budget" the time extensions draw
/// from.
std::vector<double> nest_cpu_cycles(const AssignContext& ctx, const Resolution& res);

/// CPU cycles of a single iteration of `loop` (which must belong to nest
/// `nest`), again excluding transfer stalls.  Used by TE's iteration
/// lookahead: prefetching one carrying-loop iteration ahead can hide at most
/// this many cycles per block transfer.  TE invokes this once per block
/// transfer for one fixed assignment, so it takes the shared `Resolution`.
double loop_iteration_cpu_cycles(const AssignContext& ctx, const Resolution& res, int nest,
                                 const ir::LoopNode* loop);

}  // namespace mhla::assign
