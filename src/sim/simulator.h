#pragma once

#include "assign/footprint_tracker.h"
#include "sim/energy.h"
#include "te/schedule.h"

namespace mhla::sim {

/// Simulation options: how transfers are charged, and the TE configuration
/// when mode == TimeExtended.
struct SimOptions {
  te::TransferMode mode = te::TransferMode::Blocking;
  te::TeOptions te;

  /// Model DMA-engine oversubscription: the cycles TE hides inside one nest
  /// cannot exceed that nest's CPU time multiplied by the engine's channel
  /// count — transfers beyond that queue on the engine and their time
  /// becomes exposed again.  Disabled by default to match the paper's
  /// idealized engine; only the contention tests turn it on.
  bool model_dma_contention = false;
};

/// Result of one deterministic execution of a configured program.
struct SimResult {
  double compute_cycles = 0.0;  ///< statement op cycles
  double access_cycles = 0.0;   ///< processor load/store latency
  double stall_cycles = 0.0;    ///< residual block-transfer waits
  double energy_nj = 0.0;
  double dma_busy_cycles = 0.0;
  int num_block_transfers = 0;  ///< distinct BT streams
  std::vector<LayerStats> layers;
  std::vector<double> nest_cycles;  ///< CPU cycles per top-level nest (no stalls)
  assign::FootprintReport footprints;
  bool feasible = true;
  core::StopReason stop = core::StopReason::None;  ///< why the run budget cut the TE pass

  double total_cycles() const { return compute_cycles + access_cycles + stall_cycles; }
};

/// Deterministically "execute" the program under an assignment:
/// walk the loop nests, serve every access from its resolved layer, run the
/// block transfers under the selected mode, and account cycles and energy.
///
/// Only the stall depends on the mode: TimeExtended charges what TE leaves
/// exposed, Blocking `dma_busy_cycles`, Ideal nothing.
///
/// This is an implementation independent of the static cost model
/// (`CostEngine::cost()`, defined from scratch by the test oracle's
/// `oracle::estimate_cost`); in Blocking mode the two must agree exactly,
/// which the test suite checks.  `footprints` is the `FootprintTracker`
/// report of the assignment under the run's TE extensions, bit-identical to
/// `oracle::compute_footprints`.
SimResult simulate(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                   const SimOptions& options = {});

/// The four bars of the paper's Figure 2 for one configuration (plus the
/// matching energy numbers for Figure 3).
struct FourPoint {
  SimResult out_of_box;  ///< everything off-chip, no copies
  SimResult mhla;        ///< step 1, blocking transfers
  SimResult mhla_te;     ///< step 1 + time extensions
  SimResult ideal;       ///< step 1 with zero-wait transfers
};

/// The four bars around `mhla_te`, the simulated TE point of `step1`.  The
/// blocking and ideal bars copy its mode-independent fields and take the
/// step-1 stall, `step1`'s unextended footprints and `stop = None`; only
/// out-of-box is simulated.  Bit-identical to independent `simulate` calls,
/// also when a budget cut the TE pass.
FourPoint four_points(const assign::AssignContext& ctx, const assign::Assignment& step1,
                      SimResult mhla_te);

}  // namespace mhla::sim
