#pragma once

#include "assign/cost.h"
#include "assign/footprint_tracker.h"
#include "core/run_budget.h"
#include "te/block_transfer.h"

namespace mhla::te {

/// Order in which BTs are considered for extension.  The paper's Figure 1
/// uses TimePerByte (BT_time / size, descending); the others exist for the
/// ablation benchmark.
enum class ExtensionOrder { TimePerByte, Fifo, BySizeDescending, Reverse };

struct TeOptions {
  ExtensionOrder order = ExtensionOrder::TimePerByte;
  int max_lookahead = 3;  ///< max extra buffers per copy (iteration lookahead)

  /// Charge the pipeline fill: with a lookahead of k, the first k issues of
  /// a BT have no preceding iteration to hide behind and stay exposed.
  /// Off by default (steady-state model, like the paper's estimates); the
  /// config key `te.charge_cold_start` and the cold-start tests turn it on.
  bool charge_cold_start = false;

  /// Cooperative run budget (one probe per BT plus one per freedom unit,
  /// charged before the unit is tried).  An expired budget stops extending
  /// at a unit boundary: extensions accepted so far keep their exact
  /// footprint state, unprocessed BTs stay unextended, and the result's
  /// `stop` names the budget's reason.  The pipeline shares its search
  /// budget here so one deadline covers search + TE.  Not serialized;
  /// compared by identity in operator==.
  core::RunBudget* budget = nullptr;

  friend bool operator==(const TeOptions&, const TeOptions&) = default;
};

/// Extension decision for one block transfer.
struct BtExtension {
  int bt_id = -1;
  double hidden_cycles = 0.0;   ///< cycles hidden per issue (steady state)
  int extra_buffers = 0;        ///< iteration-lookahead depth chosen
  int start_nest = -1;          ///< cross-nest prefetch start (-1 = own nest)
  bool fully_hidden = false;    ///< hidden_cycles >= BT cycles
  int dma_priority = 0;         ///< issue priority (0 = most urgent)
  double cold_start_stall_cycles = 0.0;  ///< extra exposed cycles (pipeline fill)
};

/// Result of the TE step.
struct TeResult {
  std::vector<BtExtension> extensions;      ///< one per BT, indexed by bt id
  std::vector<assign::CopyExtension> footprint_extensions;  ///< the accepted extensions
  assign::FootprintReport footprints;       ///< the pass's tracker: assignment + extensions
  double total_hidden_cycles = 0.0;         ///< sum over all issues
  core::StopReason stop = core::StopReason::None;  ///< why the budget cut the pass, if it did

  const BtExtension& for_bt(int bt_id) const {
    return extensions.at(static_cast<std::size_t>(bt_id));
  }
};

/// The paper's Figure-1 algorithm, applied after step 1:
///
///   foreach DMA BT: estimate cycles, sort factor = time/size, dependence
///   freedom; sort; foreach BT in greedy order: extend the DMA issue one
///   loop earlier at a time while the grown copy lifetime still fits the
///   on-chip size constraint, accumulating hideable CPU cycles, until the
///   transfer is fully hidden; finally assign DMA priorities.
///
/// Two kinds of "one loop earlier" units are modeled:
///  * iteration lookahead for level>0 copies (fetch iteration i+k during
///    iteration i; costs k extra buffers, hides k carrying-iteration CPU
///    times per issue), and
///  * cross-nest prefetch for level-0 copies (issue during an earlier nest,
///    bounded by the dependence producer; extends the buffer's live range).
///
/// Note: the published pseudo-code reads `if (fits_size(...)) break;`, which
/// would abandon a BT exactly when it fits; we implement the evident intent
/// (stop extending when the grown lifetime no longer fits).
///
/// `res` is `assign::resolve(ctx, assignment)`, resolved once by the caller
/// and shared with `collect_block_transfers`.
TeResult time_extend(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                     const assign::Resolution& res, const std::vector<BlockTransfer>& bts,
                     const TeOptions& options = {});

}  // namespace mhla::te
