#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "explore/cache.h"
#include "explore/pareto.h"

namespace mhla::xplore {

struct ExploreResult;

/// One cell of the joint design space the explorer searches: an (L1, L2)
/// layer-size pair on a named search strategy, with time extensions on or
/// off.  `l1_bytes`/`l2_bytes` are drawn from the configured axes; 0
/// disables the layer.
struct DesignCell {
  i64 l1_bytes = 0;
  i64 l2_bytes = 0;
  std::string strategy;
  bool with_te = true;

  friend bool operator==(const DesignCell&, const DesignCell&) = default;
};

/// Configuration of an adaptive exploration.
///
/// The cells live on an explicit fine lattice (`l1_axis` x `l2_axis` x
/// `strategies` x TE variants).  The explorer seeds a coarse sub-grid
/// (every `seed_stride`-th axis point, endpoints always included) and then
/// refines adaptively: each round bisects the axis gaps between frontier
/// members and their nearest explored neighbors, so evaluations concentrate
/// where the energy/performance trade-off actually bends, until the lattice
/// is exhausted, a round brings no frontier improvement, or the evaluation
/// budget runs out (the search is *anytime*: the frontier of whatever was
/// evaluated is always valid).
struct ExplorerConfig {
  /// Base pipeline: platform models, DMA, strategy options, target, TE
  /// options, thread count.  Per cell only the layer sizes, the strategy
  /// name and the transfer mode are overridden.
  core::PipelineConfig pipeline;

  /// Wave observer: called after every completed wave with the running
  /// result (samples so far, counters, current frontier and its cells) —
  /// the streaming hook `mhla_serve` uses to push incremental frontier
  /// events as they land.  Invoked on the calling thread between waves,
  /// never concurrently; the referenced result is only valid during the
  /// call.  Null = no reporting.
  std::function<void(const ExploreResult&)> on_wave;

  /// Layer-size axes (bytes; 0 = layer absent).  Sorted and de-duplicated
  /// by the constructor.
  std::vector<i64> l1_axis;
  std::vector<i64> l2_axis;

  /// Strategy axis; empty means {pipeline.strategy}.
  std::vector<std::string> strategies;

  /// Also evaluate every cell with time extensions off (adds a TE axis of
  /// size two instead of the single `pipeline.dma.present` variant).
  bool explore_te = false;

  /// Coarse-seed stride over each axis (>= 1; 1 seeds the full lattice).
  std::size_t seed_stride = 2;

  /// Evaluation budget: hard cap on cells sampled this run; 0 = unlimited.
  /// On a cold cache this equals the number of pipeline runs.  Cache hits
  /// cost nothing but still count toward the budget, deliberately: a
  /// budget names one deterministic sample set regardless of cache
  /// warmth, so a warm re-run replays the identical exploration with zero
  /// pipeline evaluations instead of wandering past the point where the
  /// cold run stopped.
  std::size_t budget = 0;

  /// A refinement round "improves" only if some new sample escapes
  /// epsilon-dominance by the previous samples (0 = exact dominance).
  double convergence_epsilon = 0.0;

  /// Persistent result cache path; empty = in-memory only.
  std::string cache_path;
};

/// One evaluated (or cache-served) cell.
struct ExploreSample {
  DesignCell cell;
  TradeoffPoint point;
  bool from_cache = false;
};

/// Outcome of one exploration.  `samples` is in evaluation order — waves in
/// canonical cell order — and is bit-identical for every thread count and
/// for every cache warmth (only `evaluations`/`cache_hits`/`from_cache`
/// reflect how much actually ran).
struct ExploreResult {
  std::vector<ExploreSample> samples;
  std::vector<TradeoffPoint> frontier;

  /// Full coordinates of each frontier point (aligned with `frontier`):
  /// a TradeoffPoint names only the layer sizes, but in a joint-space run
  /// the strategy / TE setting that achieved the point matters too.
  std::vector<DesignCell> frontier_cells;
  std::size_t lattice_cells = 0;    ///< full fine-lattice cell count
  std::size_t evaluations = 0;      ///< pipeline runs actually performed
  std::size_t cache_hits = 0;
  std::size_t rounds = 0;           ///< seed wave + refinement waves
  core::StopReason stop = core::StopReason::None;  ///< run budget's reason, else CellBudget
  bool converged = false;           ///< a refinement round brought no improvement
};

/// The adaptive design-space exploration engine.
///
/// `run` validates the program and builds one `core::Workspace`, whose
/// program-level analyses every cell shares; it evaluates each wave's cells
/// with `core::Pipeline::evaluate` on a `core::parallel_for` pool
/// (`config.pipeline.num_threads`) and consults/extends the persistent
/// result cache around every wave, so repeated or sharded explorations of
/// the same (program, config) skip all previously evaluated cells.  With
/// `seed_stride = 1` the first wave is the full fixed grid: every cell
/// equals a per-cell `core::Pipeline::run` bit for bit (its `mhla_te`
/// point for a TE cell with a transfer engine, `mhla` otherwise).
class Explorer {
 public:
  /// Canonicalizes the axes and validates every strategy name against the
  /// registry (throws std::out_of_range on a miss, std::invalid_argument on
  /// an empty axis or a zero stride).
  explicit Explorer(ExplorerConfig config);

  const ExplorerConfig& config() const { return config_; }

  /// Explore with the persistent cache at `config().cache_path`: loaded
  /// before the run (a non-clean load report goes to stderr), written back
  /// after it with `save_if_dirty`.  Throws what `core::make_workspace`
  /// throws for an invalid program.
  ExploreResult run(ir::Program program) const;

  /// Explore against a caller-owned store (no file I/O).  Batch drivers
  /// load a ResultCache once, thread it through many runs, and save once;
  /// the server threads its process-wide ResultCache through every job the
  /// same way.
  ExploreResult run(ir::Program program, ResultStore& cache) const;

 private:
  ExplorerConfig config_;
};

/// Canonical cache key of one evaluated design cell: FNV-1a over the
/// serialized program, the *normalized* effective PipelineConfig, and the
/// transfer mode.  `effective` must already carry the cell's layer sizes
/// and strategy; this normalizes away everything that cannot change a
/// completed result — thread counts, the bnb-par pruning knobs, and the
/// run budget (budget-truncated results are never cached, see
/// `cacheable_status`) — so parallelism and deadlines never change a key.
/// Shared by the Explorer and by `mhla_serve`'s single-run submit path, so
/// an explore-warmed cache answers matching submits and vice versa.
std::uint64_t design_cache_key(const std::string& program_text,
                               core::PipelineConfig effective, bool with_te);

/// `base` with the cell's layer sizes and strategy: the config a cell is
/// evaluated with (`core::Pipeline::evaluate`) and keyed over.
core::PipelineConfig cell_config(core::PipelineConfig base, const DesignCell& cell);

/// The cache entry recording one evaluated design point (the one entry
/// builder of every cache writer): `effective`'s layer sizes and strategy,
/// the TE variant, and `point`'s simulated pair and search status.
CacheEntry cell_entry(const core::PipelineConfig& effective, bool with_te,
                      const core::PointResult& point);

/// The default L1/L2 lattice (L1 256 B..64 KiB powers of two, L2 {0,
/// 64 KiB, 256 KiB}) with coarse stride 2, unlimited budget, exact
/// convergence.  `seed_stride = 1` turns it into the fixed 27-cell grid.
ExplorerConfig default_explorer();

/// Machine-readable exploration report: counters, every sample, and the
/// frontier.
std::string to_json(const ExploreResult& result, int indent = 0);

}  // namespace mhla::xplore
