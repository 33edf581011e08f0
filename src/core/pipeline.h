#pragma once

#include <functional>
#include <string>
#include <vector>

#include "assign/search.h"
#include "core/workspace.h"
#include "sim/report.h"

namespace mhla::core {

/// Everything one MHLA run needs, in one value: the platform, the transfer
/// engine, the search strategy (by registry name) with its options, the
/// time-extension options, and the exploration parallelism.  Serializes
/// to/from JSON (core/json_report.h) so drivers and external tooling can
/// describe runs as documents.
struct PipelineConfig {
  mem::PlatformConfig platform;
  mem::DmaEngine dma;

  std::string strategy = "greedy";  ///< assign::searcher() registry name
  assign::Target target = assign::Target::Balanced;

  /// Strategy options.  For the named targets the weights are replaced by
  /// `target`'s canonical mapping when the pipeline runs (`target` is
  /// authoritative); `Target::Custom` keeps the explicit weights below.
  /// Every other field passes through to the selected strategy.
  assign::SearchOptions search;

  te::TeOptions te;

  /// Worker threads for the Explorer's waves: 0 picks the hardware
  /// concurrency, 1 forces the serial path.  Single runs ignore it.
  unsigned num_threads = 0;

  friend bool operator==(const PipelineConfig&, const PipelineConfig&) = default;
};

/// Largest `num_threads` or `search.bnb_threads` a config document may ask
/// for: each pool worker is a thread with its own queue, so an unchecked
/// count on one request line could start thousands of threads.
inline constexpr unsigned kMaxThreads = 256;

/// Wall-clock of one pipeline stage.
struct StageTiming {
  std::string stage;  ///< "analyze", "assign", "time_extend", "simulate"
  double seconds = 0.0;
};

/// Result of one pipeline run: the search outcome, the four reference
/// simulation points of the paper's figures, and per-stage timings.  A TE
/// pass cut short by the run budget marks `search.status` BudgetExhausted
/// (only the `mhla_te` point is then truncated), whatever the search returned.
struct PipelineResult {
  std::string strategy;  ///< registry name that produced `search`
  assign::SearchResult search;
  sim::FourPoint points;
  std::vector<StageTiming> timings;
  double total_seconds = 0.0;
};

/// One design point of a config: the search outcome and the one simulation
/// `Pipeline::evaluate` ran on its assignment.
struct PointResult {
  assign::SearchResult search;
  sim::SimResult sim;
  std::vector<StageTiming> timings;  ///< "assign", "time_extend"
};

/// Staged MHLA driver: analyze -> assign -> time-extend -> simulate, with
/// one PipelineConfig driving every stage.  With the default "greedy"
/// strategy the four points (`sim::four_points`) are bit-identical to the
/// from-scratch greedy oracle plus one `sim::simulate` per bar on the same
/// workspace (covered by tests/core/pipeline_test.cpp).
class Pipeline {
 public:
  /// Validates the strategy name against the registry (throws
  /// std::out_of_range listing the registered names on a miss).
  explicit Pipeline(PipelineConfig config);

  const PipelineConfig& config() const { return config_; }

  /// Called after each stage with the stage name and its wall-clock.
  using ProgressFn = std::function<void(const std::string& stage, double seconds)>;
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Full run including the analyze stage (workspace construction).
  PipelineResult run(ir::Program program) const;

  /// Run on an existing workspace; the analyze stage is reported as 0 s.
  /// The stages run on a hierarchy built from the config's platform, so
  /// the workspace only has to match the config's DMA.
  PipelineResult run(const Workspace& workspace) const;

  /// One design point, the entry of `run`, Explorer cells and serve
  /// submits: search on the config's hierarchy, then one simulation —
  /// time-extended when `time_extend` is set and the config has a DMA
  /// engine, blocking otherwise.  Owns the target weights, the one run
  /// budget of both stages, the TE-cut rule above, the stage spans and the
  /// counter flush.  `workspace` must match the config's DMA.
  PointResult evaluate(const Workspace& workspace, bool time_extend = true) const;

 private:
  PointResult evaluate(const assign::AssignContext& ctx, bool time_extend) const;

  PipelineConfig config_;
  ProgressFn progress_;
};

}  // namespace mhla::core
