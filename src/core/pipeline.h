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

/// Wall-clock of one pipeline stage.
struct StageTiming {
  std::string stage;  ///< "analyze", "assign", "time_extend", "simulate"
  double seconds = 0.0;
};

/// Result of one pipeline run: the search outcome, the four reference
/// simulation points of the paper's figures, and per-stage timings.  A TE
/// pass cut short by the run budget marks `search.status` BudgetExhausted
/// (the `mhla_te` point is then truncated), whatever the search returned.
struct PipelineResult {
  std::string strategy;  ///< registry name that produced `search`
  assign::SearchResult search;
  sim::FourPoint points;
  std::vector<StageTiming> timings;
  double total_seconds = 0.0;
};

/// Staged MHLA driver: analyze -> assign -> time-extend -> simulate, with
/// one PipelineConfig driving every stage.  With the default "greedy"
/// strategy the simulation points are bit-identical to the from-scratch
/// greedy oracle plus `sim::simulate_four_points` on the same workspace
/// (covered by tests/core/pipeline_test.cpp).
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
  /// The workspace's platform/DMA must match the config (the caller built
  /// it; the pipeline cannot re-derive it from the workspace).
  PipelineResult run(const Workspace& workspace) const;

 private:
  PipelineConfig config_;
  ProgressFn progress_;
};

}  // namespace mhla::core
