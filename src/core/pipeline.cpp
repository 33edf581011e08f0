#include "core/pipeline.h"

#include <optional>

#include "core/run_budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mhla::core {

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  assign::searcher(config_.strategy);  // validate the name eagerly
}

PipelineResult Pipeline::run(ir::Program program) const {
  obs::Span span("analyze", "pipeline");
  std::unique_ptr<Workspace> workspace =
      make_workspace(std::move(program), config_.platform, config_.dma);
  double analyze_s = span.finish();
  if (progress_) progress_("analyze", analyze_s);

  PipelineResult result = run(*workspace);
  result.timings.front().seconds = analyze_s;  // run() reported 0 for "analyze"
  result.total_seconds += analyze_s;
  return result;
}

PipelineResult Pipeline::run(const Workspace& workspace) const {
  const mem::Hierarchy hierarchy = mem::make_hierarchy(config_.platform);
  const assign::AssignContext ctx = workspace.context(hierarchy);
  PointResult point = evaluate(ctx, /*time_extend=*/true);

  PipelineResult result;
  result.strategy = config_.strategy;
  result.search = std::move(point.search);
  result.points.mhla_te = std::move(point.sim);
  result.timings.push_back({"analyze", 0.0});
  result.timings.insert(result.timings.end(), point.timings.begin(), point.timings.end());

  // The other three reference points of the paper's figures; each point is
  // an independent simulation, so the values stay bit-identical to
  // simulate_four_points.
  {
    obs::Span span("simulate", "pipeline");
    result.points.out_of_box =
        sim::simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}, false});
    result.points.mhla =
        sim::simulate(ctx, result.search.assignment, {te::TransferMode::Blocking, {}, false});
    result.points.ideal =
        sim::simulate(ctx, result.search.assignment, {te::TransferMode::Ideal, {}, false});
    double simulate_s = span.finish();
    result.timings.push_back({"simulate", simulate_s});
    if (progress_) progress_("simulate", simulate_s);
  }

  for (const StageTiming& timing : result.timings) result.total_seconds += timing.seconds;
  return result;
}

PointResult Pipeline::evaluate(const Workspace& workspace, bool time_extend) const {
  const mem::Hierarchy hierarchy = mem::make_hierarchy(config_.platform);
  return evaluate(workspace.context(hierarchy), time_extend);
}

PointResult Pipeline::evaluate(const assign::AssignContext& ctx, bool time_extend) const {
  PointResult result;
  assign::SearchOptions options = config_.search;
  options.set_target(config_.target);

  // One budget token covers the search and the TE pass, so a deadline never
  // restarts per stage.  A caller that already holds a token (an
  // exploration's, shared by all its cells) passes it through unchanged.
  std::optional<RunBudget> local_budget;
  if (!options.shared_budget && options.budget.bounded()) {
    local_budget.emplace(options.budget);
    options.shared_budget = &*local_budget;
  }

  // Stage spans carry the StageTiming rows: the span's monotonic clock is
  // the measurement, the trace ring sees the same interval, and with
  // tracing off a span is exactly the two clock reads the old code made.
  {
    obs::Span span("assign", "pipeline");
    result.search = assign::searcher(config_.strategy).search(ctx, options);
    double assign_s = span.finish();
    result.timings.push_back({"assign", assign_s});
    if (progress_) progress_("assign", assign_s);
  }

  {
    obs::Span span("time_extend", "pipeline");
    sim::SimOptions sim_options;
    sim_options.mode = time_extend && config_.dma.present ? te::TransferMode::TimeExtended
                                                          : te::TransferMode::Blocking;
    sim_options.te = config_.te;
    sim_options.te.budget = options.shared_budget;
    result.sim = sim::simulate(ctx, result.search.assignment, sim_options);
    // A truncated TE point degrades the run exactly like a truncated search.
    if (result.sim.stop != StopReason::None &&
        result.search.status != assign::SearchStatus::Infeasible) {
      result.search.status = assign::SearchStatus::BudgetExhausted;
      result.search.stop = result.sim.stop;
    }
    double te_s = span.finish();
    result.timings.push_back({"time_extend", te_s});
    if (progress_) progress_("time_extend", te_s);
  }

  // Flush the point's observation counters once: the hot loops accumulated
  // locally (SearchResult carries its own totals), so this is the only
  // place the registry is touched per point.
  obs::Registry& registry = obs::Registry::instance();
  registry.counter("pipeline.runs").add();
  registry.counter("search.states_explored").add(result.search.states_explored);
  registry.counter("search.bound_prunes").add(result.search.bound_prunes);
  registry.counter("search.capacity_prunes").add(result.search.capacity_prunes);
  registry.counter("search.evaluations").add(result.search.evaluations);
  registry.counter("search.exact_folds").add(result.search.exact_folds);
  registry.histogram("search.states_per_run").record(result.search.states_explored);
  if (local_budget) registry.counter("search.budget_probes").add(local_budget->probes());
  return result;
}

}  // namespace mhla::core
