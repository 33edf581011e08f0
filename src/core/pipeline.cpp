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
  PipelineResult result;
  result.strategy = config_.strategy;
  result.timings.push_back({"analyze", 0.0});

  assign::AssignContext ctx = workspace.context();
  assign::SearchOptions options = config_.search;
  options.set_target(config_.target);

  // One budget token covers the whole run: the search and the TE pass
  // share it, so a deadline never restarts per stage.  A caller that
  // already holds a token passes it through unchanged.
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

  // The four reference points of the paper's figures.  The TE'd simulation
  // runs the time-extension pass; timing it separately keeps the staged
  // view honest while the values stay bit-identical to simulate_four_points
  // (each point is an independent simulation).
  {
    obs::Span span("time_extend", "pipeline");
    te::TeOptions te_options = config_.te;
    te_options.budget = options.shared_budget;
    result.points.mhla_te = sim::simulate(ctx, result.search.assignment,
                                          {te::TransferMode::TimeExtended, te_options, false});
    // A truncated TE point degrades the run exactly like a truncated search.
    if (result.points.mhla_te.stop != StopReason::None &&
        result.search.status != assign::SearchStatus::Infeasible) {
      result.search.status = assign::SearchStatus::BudgetExhausted;
      result.search.stop = result.points.mhla_te.stop;
    }
    double te_s = span.finish();
    result.timings.push_back({"time_extend", te_s});
    if (progress_) progress_("time_extend", te_s);
  }

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

  // Flush the run's observation counters once, after every stage: the hot
  // loops accumulated locally (SearchResult carries its own totals), so
  // this is the only place the registry is touched per run.
  obs::Registry& registry = obs::Registry::instance();
  registry.counter("pipeline.runs").add();
  registry.counter("search.states_explored").add(result.search.states_explored);
  registry.counter("search.bound_prunes").add(result.search.bound_prunes);
  registry.counter("search.capacity_prunes").add(result.search.capacity_prunes);
  registry.counter("search.evaluations").add(result.search.evaluations);
  registry.histogram("search.states_per_run").record(result.search.states_explored);
  if (local_budget) registry.counter("search.budget_probes").add(local_budget->probes());
  return result;
}

}  // namespace mhla::core
