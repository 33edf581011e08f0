#include "explore/explorer.h"

#include <algorithm>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <cstdio>

#include "core/json_report.h"
#include "core/parallel_for.h"
#include "core/run_budget.h"
#include "ir/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mhla::xplore {

namespace {

/// Lattice coordinates of one cell, in the canonical evaluation order
/// (strategy, TE variant, L2, L1) — the order every wave is emitted in, so
/// results are identical for any thread count.
struct CellIdx {
  std::size_t strat = 0;
  std::size_t te = 0;
  std::size_t l2 = 0;
  std::size_t l1 = 0;

  friend auto operator<=>(const CellIdx&, const CellIdx&) = default;
};

/// Seed indices of one axis: every `stride`-th point plus the last.
std::vector<std::size_t> seed_indices(std::size_t n, std::size_t stride) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < n; i += stride) indices.push_back(i);
  if (indices.back() != n - 1) indices.push_back(n - 1);
  return indices;
}

}  // namespace

Explorer::Explorer(ExplorerConfig config) : config_(std::move(config)) {
  if (config_.strategies.empty()) config_.strategies = {config_.pipeline.strategy};
  // First-occurrence dedup (the order is the axis order, so no sort).
  std::vector<std::string> strategies;
  for (const std::string& name : config_.strategies) {
    assign::searcher(name);  // fail fast, listing the registry
    if (std::find(strategies.begin(), strategies.end(), name) == strategies.end()) {
      strategies.push_back(name);
    }
  }
  config_.strategies = std::move(strategies);
  auto canonicalize = [](std::vector<i64>& axis, const char* which) {
    std::sort(axis.begin(), axis.end());
    axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
    if (axis.empty()) {
      throw std::invalid_argument(std::string("explorer: empty ") + which + " axis");
    }
    if (axis.front() < 0) {
      throw std::invalid_argument(std::string("explorer: negative ") + which + " size");
    }
  };
  canonicalize(config_.l1_axis, "l1");
  canonicalize(config_.l2_axis, "l2");
  if (config_.seed_stride == 0) {
    throw std::invalid_argument("explorer: seed_stride must be >= 1");
  }
}

std::uint64_t design_cache_key(const std::string& program_text, core::PipelineConfig effective,
                               bool with_te) {
  // The key covers everything that determines the cell's cost pair: the
  // program text and the *effective* pipeline document of the cell.  The
  // thread counts are zeroed and the incumbent-seed knob reset —
  // parallelism must never change a key, and the seed only steers pruning
  // (the bnb/bnb-par optimum is bit-identical either way).
  // That guarantee assumes the state budget does not bind; budget-bound
  // search results are therefore never cached (the cache layer's status
  // guard enforces it), so every cached entry really is knob-independent.
  effective.num_threads = 0;
  effective.search.bnb_threads = 0;
  effective.search.bnb_seed_incumbent = assign::SearchOptions{}.bnb_seed_incumbent;
  // The run budget is normalized away for the same reason: it cannot
  // change a completed result, and budget-truncated results are never
  // cached, so cached entries are shareable across deadline settings.
  effective.search.budget = core::BudgetSpec{};
  effective.search.shared_budget = nullptr;
  return fnv1a64(program_text + '\x1f' + core::to_json(effective) + '\x1f' +
                 (with_te ? "te" : "blocking"));
}

core::PipelineConfig cell_config(core::PipelineConfig base, const DesignCell& cell) {
  base.platform.l1_bytes = cell.l1_bytes;
  base.platform.l2_bytes = cell.l2_bytes;
  base.strategy = cell.strategy;
  return base;
}

CacheEntry cell_entry(const core::PipelineConfig& effective, bool with_te,
                      const core::PointResult& point) {
  CacheEntry entry;
  entry.l1_bytes = effective.platform.l1_bytes;
  entry.l2_bytes = effective.platform.l2_bytes;
  entry.strategy = effective.strategy;
  entry.with_te = with_te;
  entry.cycles = point.sim.total_cycles();
  entry.energy_nj = point.sim.energy_nj;
  // The cache layer's status guard drops budget-truncated / infeasible
  // results; no pre-filtering here, the contract lives in one place.
  entry.status = point.search.status;
  return entry;
}

ExploreResult Explorer::run(ir::Program program) const {
  ResultCache cache;
  const std::string& path = config_.cache_path;
  if (!path.empty()) {
    ResultCache::LoadReport report = cache.load(path);
    if (!report.clean) std::cerr << "warning: " << report.message << "\n";
  }
  ExploreResult result = run(std::move(program), cache);
  // A fully-warm replay of a clean document leaves the file alone.
  if (!path.empty()) cache.save_if_dirty(path);
  return result;
}

ExploreResult Explorer::run(ir::Program program, ResultStore& cache) const {
  const std::vector<i64>& l1_axis = config_.l1_axis;
  const std::vector<i64>& l2_axis = config_.l2_axis;
  // Without a transfer engine the TE axis cannot change any result (the
  // simulation mode is `with_te && dma.present`), so it collapses.
  const std::vector<bool> te_variants =
      config_.explore_te && config_.pipeline.dma.present ? std::vector<bool>{false, true}
                                                         : std::vector<bool>{true};

  // Validation and the program-level analyses run once; every cell shares
  // the workspace read-only across the worker pool.
  const std::unique_ptr<core::Workspace> workspace =
      core::make_workspace(std::move(program), config_.pipeline.platform, config_.pipeline.dma);
  const std::string program_text = ir::serialize(workspace->program());

  // One budget token for the whole exploration: every cell's search and TE
  // pass draw on it, and the wave loop stops scheduling new waves once it
  // has expired.  Expiry inside a wave degrades that wave's cells
  // individually (they come back BudgetExhausted, which also makes them
  // uncacheable), so the deadline only changes *how much* is explored — a
  // completed wave's samples are the same as without a budget.
  core::PipelineConfig base = config_.pipeline;
  std::optional<core::RunBudget> local_budget;
  if (!base.search.shared_budget && base.search.budget.bounded()) {
    local_budget.emplace(base.search.budget);
    base.search.shared_budget = &*local_budget;
  }
  core::RunBudget* run_budget = base.search.shared_budget;

  auto cell_of = [&](const CellIdx& idx) {
    DesignCell cell;
    cell.l1_bytes = l1_axis[idx.l1];
    cell.l2_bytes = l2_axis[idx.l2];
    cell.strategy = config_.strategies[idx.strat];
    cell.with_te = te_variants[idx.te];
    return cell;
  };

  ExploreResult result;
  result.lattice_cells =
      l1_axis.size() * l2_axis.size() * config_.strategies.size() * te_variants.size();

  std::set<CellIdx> scheduled;  ///< seeded or queued for refinement
  std::set<CellIdx> sampled;    ///< has a sample (evaluated or cache-served)
  std::vector<CellIdx> sample_idx;  ///< aligned with result.samples

  // Seed wave: the coarse sub-grid, in canonical order.
  std::vector<CellIdx> wave;
  for (std::size_t s = 0; s < config_.strategies.size(); ++s) {
    for (std::size_t t = 0; t < te_variants.size(); ++t) {
      for (std::size_t j : seed_indices(l2_axis.size(), config_.seed_stride)) {
        for (std::size_t i : seed_indices(l1_axis.size(), config_.seed_stride)) {
          CellIdx idx{s, t, j, i};
          if (scheduled.insert(idx).second) wave.push_back(idx);
        }
      }
    }
  }
  std::sort(wave.begin(), wave.end());

  while (!wave.empty()) {
    // The budget truncates the wave itself (canonical order), cache hits
    // included, so the sample sequence is a pure function of the config —
    // a warm cache replays it with fewer (or zero) pipeline runs.
    if (config_.budget != 0) {
      std::size_t remaining = config_.budget - result.samples.size();
      if (wave.size() > remaining) {
        wave.resize(remaining);
        result.stop = core::StopReason::CellBudget;
        if (wave.empty()) break;  // budget landed exactly on a wave boundary
      }
    }
    ++result.rounds;
    const std::size_t prev_count = result.samples.size();
    obs::Span wave_span("wave", "explore");

    // Serve what the cache already knows; collect the rest for evaluation.
    std::vector<ExploreSample> wave_samples(wave.size());
    std::vector<std::uint64_t> keys(wave.size());
    std::vector<std::size_t> pending;
    std::vector<core::PipelineConfig> configs;  ///< aligned with `pending`
    for (std::size_t w = 0; w < wave.size(); ++w) {
      DesignCell cell = cell_of(wave[w]);
      core::PipelineConfig effective = cell_config(base, cell);
      keys[w] = design_cache_key(program_text, effective, cell.with_te);
      CacheEntry cached;
      if (cache.lookup(keys[w], cached)) {
        ExploreSample& sample = wave_samples[w];
        sample.cell = std::move(cell);
        sample.point.l1_bytes = sample.cell.l1_bytes;
        sample.point.l2_bytes = sample.cell.l2_bytes;
        sample.point.cycles = cached.cycles;
        sample.point.energy_nj = cached.energy_nj;
        sample.from_cache = true;
        ++result.cache_hits;
      } else {
        wave_samples[w].cell = std::move(cell);
        pending.push_back(w);
        configs.push_back(std::move(effective));
      }
    }

    std::vector<CacheEntry> entries(pending.size());
    core::parallel_for(pending.size(), config_.pipeline.num_threads, [&](std::size_t p) {
      ExploreSample& sample = wave_samples[pending[p]];
      const core::PointResult point =
          core::Pipeline(configs[p]).evaluate(*workspace, sample.cell.with_te);
      sample.point = {sample.cell.l1_bytes, sample.cell.l2_bytes, point.sim.total_cycles(),
                      point.sim.energy_nj};
      entries[p] = cell_entry(configs[p], sample.cell.with_te, point);
    });
    result.evaluations += pending.size();
    for (std::size_t p = 0; p < pending.size(); ++p) {
      cache.insert(keys[pending[p]], std::move(entries[p]));
    }

    for (std::size_t w = 0; w < wave.size(); ++w) {
      sampled.insert(wave[w]);
      sample_idx.push_back(wave[w]);
      result.samples.push_back(std::move(wave_samples[w]));
    }

    // A round improves when some new sample escapes (epsilon-)dominance by
    // everything known before the round.
    const double eps = config_.convergence_epsilon;
    bool improved = false;
    for (std::size_t n = prev_count; n < result.samples.size() && !improved; ++n) {
      const TradeoffPoint& s = result.samples[n].point;
      bool covered = false;
      for (std::size_t o = 0; o < prev_count && !covered; ++o) {
        const TradeoffPoint& old = result.samples[o].point;
        covered = old.cycles <= s.cycles * (1.0 + eps) &&
                  old.energy_nj <= s.energy_nj * (1.0 + eps);
      }
      improved = !covered;
    }

    std::vector<TradeoffPoint> points;
    points.reserve(result.samples.size());
    for (const ExploreSample& sample : result.samples) points.push_back(sample.point);
    result.frontier = pareto_front(std::move(points));

    // Re-attach the full cell coordinates (first sample matching each kept
    // point — frontier points are sample points, so a match always exists).
    result.frontier_cells.clear();
    for (const TradeoffPoint& f : result.frontier) {
      for (const ExploreSample& sample : result.samples) {
        if (sample.point.l1_bytes == f.l1_bytes && sample.point.l2_bytes == f.l2_bytes &&
            sample.point.cycles == f.cycles && sample.point.energy_nj == f.energy_nj) {
          result.frontier_cells.push_back(sample.cell);
          break;
        }
      }
    }

    if (obs::Tracer::instance().enabled()) {
      char args[160];
      std::snprintf(args, sizeof args,
                    "{\"cells\": %zu, \"cache_served\": %zu, \"evaluated\": %zu, "
                    "\"frontier\": %zu}",
                    wave.size(), wave.size() - pending.size(), pending.size(),
                    result.frontier.size());
      wave_span.set_args(args);
    }

    // A run budget expired inside the wave ends the run with everything
    // sampled so far; its reason outranks a cell budget.  The running result
    // streams before the termination checks, so an observer sees it too.
    if (run_budget && run_budget->expired()) result.stop = run_budget->reason();
    if (config_.on_wave) config_.on_wave(result);

    if (result.stop != core::StopReason::None) break;
    if (!improved) {
      result.converged = true;
      break;
    }

    // Refinement wave: bisect the axis gaps between every frontier member
    // and its nearest sampled neighbor, both directions, both size axes.
    auto on_frontier = [&](const TradeoffPoint& p) {
      return std::any_of(result.frontier.begin(), result.frontier.end(),
                         [&](const TradeoffPoint& f) {
                           return f.cycles == p.cycles && f.energy_nj == p.energy_nj;
                         });
    };
    std::set<CellIdx> next;
    auto bisect_axis = [&](const CellIdx& idx, bool along_l1) {
      std::size_t at = along_l1 ? idx.l1 : idx.l2;
      std::size_t size = along_l1 ? l1_axis.size() : l2_axis.size();
      auto with = [&](std::size_t v) {
        CellIdx c = idx;
        (along_l1 ? c.l1 : c.l2) = v;
        return c;
      };
      auto propose = [&](std::size_t mid) {
        CellIdx c = with(mid);
        if (mid != at && !scheduled.contains(c)) {
          scheduled.insert(c);
          next.insert(c);
        }
      };
      // Bisect toward the nearest sampled neighbor in each direction; a
      // direction with no sample yet (a freshly bisected row of the other
      // axis) probes half-way toward the axis boundary instead, so new rows
      // fill in around their frontier member instead of stalling.
      bool found_lo = false;
      for (std::size_t lo = at; lo-- > 0;) {
        if (sampled.contains(with(lo))) {
          if (at - lo >= 2) propose((at + lo) / 2);
          found_lo = true;
          break;
        }
      }
      if (!found_lo && at > 0) propose(at / 2);
      bool found_hi = false;
      for (std::size_t hi = at + 1; hi < size; ++hi) {
        if (sampled.contains(with(hi))) {
          if (hi - at >= 2) propose((at + hi) / 2);
          found_hi = true;
          break;
        }
      }
      if (!found_hi && at + 1 < size) propose((at + size - 1) / 2);
    };
    for (std::size_t n = 0; n < result.samples.size(); ++n) {
      if (!on_frontier(result.samples[n].point)) continue;
      bisect_axis(sample_idx[n], true);
      bisect_axis(sample_idx[n], false);
    }
    wave.assign(next.begin(), next.end());
  }

  // One registry flush per exploration (the wave loop only touched local
  // counters, mirroring the searchers' accumulate-then-flush pattern).
  obs::Registry& registry = obs::Registry::instance();
  registry.counter("explore.runs").add();
  registry.counter("explore.waves").add(result.rounds);
  registry.counter("explore.cells_evaluated").add(result.evaluations);
  registry.counter("explore.cells_cache_served").add(result.cache_hits);
  registry.gauge("explore.frontier_size").set(static_cast<std::int64_t>(result.frontier.size()));
  return result;
}

ExplorerConfig default_explorer() {
  ExplorerConfig config;
  for (i64 size = 256; size <= 64 * 1024; size *= 2) config.l1_axis.push_back(size);
  config.l2_axis = {0, 64 * 1024, 256 * 1024};
  return config;
}

std::string to_json(const ExploreResult& result, int indent) {
  std::string p0(static_cast<std::size_t>(indent) * 2, ' ');
  std::string p1 = p0 + "  ";
  std::string p2 = p1 + "  ";
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << p0 << "{\n";
  out << p1 << "\"lattice_cells\": " << result.lattice_cells << ",\n";
  out << p1 << "\"evaluations\": " << result.evaluations << ",\n";
  out << p1 << "\"cache_hits\": " << result.cache_hits << ",\n";
  out << p1 << "\"rounds\": " << result.rounds << ",\n";
  out << p1 << "\"stop\": \"" << core::to_string(result.stop) << "\",\n";
  out << p1 << "\"converged\": " << (result.converged ? "true" : "false") << ",\n";
  out << p1 << "\"samples\": [";
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    const ExploreSample& sample = result.samples[i];
    out << (i == 0 ? "\n" : ",\n");
    out << p2 << "{\"l1_bytes\": " << sample.cell.l1_bytes
        << ", \"l2_bytes\": " << sample.cell.l2_bytes << ", \"strategy\": \""
        << core::json_escape(sample.cell.strategy) << "\", \"with_te\": "
        << (sample.cell.with_te ? "true" : "false") << ", \"from_cache\": "
        << (sample.from_cache ? "true" : "false")
        << ", \"cycles\": " << core::json_number(sample.point.cycles)
        << ", \"energy_nj\": " << core::json_number(sample.point.energy_nj) << "}";
  }
  out << (result.samples.empty() ? "" : "\n" + p1) << "],\n";
  out << p1 << "\"frontier\": [";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const TradeoffPoint& point = result.frontier[i];
    out << (i == 0 ? "\n" : ",\n");
    out << p2 << "{\"l1_bytes\": " << point.l1_bytes << ", \"l2_bytes\": " << point.l2_bytes;
    if (i < result.frontier_cells.size()) {
      const DesignCell& cell = result.frontier_cells[i];
      out << ", \"strategy\": \"" << core::json_escape(cell.strategy)
          << "\", \"with_te\": " << (cell.with_te ? "true" : "false");
    }
    out << ", \"cycles\": " << core::json_number(point.cycles)
        << ", \"energy_nj\": " << core::json_number(point.energy_nj) << "}";
  }
  out << (result.frontier.empty() ? "" : "\n" + p1) << "]\n";
  out << p0 << "}";
  return out.str();
}

}  // namespace mhla::xplore
