// Layer probes of the traced run.  Each times public calls into one layer
// with an obs::Span around every call, on the workload's own inputs.

#include <sys/socket.h>

#include <algorithm>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "bench.h"
#include "explore/concurrent_cache.h"
#include "explore/explorer.h"
#include "ir/serialize.h"
#include "obs/trace.h"
#include "serve/framing.h"
#include "serve/protocol.h"

namespace mhla::ebench {

namespace {

constexpr std::size_t kPipelineSamples = 240;
constexpr std::size_t kServeCells = 96;

double us(obs::Span& span) { return span.finish() * 1e6; }

/// ResultStore that times every call into the concurrent cache it wraps.
class TimingStore final : public xplore::ResultStore {
 public:
  bool lookup(std::uint64_t key, xplore::CacheEntry& out) override {
    obs::Span span("explore.lookup", "bench");
    bool hit = cache_.lookup(key, out);
    double elapsed = us(span);
    std::lock_guard<std::mutex> lock(mu_);
    lookup_us.push_back(elapsed);
    (hit ? hits : misses) += 1;
    return hit;
  }

  bool insert(std::uint64_t key, xplore::CacheEntry entry) override {
    obs::Span span("explore.insert", "bench");
    bool stored = cache_.insert(key, std::move(entry));
    double elapsed = us(span);
    std::lock_guard<std::mutex> lock(mu_);
    insert_us.push_back(elapsed);
    return stored;
  }

  std::vector<double> lookup_us;
  std::vector<double> insert_us;
  std::size_t hits = 0;
  std::size_t misses = 0;

 private:
  std::mutex mu_;
  xplore::ConcurrentResultCache cache_;
};

/// A warm replay must return the cold run's frontier bit for bit, without
/// evaluating a single cell.
bool same_replay(const xplore::ExploreResult& cold, const xplore::ExploreResult& warm) {
  if (warm.evaluations != 0 || warm.frontier.size() != cold.frontier.size() ||
      warm.frontier_cells != cold.frontier_cells) {
    return false;
  }
  for (std::size_t i = 0; i < cold.frontier.size(); ++i) {
    const xplore::TradeoffPoint& a = cold.frontier[i];
    const xplore::TradeoffPoint& b = warm.frontier[i];
    if (a.l1_bytes != b.l1_bytes || a.l2_bytes != b.l2_bytes || !same_bits(a.cycles, b.cycles) ||
        !same_bits(a.energy_nj, b.energy_nj)) {
      return false;
    }
  }
  return true;
}

}  // namespace

double probe_pipeline(const ProbeInputs& inputs, Report& report) {
  obs::Tracer& tracer = obs::Tracer::instance();
  std::vector<double> untraced_ms, parse, workspace, engine, search, te, sim, layer_sum;
  double evaluations = 0.0;
  const std::size_t cells = std::min(inputs.cells.size(), kPipelineSamples);
  for (std::size_t k = 0; k < kPipelineSamples; ++k) {
    const Cell& cell = inputs.cells[k % cells];
    const std::string& text = inputs.programs[cell.program].text;

    auto whole_op = [&] {
      tracer.enable(false);
      obs::Span op("pipeline.op", "bench");
      core::Pipeline(cell.config).run(ir::parse_program(text));
      untraced_ms.push_back(op.finish() * 1e3);
      tracer.enable(true);
    };
    auto layered_op = [&] {
      obs::Span parse_span("ir.parse_program", "bench");
      ir::Program program = ir::parse_program(text);
      parse.push_back(us(parse_span));
      std::unique_ptr<core::Workspace> ws;
      {
        obs::Span span("analysis.make_workspace", "bench");
        ws = core::make_workspace(std::move(program), cell.config.platform, cell.config.dma);
        workspace.push_back(us(span));
      }
      const assign::AssignContext ctx = ws->context();
      assign::SearchOptions options = cell.config.search;
      options.set_target(cell.config.target);
      {
        obs::Span span("assign.cost_engine", "bench");
        assign::CostEngine built(ctx);
        engine.push_back(us(span));
      }
      assign::SearchResult result;
      {
        obs::Span span("assign.search", "bench");
        result = assign::searcher(cell.config.strategy).search(ctx, options);
        search.push_back(us(span));
      }
      evaluations += result.evaluations;
      {
        obs::Span span("te.simulate_time_extended", "bench");
        sim::simulate(ctx, result.assignment,
                      {te::TransferMode::TimeExtended, cell.config.te, false});
        te.push_back(us(span));
      }
      {
        obs::Span span("sim.simulate", "bench");
        sim::simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}, false});
        sim::simulate(ctx, result.assignment, {te::TransferMode::Blocking, {}, false});
        sim::simulate(ctx, result.assignment, {te::TransferMode::Ideal, {}, false});
        sim.push_back(us(span));
      }
      {
        // The whole op frees its workspace too; charge that to the layer.
        obs::Span span("analysis.release_workspace", "bench");
        ws.reset();
        workspace.back() += us(span);
      }
      // The standalone engine build is reported, not summed: the search
      // builds its own engine inside assign.search.
      layer_sum.push_back(parse.back() + workspace.back() + search.back() + te.back() +
                          sim.back());
    };
    // Alternate which form runs first, so neither gets the warmer caches.
    if (k % 2 == 0) {
      whole_op();
      layered_op();
    } else {
      layered_op();
      whole_op();
    }
  }

  const std::size_t n = kPipelineSamples;
  report.add("ir.parse_us", median(parse), "us", n);
  report.add("analysis.workspace_us", median(workspace), "us", n);
  report.add("assign.engine_build_us", median(engine), "us", n);
  report.add("assign.search_us", median(search), "us", n);
  report.add("assign.evaluations", evaluations / static_cast<double>(n), "count", n);
  report.add("te.time_extend_us", median(te), "us", n);
  report.add("sim.simulate_us", median(sim), "us", n);
  report.add("pipeline.coverage", median(layer_sum) / (median(untraced_ms) * 1e3), "ratio", n);
  return mean(untraced_ms);
}

void probe_bnb(const ProbeInputs& inputs, Report& report) {
  double serial_ms = 0.0;
  double par_ms = 0.0;
  double states = 0.0;
  double par_states = 0.0;
  double prunes = 0.0;
  std::size_t instances = 0;
  for (const BnbCase& bnb : inputs.bnb) {
    auto ws = core::make_workspace(ir::parse_program(inputs.programs[bnb.program].text),
                                   bnb.platform, {});
    const assign::AssignContext ctx = ws->context();
    assign::SearchOptions options;
    options.max_states = bnb.max_states > 0 ? bnb.max_states : 500'000'000;
    assign::SearchResult serial;
    obs::Span serial_span("assign.bnb_serial", "bench");
    try {
      serial = assign::searcher("bnb").search(ctx, options);
    } catch (const std::invalid_argument&) {
      continue;  // above the placement guard: not a B&B instance
    }
    double serial_s = serial_span.finish();
    options.bnb_threads = pinned_threads();
    obs::Span par_span("assign.bnb_par", "bench");
    assign::SearchResult par = assign::searcher("bnb-par").search(ctx, options);
    double par_s = par_span.finish();
    std::cout << "bnb " << bnb.name << ": " << serial.states_explored << " states, serial "
              << serial_s * 1e3 << " ms, bnb-par x" << options.bnb_threads << " " << par_s * 1e3
              << " ms\n";
    ++instances;
    serial_ms += serial_s * 1e3;
    par_ms += par_s * 1e3;
    states += static_cast<double>(serial.states_explored);
    par_states += static_cast<double>(par.states_explored);
    prunes += static_cast<double>(serial.bound_prunes + serial.capacity_prunes);
  }
  if (instances == 0) throw std::runtime_error("no B&B instance under the placement guard");
  const double n = static_cast<double>(instances);
  report.add("assign.bnb_states", states, "count", instances);
  report.add("assign.bnb_prunes", prunes, "count", instances);
  report.add("assign.prune_ratio", prunes / (prunes + states), "ratio", instances);
  report.add("assign.bnb_serial_ms", serial_ms / n, "ms", instances);
  report.add("assign.bnb_par_ms", par_ms / n, "ms", instances);
  report.add("core.pool_speedup", serial_ms / par_ms, "ratio", instances);
  report.add("core.pool_work_ratio", par_states / states, "ratio", instances);
}

void probe_explore(const ProbeInputs& inputs, double mean_pipeline_ms, OpLog& checks,
                   Report& report) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.pipeline.num_threads = pinned_threads();
  std::vector<double> wave_ms;
  Clock::time_point last = Clock::now();
  config.on_wave = [&](const xplore::ExploreResult&) {
    wave_ms.push_back(seconds_since(last) * 1e3);
    last = Clock::now();
  };
  const xplore::Explorer explorer(config);

  TimingStore store;
  std::size_t evaluations = 0;
  std::size_t rounds = 0;
  std::vector<double> key_us;
  std::vector<xplore::ExploreResult> colds;
  for (const Program& program : inputs.programs) {
    last = Clock::now();
    xplore::ExploreResult& cold = colds.emplace_back();
    {
      obs::Span span("explore.cold_run", "bench");
      cold = explorer.run(ir::parse_program(program.text), store);
    }
    evaluations += cold.evaluations;
    rounds += cold.rounds;
    for (const xplore::ExploreSample& sample : cold.samples) {
      core::PipelineConfig effective = config.pipeline;
      effective.platform.l1_bytes = sample.cell.l1_bytes;
      effective.platform.l2_bytes = sample.cell.l2_bytes;
      effective.strategy = sample.cell.strategy;
      obs::Span span("explore.design_cache_key", "bench");
      xplore::design_cache_key(program.text, std::move(effective), sample.cell.with_te);
      key_us.push_back(us(span));
    }
  }
  const std::vector<double> cold_waves = wave_ms;
  for (std::size_t p = 0; p < inputs.programs.size(); ++p) {
    obs::Span span("explore.warm_run", "bench");
    xplore::ExploreResult warm = explorer.run(ir::parse_program(inputs.programs[p].text), store);
    ++checks.attempted;
    if (!same_replay(colds[p], warm)) ++checks.failed;
  }

  double wave_total_ms = 0.0;
  for (double ms : cold_waves) wave_total_ms += ms;
  report.add("explore.evaluations", static_cast<double>(evaluations), "count", inputs.programs.size());
  report.add("explore.rounds", static_cast<double>(rounds), "count", inputs.programs.size());
  report.add("explore.wave_ms", median(cold_waves), "ms", cold_waves.size());
  report.add("explore.wave_efficiency",
             static_cast<double>(evaluations) * mean_pipeline_ms /
                 (wave_total_ms * static_cast<double>(config.pipeline.num_threads)),
             "ratio", cold_waves.size());
  report.add("explore.key_us", median(key_us), "us", key_us.size());
  report.add("explore.lookup_us", median(store.lookup_us), "us", store.lookup_us.size());
  report.add("explore.insert_us", median(store.insert_us), "us", store.insert_us.size());
  report.add("explore.hit_ratio",
             static_cast<double>(store.hits) / static_cast<double>(store.hits + store.misses),
             "ratio", store.hits + store.misses);
}

void probe_serve(const ProbeInputs& inputs, std::uint64_t seed, OpLog& checks, Report& report) {
  std::vector<std::size_t> sample(std::min(inputs.cells.size(), kServeCells));
  for (std::size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  const ServeSet set = make_serve_set(inputs, sample);

  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t begin_ns = tracer.now_ns();
  OpLog log;
  ServeRoundStats stats;
  serve_round(set, serve_streams(set.submit_lines.size(), set.explore_lines.size(), 4, 3, seed),
              120.0, log, &stats);
  checks.attempted += log.attempted;
  checks.failed += log.failed;

  std::vector<double> queue_wait_ms;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "queue_wait" && event.ts_ns >= begin_ns) {
      queue_wait_ms.push_back(static_cast<double>(event.dur_ns) * 1e-6);
    }
  }

  // The stages of a cache-served submit, each timed on the same lines.
  std::vector<double> parse_us, event_us, frame_us, key_us, lookup_us;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) throw std::runtime_error("socketpair");
  serve::Socket writer(fds[0]);
  serve::Socket reader_socket(fds[1]);
  serve::LineReader reader(reader_socket);
  xplore::ConcurrentResultCache cache;
  std::string echoed;
  for (std::size_t i = 0; i < set.submit_lines.size(); ++i) {
    const std::string& line = set.submit_lines[i];
    const SubmitAnswer& answer = set.answers[i];
    serve::Request request;
    {
      obs::Span span("serve.parse_request", "bench");
      request = serve::parse_request(line);
      parse_us.push_back(us(span));
    }
    std::string done;
    {
      obs::Span span("serve.event_done_submit", "bench");
      done = serve::event_done_submit(i + 1, "done", answer.status, 0.0, answer.cycles,
                                      answer.energy_nj, true, 0);
      event_us.push_back(us(span));
    }
    {
      obs::Span span("serve.framing", "bench");
      if (!serve::write_line(writer, line) || !reader.read_line(echoed) ||
          !serve::write_line(writer, done) || !reader.read_line(echoed)) {
        throw std::runtime_error("socketpair framing failed");
      }
      frame_us.push_back(us(span));
    }
    std::uint64_t key = 0;
    {
      obs::Span span("serve.design_cache_key", "bench");
      key = xplore::design_cache_key(request.program_text, request.config, true);
      key_us.push_back(us(span));
    }
    xplore::CacheEntry entry;
    entry.cycles = answer.cycles;
    entry.energy_nj = answer.energy_nj;
    entry.status = answer.status;
    cache.insert(key, entry);
    {
      obs::Span span("serve.cache_lookup", "bench");
      cache.lookup(key, entry);
      lookup_us.push_back(us(span));
    }
  }

  const std::size_t n = set.submit_lines.size();
  const double stages_ms =
      (median(parse_us) + median(event_us) + median(frame_us) + median(key_us) +
       median(lookup_us)) * 1e-3;
  report.add("serve.parse_us", median(parse_us), "us", n);
  report.add("serve.event_us", median(event_us), "us", n);
  report.add("serve.frame_us", median(frame_us), "us", n);
  report.add("serve.overhead_ms", median(log.hit_ms) - stages_ms, "ms", log.hit_ms.size());
  report.add("serve.queue_wait_ms", median(queue_wait_ms), "ms", queue_wait_ms.size());
  report.add("serve.queue_depth_max", static_cast<double>(stats.queue_depth_max), "count",
             log.attempted);
  report.add("serve.hit_ratio",
             static_cast<double>(stats.cache_hits) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.cache_hits + stats.cache_misses)),
             "ratio", log.attempted);
}

}  // namespace mhla::ebench
