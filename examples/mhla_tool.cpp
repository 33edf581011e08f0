// The command-line face of the library: run the full MHLA pipeline on one
// of the built-in applications or on a program description file (the
// `.mhla` text format, see ir/serialize.h), on a configurable platform.
//
// Usage:
//   mhla_tool --app motion_estimation [options]
//   mhla_tool --file program.mhla [options]
//   mhla_tool --dump-app qsdpcm            # print the .mhla description
//   mhla_tool --cache-merge <out.json> <shard.json>...
//                                          # merge result-cache shards
//
// Options:
//   --config <file>   load a PipelineConfig JSON document (other flags
//                     override individual fields, regardless of order)
//   --l1 <bytes>      L1 scratchpad capacity   (default 4096)
//   --l2 <bytes>      L2 scratchpad capacity   (default 131072, 0 = none)
//   --target <t>      energy | time | balanced (default balanced)
//   --strategy <s>    search strategy registry name (default greedy;
//                     unknown names list the registry)
//   --threads <n>     worker threads for the --sweep/--explore/--corpus
//                     waves (0 = hardware, at most 256)
//   --bnb-threads <n> worker threads for --strategy bnb-par (0 = hardware,
//                     at most 256; the result is bit-identical for any count)
//   --no-dma          platform without a transfer engine (TE not applicable)
//   --sweep           run the fixed layer-size trade-off grid instead
//   --explore         run the adaptive design-space exploration instead
//                     (searches the default layer-size lattice; --l1/--l2
//                     set the single-run platform and are ignored here)
//   --corpus          explore every registry application in one invocation
//   --budget <n>      --explore/--corpus: cap on sampled cells (0 = off)
//   --cache <file>    --explore/--corpus: persistent result cache (JSON)
//   --cache-merge <out> <shard>...
//                     merge result-cache shard documents into <out> (loaded
//                     first when it exists) and rewrite it via the
//                     crash-safe saver — how N sharded explorations (or N
//                     mhla_serve instances) converge on one warm cache.
//                     Damaged shards are salvaged entry by entry with a
//                     warning; a missing shard path is a validation error.
//   --deadline <s>    wall-clock run budget in seconds (0 = unbounded); an
//                     expired budget degrades the run (best-so-far result,
//                     stop "deadline") instead of failing it
//   --max-probes <n>  deterministic run budget in search probes (0 = off) —
//                     same degradation (stop "probe_budget"), reproducible
//                     truncation point
//   --trace <file>    record the run's span timeline and write it as Chrome
//                     trace-event JSON (load in Perfetto / chrome://tracing);
//                     covers every pipeline stage plus search/explore
//                     internals — and never changes results (bit-identity
//                     with tracing on vs off is a tested contract)
//   --metrics         after the run, dump the process metrics registry
//                     (counters/gauges/histograms); with --json the dump
//                     rides in the result document as a "metrics" block
//   --dump-config     print the effective PipelineConfig JSON and exit
//   --footprints      dump the per-layer/per-nest usage matrix and peaks of
//                     the final (time-extended) assignment; combined with
//                     --json the dump rides in the result document
//   --verbose         also print the program and the chosen assignment
//   --json            machine-readable result (strategy, timings, points)
//
// Exit codes:
//   0  success
//   1  unexpected internal error
//   2  usage error (bad flags; this listing)
//   3  validation error (bad config value, unknown app/strategy, bad input)
//   4  stopped early (single pipeline run returned a degraded, best-so-far
//      result — output is still complete and well-formed; stderr says
//      "stopped early: <stop>", the report's "stop" key names the same
//      reason: deadline, probe_budget, cancelled or node_cap)
//   5  I/O failure (unreadable/unwritable file, cache persistence)
//
// --cache-merge uses the same table: 0 on success (salvaged shards
// included), 3 for a missing shard path, 5 when the merged document cannot
// be written.
//
// Errors always produce one structured line on stderr ("error: ...");
// under --json a machine-readable {"error": {...}} object goes to stdout.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_number.h"
#include "apps/registry.h"
#include "core/json_report.h"
#include "core/pipeline.h"
#include "core/report_table.h"
#include "explore/corpus.h"
#include "explore/explorer.h"
#include "ir/printer.h"
#include "ir/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace mhla;

namespace {

struct Options {
  std::string app;
  std::string file;
  std::string dump_app;
  core::PipelineConfig pipeline;
  bool sweep = false;
  bool explore = false;
  bool corpus = false;
  long long budget = 0;
  std::string cache;
  std::string trace;
  bool metrics = false;
  bool dump_config = false;
  bool footprints = false;
  bool verbose = false;
  bool json = false;
  std::vector<std::string> cache_merge;  ///< [0] = out, [1..] = shards
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--app <name> | --file <path.mhla> | --dump-app <name>)\n"
               "       [--config <file.json>] [--l1 <bytes>] [--l2 <bytes>]\n"
               "       [--target energy|time|balanced] [--strategy <name>] [--threads <n>]\n"
               "       [--bnb-threads <n>] [--no-dma] [--sweep] [--explore] [--corpus]\n"
               "       [--budget <n>] [--cache <file.json>] [--deadline <seconds>]\n"
               "       [--max-probes <n>] [--trace <file.json>] [--metrics]\n"
               "       [--dump-config] [--footprints] [--verbose] [--json]\n"
               "       " << argv0 << " --cache-merge <out.json> <shard.json>...\n\n"
               "exit codes: 0 ok, 1 internal, 2 usage, 3 validation,\n"
               "            4 stopped early (degraded result; stderr names the stop), 5 I/O\n\n"
               "strategies:\n";
  for (const std::string& name : assign::searcher_names()) {
    std::cerr << "  " << name << " — " << assign::searcher(name).description << "\n";
  }
  std::cerr << "\napplications:\n";
  for (const apps::AppInfo& info : apps::all_apps()) {
    std::cerr << "  " << info.name << " — " << info.description << "\n";
  }
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool parse_args(int argc, char** argv, Options& options) {
  // First pass: load --config, so every other flag overrides individual
  // fields of the document regardless of argv order (as documented).
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--config") {
      if (i + 1 >= argc) throw std::invalid_argument("--config needs a value");
      options.pipeline = core::pipeline_config_from_json(read_file(argv[i + 1]));
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    // Config documents cap thread counts at the same limit, by key name.
    auto thread_count = [&](const std::string& flag) -> unsigned {
      long long threads = cli::parse_number<long long>(flag, next());
      if (threads < 0 || threads > core::kMaxThreads) {
        throw std::invalid_argument(flag + " must be in [0, " +
                                    std::to_string(core::kMaxThreads) + "]");
      }
      return static_cast<unsigned>(threads);
    };
    if (arg == "--app") {
      options.app = next();
    } else if (arg == "--file") {
      options.file = next();
    } else if (arg == "--dump-app") {
      options.dump_app = next();
    } else if (arg == "--config") {
      next();  // loaded in the first pass
    } else if (arg == "--l1") {
      options.pipeline.platform.l1_bytes = cli::parse_number<long long>(arg, next());
    } else if (arg == "--l2") {
      options.pipeline.platform.l2_bytes = cli::parse_number<long long>(arg, next());
    } else if (arg == "--target") {
      options.pipeline.target = assign::parse_target(next());
    } else if (arg == "--strategy") {
      options.pipeline.strategy = next();
      assign::searcher(options.pipeline.strategy);  // fail fast, listing the registry
    } else if (arg == "--threads") {
      options.pipeline.num_threads = thread_count(arg);
    } else if (arg == "--bnb-threads") {
      options.pipeline.search.bnb_threads = thread_count(arg);
    } else if (arg == "--no-dma") {
      options.pipeline.dma.present = false;
    } else if (arg == "--sweep") {
      options.sweep = true;
    } else if (arg == "--explore") {
      options.explore = true;
    } else if (arg == "--corpus") {
      options.corpus = true;
    } else if (arg == "--budget") {
      options.budget = cli::parse_number<long long>(arg, next());
      if (options.budget < 0) throw std::invalid_argument("--budget must be >= 0");
    } else if (arg == "--cache") {
      options.cache = next();
    } else if (arg == "--cache-merge") {
      options.cache_merge.push_back(next());  // the output document
      while (i + 1 < argc && argv[i + 1][0] != '-') options.cache_merge.push_back(argv[++i]);
      if (options.cache_merge.size() < 2) {
        throw std::invalid_argument("--cache-merge needs an output and at least one shard");
      }
    } else if (arg == "--deadline") {
      options.pipeline.search.budget.deadline_seconds =
          cli::parse_number<double>(arg, next());
      if (options.pipeline.search.budget.deadline_seconds < 0) {
        throw std::invalid_argument("--deadline must be >= 0");
      }
    } else if (arg == "--max-probes") {
      options.pipeline.search.budget.max_probes = cli::parse_number<long>(arg, next());
      if (options.pipeline.search.budget.max_probes < 0) {
        throw std::invalid_argument("--max-probes must be >= 0");
      }
    } else if (arg == "--trace") {
      options.trace = next();
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--dump-config") {
      options.dump_config = true;
    } else if (arg == "--footprints") {
      options.footprints = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--json") {
      options.json = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (options.sweep + options.explore + options.corpus > 1) {
    throw std::invalid_argument("--sweep, --explore and --corpus are mutually exclusive");
  }
  if (options.corpus && (!options.app.empty() || !options.file.empty())) {
    throw std::invalid_argument("--corpus explores every registry app; drop --app/--file");
  }
  return options.dump_config || options.corpus || !options.app.empty() ||
         !options.file.empty() || !options.dump_app.empty() || !options.cache_merge.empty();
}

int run_cache_merge(const Options& options) {
  const std::string& out_path = options.cache_merge.front();
  // An existing output participates in the merge, so repeated invocations
  // accumulate instead of overwriting earlier shards; each later shard wins
  // on key collisions.
  xplore::ResultCache merged;
  xplore::ResultCache::LoadReport report = merged.load(out_path);
  if (!report.clean) std::cerr << "warning: " << report.message << "\n";
  std::size_t adopted = 0;
  for (std::size_t i = 1; i < options.cache_merge.size(); ++i) {
    const std::string& shard_path = options.cache_merge[i];
    if (!std::filesystem::exists(shard_path)) {
      throw std::invalid_argument("cache shard '" + shard_path + "' does not exist");
    }
    report = merged.load(shard_path);
    if (!report.clean) std::cerr << "warning: " << report.message << "\n";
    adopted += report.entries;
  }
  merged.save(out_path);  // crash-safe: temp + fsync + atomic rename
  std::cout << "merged " << (options.cache_merge.size() - 1) << " shards (" << adopted
            << " entries) into " << out_path << " (" << merged.size() << " total entries)\n";
  return 0;
}

/// The --json emitters below funnel through this: without --metrics the
/// body is the whole document (shape unchanged from earlier releases); with
/// it, the body nests under "result" next to a "metrics" registry snapshot.
void print_json_result(const std::string& body, const Options& options) {
  if (!options.metrics) {
    std::cout << body << "\n";
    return;
  }
  std::cout << "{\n  \"result\":\n" << body << ",\n  \"metrics\": "
            << core::to_json(obs::Registry::instance().snapshot()) << "\n}\n";
}

ir::Program load_program(const Options& options) {
  if (!options.app.empty()) return apps::build_app(options.app);
  return ir::parse_program(read_file(options.file));
}

/// The fixed grid: every cell of the default L1 axis x {no L2, the
/// configured L2}, evaluated in one stride-1 exploration wave.
void run_sweep(ir::Program program, const Options& options) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.l2_axis = {0, options.pipeline.platform.l2_bytes};
  config.pipeline = options.pipeline;
  config.seed_stride = 1;

  xplore::ExploreResult result = xplore::Explorer(std::move(config)).run(std::move(program));
  if (options.json) {
    print_json_result(core::to_json(result.frontier), options);
    return;
  }
  std::cout << "explored " << result.samples.size() << " configurations; Pareto frontier:\n";
  core::Table table({"L1", "L2", "cycles", "energy nJ"});
  for (const xplore::TradeoffPoint& p : result.frontier) {
    table.add_row({std::to_string(p.l1_bytes), std::to_string(p.l2_bytes),
                   core::Table::num(p.cycles, 0), core::Table::num(p.energy_nj, 0)});
  }
  std::cout << table.str();
}

xplore::ExplorerConfig explorer_config(const Options& options) {
  xplore::ExplorerConfig config = xplore::default_explorer();
  config.pipeline = options.pipeline;
  config.budget = static_cast<std::size_t>(options.budget);
  config.cache_path = options.cache;
  return config;
}

void print_explore_report(const xplore::ExploreResult& result) {
  std::cout << "evaluated " << result.evaluations << " of " << result.lattice_cells
            << " lattice cells (" << result.cache_hits << " cache hits, " << result.rounds
            << " rounds" << (result.converged ? ", converged" : "");
  if (result.stop != core::StopReason::None) {
    std::cout << ", stopped early: " << core::to_string(result.stop);
  }
  std::cout << "); Pareto frontier:\n";
  core::Table table({"L1", "L2", "cycles", "energy nJ"});
  for (const xplore::TradeoffPoint& p : result.frontier) {
    table.add_row({std::to_string(p.l1_bytes), std::to_string(p.l2_bytes),
                   core::Table::num(p.cycles, 0), core::Table::num(p.energy_nj, 0)});
  }
  std::cout << table.str();
}

void run_explore(ir::Program program, const Options& options) {
  xplore::Explorer explorer(explorer_config(options));
  xplore::ExploreResult result = explorer.run(std::move(program));
  if (options.json) {
    print_json_result(xplore::to_json(result), options);
    return;
  }
  print_explore_report(result);
}

void run_corpus(const Options& options) {
  xplore::CorpusConfig config;
  config.explorer = explorer_config(options);
  xplore::CorpusResult result = xplore::explore_corpus(config);
  if (options.json) {
    print_json_result(xplore::to_json(result), options);
    return;
  }
  for (const xplore::CorpusEntry& entry : result.entries) {
    std::cout << "--- " << entry.program << " ---\n";
    print_explore_report(entry.result);
  }
  std::cout << "corpus total: " << result.evaluations << " evaluations, " << result.cache_hits
            << " cache hits\n";
}

/// The structured error path of the top-level boundary: one parseable line
/// on stderr always, plus a machine-readable object on stdout under --json
/// (so a consumer of the JSON stream never has to scrape stderr).
int fail(const Options& options, const std::string& kind, const std::string& what, int code) {
  std::cerr << "error: " << what << "\n";
  if (options.json) {
    std::cout << "{\"error\": {\"kind\": \"" << kind << "\", \"message\": \""
              << core::json_escape(what) << "\"}}\n";
  }
  return code;
}

/// Everything after flag parsing, returning the process exit code.  Split
/// out of main so the observability epilogue (trace export, text metrics
/// dump) runs after *any* successful path — including the degraded exit 4,
/// whose timeline is the one most worth looking at.
int run_tool(Options& options) {
    if (!options.cache_merge.empty()) return run_cache_merge(options);

    if (options.dump_config) {
      std::cout << core::to_json(options.pipeline) << "\n";
      return 0;
    }

    if (!options.dump_app.empty()) {
      std::cout << ir::serialize(apps::build_app(options.dump_app));
      return 0;
    }

    if (options.corpus) {
      run_corpus(options);
      return 0;
    }

    ir::Program program = load_program(options);
    if (options.verbose) std::cout << ir::to_string(program) << "\n";

    if (options.sweep) {
      run_sweep(std::move(program), options);
      return 0;
    }
    if (options.explore) {
      run_explore(std::move(program), options);
      return 0;
    }

    // The workspace build is the analyze stage (run(Program) would span it
    // itself; this path pre-builds to keep the workspace for the reports),
    // so its duration is recorded the way run(Program) records it.
    std::unique_ptr<core::Workspace> ws;
    double analyze_s = 0.0;
    {
      obs::Span span("analyze", "pipeline");
      ws = core::make_workspace(std::move(program), options.pipeline.platform,
                                options.pipeline.dma);
      analyze_s = span.finish();
    }
    core::Pipeline pipeline(options.pipeline);
    if (options.verbose) {
      pipeline.set_progress([](const std::string& stage, double seconds) {
        std::cerr << "stage " << stage << ": " << core::Table::num(seconds * 1e3, 2) << " ms\n";
      });
    }
    core::PipelineResult run = pipeline.run(*ws);
    run.timings.front().seconds = analyze_s;  // run(Workspace) reported 0 for "analyze"
    run.total_seconds += analyze_s;

    if (options.verbose) {
      std::cout << "strategy " << run.strategy << ": " << run.search.moves.size()
                << " moves, " << run.search.evaluations << " cost evaluations, "
                << run.search.states_explored << " states\n";
      for (const assign::PlacedCopy& pc : run.search.assignment.copies) {
        const analysis::CopyCandidate& cc = ws->reuse().candidate(pc.cc_id);
        std::cout << "  copy " << cc.array << " nest " << cc.nest << " level " << cc.level
                  << " (" << cc.bytes << " B) -> " << ws->hierarchy().layer(pc.layer).name
                  << "\n";
      }
      std::cout << "\n";
    }
    // The final (time-extended) point's simulation already carries the
    // per-layer/per-nest footprint report of the chosen assignment.
    const assign::FootprintReport& footprints = run.points.mhla_te.footprints;
    if (options.json) {
      if (options.footprints || options.metrics) {
        std::cout << "{\n  \"result\":\n" << core::to_json(ws->program().name(), run, 1);
        if (options.footprints) {
          std::cout << ",\n  \"footprints\":\n" << core::to_json(footprints, ws->hierarchy(), 1);
        }
        if (options.metrics) {
          std::cout << ",\n  \"metrics\": " << core::to_json(obs::Registry::instance().snapshot());
        }
        std::cout << "\n}\n";
      } else {
        std::cout << core::to_json(ws->program().name(), run) << "\n";
      }
    } else {
      std::cout << sim::format_four_points(ws->program().name(), run.points) << "\n"
                << sim::format_result(run.points.mhla_te);
      if (options.footprints) {
        std::cout << "\nfootprints (live bytes per layer x top-level nest, final assignment):\n";
        core::Table table({"layer", "capacity", "peak", "usage per nest"});
        for (std::size_t l = 0; l < footprints.usage.size(); ++l) {
          const mem::MemLayer& layer = ws->hierarchy().layer(static_cast<int>(l));
          std::ostringstream row;
          for (std::size_t t = 0; t < footprints.usage[l].size(); ++t) {
            row << footprints.usage[l][t] << (t + 1 < footprints.usage[l].size() ? " " : "");
          }
          table.add_row({layer.name,
                         layer.unbounded() ? "unbounded" : std::to_string(layer.capacity_bytes),
                         std::to_string(footprints.peak_bytes[l]), row.str()});
        }
        std::cout << table.str();
      }
    }
    // Exit 4 signals the degraded (best-so-far) outcome of a single run:
    // the output above is complete and well-formed, scripts just learn the
    // search did not run to its natural end, and why.  Explorer/corpus cell
    // budgets are a sampling knob, not a failure, and stay exit 0.
    if (run.search.status != assign::SearchStatus::BudgetExhausted) return 0;
    std::cerr << "stopped early: " << core::to_string(run.search.stop) << "\n";
    return 4;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse_args(argc, argv, options)) return usage(argv[0]);

    // Recording must be live before the pipeline constructs; the exporter
    // below only serializes what the rings buffered.
    if (!options.trace.empty()) obs::Tracer::instance().enable(true);

    int code = run_tool(options);

    if (!options.trace.empty()) {
      std::ofstream out(options.trace);
      if (!out) throw std::runtime_error("cannot write trace file '" + options.trace + "'");
      out << obs::Tracer::instance().chrome_trace_json() << "\n";
      if (!out.flush()) {
        throw std::runtime_error("short write on trace file '" + options.trace + "'");
      }
    }
    if (options.metrics && !options.json) {
      std::cout << obs::to_text(obs::Registry::instance().snapshot());
    }
    return code;
  } catch (const std::invalid_argument& e) {
    return fail(options, "validation", e.what(), 3);
  } catch (const std::out_of_range& e) {
    return fail(options, "validation", e.what(), 3);
  } catch (const std::filesystem::filesystem_error& e) {
    return fail(options, "io", e.what(), 5);
  } catch (const std::runtime_error& e) {
    return fail(options, "io", e.what(), 5);
  } catch (const std::exception& e) {
    return fail(options, "internal", e.what(), 1);
  }
}
