// Command-line client for mhla_serve: builds one protocol request, sends it,
// and prints every reply event verbatim (one JSON object per line), so shell
// pipelines can post-process the stream with any JSON tool.
//
// Usage:
//   mhla_client --port <n> --submit  (--app <name> | --file <path.mhla>) [opts]
//   mhla_client --port <n> --explore (--app <name> | --file <path.mhla>) [opts]
//   mhla_client --port <n> --status [--job <n>]
//   mhla_client --port <n> --cancel --job <n>
//   mhla_client --port <n> --cache-stats
//   mhla_client --port <n> --metrics [--stream]
//   mhla_client --port <n> --shutdown
//
// Options:
//   --host <ipv4>      server address (default 127.0.0.1)
//   --config <file>    PipelineConfig JSON document (flags override fields)
//   --l1/--l2 <bytes>  platform layer capacities (submit; explore uses axes)
//   --strategy <name>  search strategy registry name
//   --threads <n>      per-job worker threads (the server multiplies this
//                      by its own job workers)
//   --deadline <s>     wall-clock run budget of the job
//   --max-probes <n>   deterministic probe budget of the job
//   --no-dma           platform without a transfer engine
//   --budget <n>       --explore: cap on sampled lattice cells
//   --explore-te       --explore: add the TE-off axis variant
//   --seed-stride <n>  --explore: coarse-seed stride (default 2)
//   --stream           --metrics: after the snapshot, keep the connection
//                      open and print the server's periodic `stats` events
//                      until the server closes (requires a server started
//                      with --stats-interval)
//
// For --submit/--explore the client streams events until the job's terminal
// "done" event.  Exit codes: 0 success, 1 the server reported an error event
// or a failed job, 2 usage error, 3 validation error, 5 connection/I/O
// failure.

#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli_number.h"
#include "apps/registry.h"
#include "core/json.h"
#include "core/json_report.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/socket.h"

using namespace mhla;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " --port <n> [--host <ipv4>] <action> [options]\n"
         "actions:\n"
         "  --submit  (--app <name> | --file <path.mhla>)   run one pipeline job\n"
         "  --explore (--app <name> | --file <path.mhla>)   run a lattice exploration\n"
         "  --status [--job <n>]                            report jobs\n"
         "  --cancel --job <n>                              cancel a job\n"
         "  --cache-stats                                   report cache counters\n"
         "  --metrics [--stream]                            server metrics snapshot\n"
         "  --shutdown                                      stop the server\n"
         "options: [--config <file>] [--l1 <bytes>] [--l2 <bytes>] [--strategy <name>]\n"
         "         [--threads <n>] [--deadline <s>] [--max-probes <n>] [--no-dma]\n"
         "         [--budget <n>] [--explore-te] [--seed-stride <n>]\n\n"
         "exit codes: 0 ok, 1 server-reported error, 2 usage, 3 validation, 5 I/O\n";
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  bool have_port = false;
  serve::Request request;
  int actions = 0;  ///< how many action flags were given (must be exactly 1)
  std::string app;
  std::string file;
};

void set_action(Options& options, serve::Command command) {
  options.request.command = command;
  ++options.actions;
}

bool parse_args(int argc, char** argv, Options& options) {
  // First pass: --config, so other flags override its fields in any order
  // (same contract as mhla_tool).
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--config") {
      if (i + 1 >= argc) throw std::invalid_argument("--config needs a value");
      options.request.config = core::pipeline_config_from_json(read_file(argv[i + 1]));
      options.request.has_config = true;
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    auto config_field = [&]() { options.request.has_config = true; };
    if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = cli::parse_number<int>(arg, next());
      options.have_port = true;
    } else if (arg == "--submit") {
      set_action(options, serve::Command::Submit);
    } else if (arg == "--explore") {
      set_action(options, serve::Command::Explore);
    } else if (arg == "--status") {
      set_action(options, serve::Command::Status);
    } else if (arg == "--cancel") {
      set_action(options, serve::Command::Cancel);
    } else if (arg == "--cache-stats") {
      set_action(options, serve::Command::CacheStats);
    } else if (arg == "--metrics") {
      set_action(options, serve::Command::Metrics);
    } else if (arg == "--stream") {
      options.request.stream_stats = true;
    } else if (arg == "--shutdown") {
      set_action(options, serve::Command::Shutdown);
    } else if (arg == "--app") {
      options.app = next();
    } else if (arg == "--file") {
      options.file = next();
    } else if (arg == "--config") {
      next();  // loaded in the first pass
    } else if (arg == "--job") {
      long long job = cli::parse_number<long long>(arg, next());
      if (job < 0) throw std::invalid_argument("--job must be >= 0");
      options.request.job = static_cast<std::uint64_t>(job);
      options.request.has_job = true;
    } else if (arg == "--l1") {
      options.request.config.platform.l1_bytes =
          cli::parse_number<long long>(arg, next());
      config_field();
    } else if (arg == "--l2") {
      options.request.config.platform.l2_bytes =
          cli::parse_number<long long>(arg, next());
      config_field();
    } else if (arg == "--strategy") {
      options.request.config.strategy = next();
      config_field();
    } else if (arg == "--threads") {
      long long threads = cli::parse_number<long long>(arg, next());
      if (threads < 0 || threads > std::numeric_limits<unsigned>::max()) {
        throw std::invalid_argument("--threads out of range");
      }
      options.request.config.num_threads = static_cast<unsigned>(threads);
      config_field();
    } else if (arg == "--deadline") {
      options.request.config.search.budget.deadline_seconds =
          cli::parse_number<double>(arg, next());
      if (options.request.config.search.budget.deadline_seconds < 0) {
        throw std::invalid_argument("--deadline must be >= 0");
      }
      config_field();
    } else if (arg == "--max-probes") {
      options.request.config.search.budget.max_probes =
          cli::parse_number<long>(arg, next());
      if (options.request.config.search.budget.max_probes < 0) {
        throw std::invalid_argument("--max-probes must be >= 0");
      }
      config_field();
    } else if (arg == "--no-dma") {
      options.request.config.dma.present = false;
      config_field();
    } else if (arg == "--budget") {
      long long budget = cli::parse_number<long long>(arg, next());
      if (budget < 0) throw std::invalid_argument("--budget must be >= 0");
      options.request.explore.budget = static_cast<std::size_t>(budget);
    } else if (arg == "--explore-te") {
      options.request.explore.explore_te = true;
    } else if (arg == "--seed-stride") {
      long long stride = cli::parse_number<long long>(arg, next());
      if (stride < 1) throw std::invalid_argument("--seed-stride must be >= 1");
      options.request.explore.seed_stride = static_cast<std::size_t>(stride);
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (!options.have_port || options.actions != 1) return false;
  if (options.request.command == serve::Command::Cancel && !options.request.has_job) {
    throw std::invalid_argument("--cancel requires --job");
  }
  bool needs_program = options.request.command == serve::Command::Submit ||
                       options.request.command == serve::Command::Explore;
  if (needs_program == (options.app.empty() && options.file.empty())) {
    return false;  // program given without an action needing it, or missing
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse_args(argc, argv, options)) return usage(argv[0]);
    if (!options.app.empty()) {
      options.request.program_text = ir::serialize(apps::build_app(options.app));
    } else if (!options.file.empty()) {
      options.request.program_text = read_file(options.file);
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::out_of_range& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }

  try {
    serve::Socket socket = serve::connect_to(options.host, options.port);
    if (!serve::write_line(socket, serve::to_json(options.request))) {
      std::cerr << "error: connection closed before the request was sent\n";
      return 5;
    }

    const bool streaming = options.request.command == serve::Command::Submit ||
                           options.request.command == serve::Command::Explore;
    const bool stats_stream = options.request.command == serve::Command::Metrics &&
                              options.request.stream_stats;
    serve::LineReader reader(socket);
    std::string line;
    int exit_code = 5;  // EOF before any terminal event is an I/O failure
    while (reader.read_line(line)) {
      std::cout << line << "\n";
      core::Json event = core::Json::parse(line);
      const std::string& name = event.at("event").string();
      if (name == "error") {
        exit_code = 1;
        break;
      }
      if (!streaming) {
        exit_code = 0;
        // A subscribed metrics connection stays open: keep relaying the
        // periodic `stats` lines until the server closes (EOF exits 0).
        if (stats_stream) continue;
        break;
      }
      if (name == "done") {
        exit_code = event.at("state").string() == "failed" ? 1 : 0;
        break;
      }
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 5;
  }
}
