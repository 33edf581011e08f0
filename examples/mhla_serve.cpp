// Exploration-as-a-service: a long-running TCP daemon that runs MHLA
// pipeline jobs and design-space explorations on a worker pool behind a
// newline-delimited JSON protocol (see docs/serve.md), with one process-wide
// concurrent result cache shared by every job and persisted crash-safely.
//
// Usage:
//   mhla_serve [--host <ipv4>] [--port <n>] [--port-file <path>]
//              [--workers <n>] [--cache <file.json>]
//              [--persist-interval <seconds>] [--cache-max-entries <n>]
//              [--stats-interval <seconds>] [--job-retention <n>]
//
// Options:
//   --host <ipv4>             bind address (default 127.0.0.1)
//   --port <n>                TCP port; 0 binds an ephemeral port (default 0)
//   --port-file <path>        write the bound port to <path> once listening
//                             (atomically, so a watcher never reads half a
//                             number) — how scripts find an ephemeral port
//   --workers <n>             concurrent job workers (default 2, at most 256)
//   --cache <file.json>       persistent result cache: loaded at startup
//                             (salvaging a damaged document), saved by the
//                             periodic persister and at shutdown
//   --persist-interval <s>    periodic persistence period; 0 saves only at
//                             shutdown (default 0)
//   --cache-max-entries <n>   bound on resident cache entries, least recently
//                             used evicted first (0 = unbounded)
//   --stats-interval <s>      broadcast a `stats` metrics event every <s>
//                             seconds to connections subscribed via
//                             {"cmd":"metrics","stream":true}; 0 disables
//                             the broadcaster (default 0; the one-shot
//                             `metrics` verb always works)
//   --job-retention <n>       finished jobs kept answering `status` queries
//                             (FIFO over completion; default 1024).  Bounds
//                             the job registry on a long-lived server
//
// Prints "mhla_serve listening on HOST:PORT" once accepting.  SIGINT/SIGTERM
// (or a `shutdown` request) drain the server: running jobs are cancelled
// through their budgets and finish with anytime results, then the cache is
// saved and the process exits 0.
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 validation error,
// 5 startup I/O failure (bind, unreadable cache).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "cli_number.h"
#include "core/pipeline.h"
#include "serve/server.h"

using namespace mhla;

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true, std::memory_order_relaxed); }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--host <ipv4>] [--port <n>] [--port-file <path>] [--workers <n>]\n"
               "       [--cache <file.json>] [--persist-interval <seconds>]\n"
               "       [--cache-max-entries <n>] [--stats-interval <seconds>]\n"
               "       [--job-retention <n>]\n\n"
               "exit codes: 0 clean shutdown, 2 usage, 3 validation, 5 I/O\n";
  return 2;
}

/// Stage + rename so a poller that sees the file always reads the complete
/// port number.
void write_port_file(const std::string& path, int port) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write port file '" + temp + "'");
    out << port << "\n";
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot move port file into place at '" + path + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig config;
  std::string port_file;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--host") {
        config.host = next();
      } else if (arg == "--port") {
        config.port = cli::parse_number<int>(arg, next());
        if (config.port < 0 || config.port > 65535) {
          throw std::invalid_argument("--port out of range");
        }
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--workers") {
        long long workers = cli::parse_number<long long>(arg, next());
        if (workers < 1 || workers > core::kMaxThreads) {
          throw std::invalid_argument("--workers must be in [1, " +
                                      std::to_string(core::kMaxThreads) + "]");
        }
        config.workers = static_cast<unsigned>(workers);
      } else if (arg == "--cache") {
        config.cache_path = next();
      } else if (arg == "--persist-interval") {
        config.persist_interval_seconds = cli::parse_number<double>(arg, next());
        if (config.persist_interval_seconds < 0) {
          throw std::invalid_argument("--persist-interval must be >= 0");
        }
      } else if (arg == "--cache-max-entries") {
        long long n = cli::parse_number<long long>(arg, next());
        if (n < 0) throw std::invalid_argument("--cache-max-entries must be >= 0");
        config.cache_max_entries = static_cast<std::size_t>(n);
      } else if (arg == "--job-retention") {
        long long n = cli::parse_number<long long>(arg, next());
        if (n < 0) throw std::invalid_argument("--job-retention must be >= 0");
        config.job_retention = static_cast<std::size_t>(n);
      } else if (arg == "--stats-interval") {
        config.stats_interval_seconds = cli::parse_number<double>(arg, next());
        if (config.stats_interval_seconds < 0) {
          throw std::invalid_argument("--stats-interval must be >= 0");
        }
      } else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        return usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }

  try {
    serve::Server server(config);
    if (!port_file.empty()) write_port_file(port_file, server.port());
    std::cout << "mhla_serve listening on " << config.host << ":" << server.port()
              << std::endl;

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // Poll between the signal flag (async-signal context can only set it)
    // and the server's own stop request (a `shutdown` protocol verb).
    while (!server.wait_for(0.2)) {
      if (g_interrupted.load(std::memory_order_relaxed)) server.request_stop();
    }
    server.stop();
    std::cout << "mhla_serve stopped\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 5;
  }
}
