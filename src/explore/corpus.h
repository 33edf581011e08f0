#pragma once

#include <string>
#include <vector>

#include "explore/explorer.h"

namespace mhla::xplore {

/// A batch exploration over a program corpus: the registry applications
/// (all nine by default) plus, optionally, seeded `gen::random_program`
/// instances — the same generator the fuzz tests and benches use, so a
/// seed names the same workload everywhere.
struct CorpusConfig {
  ExplorerConfig explorer;

  /// Registry app names; empty = every registered application.
  std::vector<std::string> apps;

  /// Extra generated programs, seeds `random_seed .. random_seed + n - 1`.
  int random_programs = 0;
  std::uint32_t random_seed = 1;
};

/// Exploration outcome of one corpus member.
struct CorpusEntry {
  std::string program;  ///< app name or "fuzz_<seed>"
  ExploreResult result;
};

/// Combined corpus report: per-program results plus the aggregate counters
/// (total pipeline evaluations and cache hits across the corpus).
struct CorpusResult {
  std::vector<CorpusEntry> entries;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
};

/// Explore every corpus member with one Explorer configuration.  Programs
/// run sequentially (each exploration parallelizes internally), sharing the
/// persistent result cache when `explorer.cache_path` is set (loaded once,
/// written back once with `save_if_dirty`), so repeated corpus runs skip
/// every previously evaluated cell.
CorpusResult explore_corpus(const CorpusConfig& config);

/// Same, against a caller-owned store (no file I/O; `explorer.cache_path`
/// is ignored).  This is the distributed form: N workers or N servers each
/// drive a corpus against their own ResultCache, save it as a shard, and
/// converge by loading every shard into one cache (`mhla_tool
/// --cache-merge`).
CorpusResult explore_corpus(const CorpusConfig& config, ResultStore& cache);

/// Combined frontier report, one object per program.
std::string to_json(const CorpusResult& result, int indent = 0);

}  // namespace mhla::xplore
