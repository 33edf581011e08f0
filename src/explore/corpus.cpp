#include "explore/corpus.h"

#include <iostream>
#include <utility>

#include "apps/registry.h"
#include "core/json.h"
#include "gen/random_program.h"

namespace mhla::xplore {

CorpusResult explore_corpus(const CorpusConfig& config) {
  // One cache for the whole corpus: load once, thread it through every
  // run, write back once (and only if anything changed).
  ResultCache cache;
  const std::string& path = config.explorer.cache_path;
  if (!path.empty()) {
    ResultCache::LoadReport report = cache.load(path);
    if (!report.clean) std::cerr << "warning: " << report.message << "\n";
  }
  CorpusResult result = explore_corpus(config, cache);
  if (!path.empty()) cache.save_if_dirty(path);
  return result;
}

CorpusResult explore_corpus(const CorpusConfig& config, ResultStore& cache) {
  Explorer explorer(config.explorer);  // validates once for the whole corpus

  std::vector<std::pair<std::string, ir::Program>> programs;
  if (config.apps.empty()) {
    for (const apps::AppInfo& info : apps::all_apps()) {
      programs.emplace_back(info.name, info.build());
    }
  } else {
    for (const std::string& name : config.apps) {
      programs.emplace_back(name, apps::build_app(name));
    }
  }
  for (int i = 0; i < config.random_programs; ++i) {
    ir::Program program = gen::random_program(config.random_seed + static_cast<std::uint32_t>(i));
    std::string name = program.name();
    programs.emplace_back(std::move(name), std::move(program));
  }

  CorpusResult result;
  for (auto& [name, program] : programs) {
    CorpusEntry entry;
    entry.program = name;
    entry.result = explorer.run(std::move(program), cache);
    result.evaluations += entry.result.evaluations;
    result.cache_hits += entry.result.cache_hits;
    result.entries.push_back(std::move(entry));
  }
  return result;
}

std::string to_json(const CorpusResult& result, int indent) {
  std::string p0 = core::json_pad(indent);
  std::string p1 = core::json_pad(indent + 1);
  std::string p2 = core::json_pad(indent + 2);
  core::JsonText out;
  out << p0 << "{\n";
  out << p1 << "\"evaluations\": " << result.evaluations << ",\n";
  out << p1 << "\"cache_hits\": " << result.cache_hits << ",\n";
  out << p1 << "\"programs\": [";
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    const CorpusEntry& entry = result.entries[i];
    out << (i == 0 ? "\n" : ",\n");
    out << p2 << "{\"program\": \"" << core::json_escape(entry.program) << "\",\n";
    out << p2 << " \"result\":\n" << to_json(entry.result, indent + 2) << "}";
  }
  out << (result.entries.empty() ? "" : "\n" + p1) << "]\n";
  out << p0 << "}";
  return out.take();
}

}  // namespace mhla::xplore
