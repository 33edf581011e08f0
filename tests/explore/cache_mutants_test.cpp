// Trust-boundary test of `ResultCache::load`: seeded byte-level mutants of a
// saved cache document must load to a report (clean, salvaged or stale) or
// fail with a typed exception — never crash or hang.  Whatever the load
// keeps must be a valid cache: only cacheable entries, a size that matches
// `entries()`, and a state that survives its own save and reload exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "explore/cache.h"
#include "helpers.h"

namespace mhla::xplore {
namespace {

/// The seed and count are fixed so every run checks the same corpus.
constexpr int kMutants = 2000;
constexpr std::uint64_t kSeed = 0x6d686c61;  // "mhla"

/// Bytes the mutator favours: JSON punctuation and literals, hex and
/// decimal digits, exponent and sign characters that make or break numbers.
constexpr char kAlphabet[] = " \t\r\n{}[]:,\"\\-+.eE0123456789abcdeftrunlsx";

/// The document every mutant starts from: both cacheable statuses, both
/// TE settings, an escaped strategy name and doubles that need 17 digits.
std::string base_document() {
  ResultCache cache;
  const char* const strategies[] = {"greedy", "bnb", "bnb-par", "anneal", "odd \"name\""};
  for (std::uint64_t i = 0; i < 10; ++i) {
    CacheEntry entry;
    entry.l1_bytes = static_cast<i64>(256) << (i % 6);
    entry.l2_bytes = i % 3 == 0 ? 0 : 65536;
    entry.strategy = strategies[i % 5];
    entry.with_te = i % 2 == 0;
    entry.cycles = 1e6 / static_cast<double>(i + 3);
    entry.energy_nj = 12345.678901234567 * static_cast<double>(i + 1);
    entry.status = i % 2 ? assign::SearchStatus::Optimal : assign::SearchStatus::Feasible;
    cache.insert(fnv1a64("cell-" + std::to_string(i)), entry);
  }
  return cache.to_json() + "\n";
}

std::string mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  auto byte = [&]() -> char {
    if (pick(4) == 0) return static_cast<char>(pick(256));
    return kAlphabet[pick(sizeof(kAlphabet) - 1)];
  };
  auto line_span = [&](std::size_t at) {
    std::size_t begin = text.rfind('\n', at);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t end = text.find('\n', at);
    end = end == std::string::npos ? text.size() : end + 1;
    return std::pair{begin, end};
  };
  int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    std::size_t at = pick(text.size());
    switch (pick(7)) {
      case 0:  // overwrite one byte
        text[at] = byte();
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<long>(at), byte());
        break;
      case 2:  // delete a short span
        text.erase(at, 1 + pick(4));
        break;
      case 3:  // insert a long digit run: numbers that overflow i64 and double
        text.insert(at, std::string(18 + pick(300), static_cast<char>('1' + pick(9))));
        break;
      case 4: {  // duplicate a line
        auto [begin, end] = line_span(at);
        text.insert(begin, text.substr(begin, end - begin));
        break;
      }
      case 5: {  // delete a whole line
        auto [begin, end] = line_span(at);
        text.erase(begin, end - begin);
        break;
      }
      default:  // truncate: a save cut short
        text.resize(at);
        break;
    }
  }
  return text;
}

struct Outcomes {
  int clean = 0;
  int salvaged_or_stale = 0;
  int typed_errors = 0;
};

/// Load `text` through a file and check the load's contract; false once
/// any check has failed.
bool load_and_check(const std::string& text, const std::string& path, Outcomes& outcomes) {
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << text; }
  ResultCache cache;
  ResultCache::LoadReport report;
  try {
    report = cache.load(path);
  } catch (const std::invalid_argument&) {
    ++outcomes.typed_errors;
    return true;
  } catch (const std::runtime_error&) {
    ++outcomes.typed_errors;
    return true;
  }
  ++(report.clean ? outcomes.clean : outcomes.salvaged_or_stale);
  std::vector<std::pair<std::uint64_t, CacheEntry>> entries = cache.entries();
  EXPECT_EQ(cache.size(), entries.size());
  EXPECT_EQ(report.entries, entries.size()) << text;
  for (const auto& [key, entry] : entries) {
    EXPECT_TRUE(cacheable_status(entry.status)) << text;
  }
  if (report.clean) {
    EXPECT_TRUE(report.quarantine_path.empty());
  }

  // Whatever was kept is a valid cache: its own save reloads clean and
  // identical.
  cache.save(path);
  ResultCache reloaded;
  ResultCache::LoadReport again = reloaded.load(path);
  EXPECT_TRUE(again.clean) << again.message;
  EXPECT_EQ(reloaded.entries(), entries) << text;
  return !::testing::Test::HasFailure();
}

TEST(CacheDocumentMutants, LoadSalvagesOrRejectsEveryMutant) {
  const std::string path = ::testing::TempDir() + "mhla_cache_mutant.json";
  const std::string document = base_document();
  std::mt19937_64 rng(kSeed);
  Outcomes outcomes;
  for (int i = 0; i < kMutants; ++i) {
    ASSERT_TRUE(load_and_check(mutate(document, rng), path, outcomes)) << "mutant " << i;
  }
  // The corpus must exercise both the clean path and the salvage path.
  EXPECT_GT(outcomes.clean, kMutants / 20);
  EXPECT_GT(outcomes.salvaged_or_stale, kMutants / 20);
  RecordProperty("clean", outcomes.clean);
  RecordProperty("salvaged_or_stale", outcomes.salvaged_or_stale);
  RecordProperty("typed_errors", outcomes.typed_errors);
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST(CacheDocumentMutants, HandBuiltCornersLoad) {
  const std::string path = ::testing::TempDir() + "mhla_cache_corner.json";
  const std::string entry =
      "{\"key\": \"00000000000000ff\", \"l1_bytes\": 256, \"l2_bytes\": 0, \"strategy\": "
      "\"greedy\", \"with_te\": true, \"status\": \"feasible\", \"cycles\": 1, \"energy_nj\": 2}";
  const std::vector<std::string> corners = {
      "",
      "\n",
      "{}",
      "null",
      "[" + entry + "]",
      std::string(100000, '[') + entry,
      std::string(100000, '{') + "\"key\"" + std::string(100000, '}'),
      "{\"version\": 4, \"entries\": {}}",
      "{\"version\": \"4\", \"entries\": []}",
      "{\"version\": 3, \"entries\": {}}",
      "{\"version\": 0, \"entries\": [\n" + entry + "\n]}",
      "{\"version\": -1, \"entries\": [\n" + entry + "\n]}",
      "{\"version\": 99999999999999999999, \"entries\": []}",
      "{\"version\": 1e308, \"entries\": []}",
      "{\"version\": 4, \"entries\": [\n" + entry + ",\n" + entry + "\n]}",
      std::string("{\"version\": 4,") + '\0' + " \"entries\": [\n" + entry + "\n]}",
      entry + "\n" + entry,
  };
  Outcomes outcomes;
  for (const std::string& text : corners) EXPECT_TRUE(load_and_check(text, path, outcomes));
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

}  // namespace
}  // namespace mhla::xplore
