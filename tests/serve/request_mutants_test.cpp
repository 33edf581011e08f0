// Trust-boundary test of `serve::parse_request`: seeded byte-level mutants
// of submit and explore request lines (as `serve::to_json` writes them)
// must each parse to a request or be rejected with std::invalid_argument —
// never crash, hang or throw anything else.  Whenever a mutant parses, its
// config must be exactly what the config reader makes of the re-serialized
// "config" member: reading the member straight from the parsed request
// must mean the same as the dump-and-reparse path it replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "core/json_report.h"
#include "ir/serialize.h"
#include "serve/protocol.h"

namespace mhla::serve {
namespace {

/// Mutants per base line; the seed and count are fixed so every run checks
/// the same corpus.
constexpr int kMutantsPerLine = 400;
constexpr std::uint64_t kSeed = 0x73657276;  // "serv"

/// Bytes the mutator favours: JSON punctuation, the characters of numbers
/// and literals, and escapes.
constexpr char kAlphabet[] = "{}[]\",: \t\n0123456789.-+eEtrufalsn\\";

std::string mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  auto byte = [&]() -> char {
    if (pick(4) == 0) return static_cast<char>(pick(256));
    return kAlphabet[pick(sizeof(kAlphabet) - 1)];
  };
  int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    std::size_t at = pick(text.size());
    switch (pick(6)) {
      case 0:  // overwrite one byte
        text[at] = byte();
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<long>(at), byte());
        break;
      case 2:  // delete a short span
        text.erase(at, 1 + pick(4));
        break;
      case 3:  // a digit becomes another digit or a sign: values change, JSON often stays valid
        if (text[at] >= '0' && text[at] <= '9') {
          text[at] = "0123456789-"[pick(11)];
        } else {
          text.insert(at, std::string(1 + pick(25), static_cast<char>('0' + pick(10))));
        }
        break;
      case 4:  // negate a number
        text.insert(at, "-");
        break;
      default:  // duplicate a short span (duplicate keys, repeated values)
        text.insert(at, text.substr(at, 1 + pick(24)));
        break;
    }
  }
  return text;
}

/// Base lines: submits and explores of every app, with and without a
/// config, and configs whose doubles need all 17 digits.
std::vector<std::string> base_lines() {
  std::vector<std::string> lines;
  core::PipelineConfig tuned;
  tuned.strategy = "bnb";
  tuned.search.energy_weight = 1.0 / 3.0;
  tuned.search.budget.deadline_seconds = 2.5;
  tuned.platform.sram.slope_energy_nj = 1e-7;
  tuned.dma.present = false;
  for (const apps::AppInfo& app : apps::all_apps()) {
    Request submit;
    submit.command = Command::Submit;
    submit.program_text = ir::serialize(app.build());
    submit.has_config = true;
    lines.push_back(to_json(submit));
    submit.config = tuned;
    lines.push_back(to_json(submit));

    Request explore = submit;
    explore.command = Command::Explore;
    explore.explore.l1_axis = {256, 1024, 4096};
    explore.explore.l2_axis = {0, 65536};
    explore.explore.strategies = {"greedy", "bnb"};
    explore.explore.explore_te = true;
    explore.explore.budget = 12;
    lines.push_back(to_json(explore));
  }
  return lines;
}

TEST(RequestMutants, ParseOrTypedRejectAndTheConfigMeansWhatItsDocumentMeans) {
  std::mt19937_64 rng(kSeed);
  std::size_t parsed = 0, with_config = 0, rejected = 0;
  for (const std::string& base : base_lines()) {
    for (int i = 0; i < kMutantsPerLine; ++i) {
      const std::string line = mutate(base, rng);
      Request request;
      try {
        request = parse_request(line);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "untyped rejection: " << error.what() << "\n" << line;
        continue;
      }
      ++parsed;
      if (!request.has_config) continue;
      ++with_config;
      const core::Json document = core::Json::parse(line);
      const core::PipelineConfig reference =
          core::pipeline_config_from_json(document.at("config").dump());
      // to_json covers every field the reader sets, with exact doubles.
      EXPECT_EQ(core::to_json(request.config), core::to_json(reference)) << line;
    }
  }
  // The corpus must exercise both outcomes, and the differential must see
  // a real share of configs.
  EXPECT_GT(rejected, parsed / 10);
  EXPECT_GT(with_config, static_cast<std::size_t>(kMutantsPerLine) * 2);
}

TEST(RequestMutants, HandBuiltConfigCornersAgreeWithTheTextReader) {
  const char* configs[] = {
      R"({"search": {"energy_weight": -0, "time_weight": 1e-320}})",
      R"({"platform": {"sram": {"base_energy_nj": 1.7976931348623157e308}}})",
      R"({"strategy": "a\u0001\"b", "num_threads": 9007199254740992})",
      R"({"dma": {"bytes_per_cycle": 0.1000000000000000055511151231257827}})",
      R"({"te": {"max_lookahead": 8, "charge_cold_start": true}, "target": "custom"})",
  };
  for (const char* config : configs) {
    SCOPED_TRACE(config);
    const std::string line = std::string(R"({"cmd": "submit", "program": "p", "config": )") +
                             config + "}";
    core::PipelineConfig direct;
    try {
      direct = parse_request(line).config;
    } catch (const std::invalid_argument&) {
      EXPECT_THROW(core::pipeline_config_from_json(std::string(config)), std::invalid_argument);
      continue;
    }
    EXPECT_EQ(core::to_json(direct),
              core::to_json(core::pipeline_config_from_json(std::string(config))));
  }
}

}  // namespace
}  // namespace mhla::serve
