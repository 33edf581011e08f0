// Differential test of `ir::parse_program`, the single-pass lexer, against
// the line-based parser it replaced (tests/oracle/parser.cpp).  Seeded
// byte-level mutants of the nine apps' `.mhla` text must parse to the same
// program under both (identical `serialize()` output) or be rejected by
// both.  The lexer may be stricter only in the ways listed below; every
// rejection it makes must be a std::invalid_argument.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "ir/serialize.h"
#include "oracle/parser.h"

namespace mhla {
namespace {

/// Mutants per app; the seed and count are fixed so every run checks the
/// same corpus.
constexpr int kMutantsPerApp = 1500;
constexpr std::uint64_t kSeed = 0x6d686c61;  // "mhla"

/// Bytes the mutator favours: the format's own punctuation, whitespace the
/// line trim treats specially, digits and signs that make or break numbers.
constexpr char kAlphabet[] = " \t\r\v\f\n{}[]+-*#:x0123456789ai_";

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
      case 3:  // insert a long digit run: numbers that overflow i64
        text.insert(at, std::string(18 + pick(4), static_cast<char>('1' + pick(9))));
        break;
      case 4: {  // duplicate a line
        std::size_t begin = text.rfind('\n', at);
        begin = begin == std::string::npos ? 0 : begin + 1;
        std::size_t end = text.find('\n', at);
        end = end == std::string::npos ? text.size() : end + 1;
        text.insert(begin, text.substr(begin, end - begin));
        break;
      }
      default:  // delete a whole line
      {
        std::size_t begin = text.rfind('\n', at);
        begin = begin == std::string::npos ? 0 : begin + 1;
        std::size_t end = text.find('\n', at);
        end = end == std::string::npos ? text.size() : end + 1;
        text.erase(begin, end - begin);
        break;
      }
    }
  }
  return text;
}

/// The serialized program, or nothing when the parse throws.  `error`
/// receives the message, and `typed` whether it was std::invalid_argument.
template <class Parse>
std::optional<std::string> run(Parse parse, const std::string& text, std::string& error,
                               bool& typed) {
  try {
    return ir::serialize(parse(text));
  } catch (const std::invalid_argument& e) {
    error = e.what();
    typed = true;
  } catch (const std::exception& e) {
    error = e.what();
    typed = false;
  }
  return std::nullopt;
}

/// The listed strictness: the lexer rejects a number token that std::stoll
/// would read only a prefix of ("5abc", "x5]", "0x10", "4.0").  Its message
/// quotes the token as "got '<token>'".
bool is_partial_number_rejection(const std::string& error) {
  const char* const kinds[] = {"array extent", "element bytes", "loop lower bound",
                               "loop upper bound", "loop step", "op cycles", "access count"};
  bool number = false;
  for (const char* kind : kinds) {
    number = number || error.find(std::string("expected ") + kind + ", got '") !=
                           std::string::npos;
  }
  std::size_t open = error.rfind("got '");
  if (!number || open == std::string::npos) return false;
  open += 5;
  std::size_t close = error.find('\'', open);
  if (close == std::string::npos) return false;
  std::string token = error.substr(open, close - open);
  try {
    std::size_t used = 0;
    std::stoll(token, &used);
    return used < token.size();
  } catch (const std::exception&) {
    return false;
  }
}

TEST(ParserDifferential, MutantsParseAlikeOrFailAlike) {
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  int stricter = 0;
  for (const apps::AppInfo& app : apps::all_apps()) {
    const std::string text = ir::serialize(app.build());
    for (int i = 0; i < kMutantsPerApp; ++i) {
      std::string mutant = mutate(text, rng);
      std::string lexer_error, oracle_error;
      bool lexer_typed = false, oracle_typed = false;
      auto lexer = run([](const std::string& t) { return ir::parse_program(t); }, mutant,
                       lexer_error, lexer_typed);
      auto oracle = run([](const std::string& t) { return oracle::parse_program(t); }, mutant,
                        oracle_error, oracle_typed);
      if (lexer && oracle) {
        ++accepted;
        ASSERT_EQ(*lexer, *oracle) << app.name << " mutant " << i << ":\n" << mutant;
        continue;
      }
      if (!lexer) {
        ASSERT_TRUE(lexer_typed) << "untyped error '" << lexer_error << "' on:\n" << mutant;
        ASSERT_NE(lexer_error.find("parse_program: line "), std::string::npos) << lexer_error;
      }
      if (!lexer && !oracle) {
        ++rejected;
        continue;
      }
      ASSERT_FALSE(lexer) << "the lexer accepts what the line parser rejects ('"
                          << oracle_error << "'):\n" << mutant;
      ASSERT_TRUE(is_partial_number_rejection(lexer_error))
          << "unlisted stricter rejection '" << lexer_error << "' on:\n" << mutant;
      ++stricter;
    }
  }
  // The corpus must exercise both outcomes, not just one of them.
  EXPECT_GT(accepted, kMutantsPerApp);
  EXPECT_GT(rejected, kMutantsPerApp);
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  RecordProperty("stricter", stricter);
}

TEST(ParserDifferential, AppsAndFormatCornersParseAlike) {
  std::vector<std::string> texts;
  for (const apps::AppInfo& app : apps::all_apps()) texts.push_back(ir::serialize(app.build()));
  texts.push_back(
      "\n# lead comment\n  program  p \r\n\tarray a 4 4 : elem 2 input output input\n"
      "loop\ti -3 +5 2 {\r\n  stmt s ops -1 {\n   read a [--i+3] [0*i+i-i+2] x007\n"
      "  write a [-i] [i]\n }\n}\n#tail\n");
  texts.push_back(
      "program p\nstmt s ops 1 {\nread : [9223372036854775807] [-9223372036854775807-1]\n}\n");
  for (const std::string& text : texts) {
    std::string error;
    bool typed = false;
    auto lexer =
        run([](const std::string& t) { return ir::parse_program(t); }, text, error, typed);
    auto oracle = run([](const std::string& t) { return oracle::parse_program(t); }, text, error,
                      typed);
    ASSERT_TRUE(lexer && oracle) << error << "\n" << text;
    EXPECT_EQ(*lexer, *oracle);
  }
}

}  // namespace
}  // namespace mhla
