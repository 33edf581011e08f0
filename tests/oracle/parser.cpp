#include "oracle/parser.h"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mhla::oracle {

ir::AffineExpr parse_affine(const std::string& text) {
  ir::AffineExpr result;
  std::size_t pos = 0;
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("parse_affine: " + why + " in '" + text + "' at offset " +
                                std::to_string(pos));
  };

  bool expect_term = true;
  ir::i64 sign = 1;
  while (pos < text.size()) {
    char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '+' || c == '-') {
      if (expect_term && c == '-') {
        sign = -sign;  // leading / repeated unary minus
        ++pos;
        continue;
      }
      if (expect_term) fail("unexpected '+'");
      sign = (c == '-') ? -1 : 1;
      expect_term = true;
      ++pos;
      continue;
    }
    if (!expect_term) fail("missing operator");

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
      ir::i64 value = std::stoll(text.substr(start, pos - start));
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        std::size_t vstart = pos;
        while (pos < text.size() && (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                                     text[pos] == '_')) {
          ++pos;
        }
        if (vstart == pos) fail("expected variable after '*'");
        result += ir::AffineExpr::variable(text.substr(vstart, pos - vstart), sign * value);
      } else {
        result += ir::AffineExpr(sign * value);
      }
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) || text[pos] == '_')) {
        ++pos;
      }
      result += ir::AffineExpr::variable(text.substr(start, pos - start), sign);
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    sign = 1;
    expect_term = false;
  }
  if (expect_term) fail("dangling operator");
  return result;
}

namespace {

/// Line-based parser state.
struct Parser {
  std::vector<std::string> lines;
  std::size_t next = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("parse_program: line " + std::to_string(next) + ": " + why);
  }

  /// Next non-empty, non-comment line, trimmed; empty string at EOF.
  std::string take() {
    while (next < lines.size()) {
      std::string line = lines[next++];
      std::size_t begin = line.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      std::size_t end = line.find_last_not_of(" \t\r");
      line = line.substr(begin, end - begin + 1);
      if (line.empty() || line[0] == '#') continue;
      bool blank = true;
      for (char c : line) blank = blank && std::isspace(static_cast<unsigned char>(c));
      if (blank) continue;  // the one change from the shipped parser
      return line;
    }
    return "";
  }
};

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

ir::ArrayAccess parse_access(Parser& parser, const std::vector<std::string>& tokens) {
  ir::ArrayAccess access;
  access.kind = tokens[0] == "read" ? ir::AccessKind::Read : ir::AccessKind::Write;
  if (tokens.size() < 2) parser.fail("access needs an array name");
  access.array = tokens[1];
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    if (token.size() >= 2 && token.front() == '[' && token.back() == ']') {
      access.index.push_back(parse_affine(token.substr(1, token.size() - 2)));
    } else if (token.size() >= 2 && token[0] == 'x' &&
               std::isdigit(static_cast<unsigned char>(token[1]))) {
      access.count = std::stoll(token.substr(1));
    } else {
      parser.fail("unexpected access token '" + token + "'");
    }
  }
  return access;
}

ir::NodePtr parse_stmt(Parser& parser, const std::vector<std::string>& header) {
  // stmt <name> ops <cycles> {
  if (header.size() != 5 || header[2] != "ops" || header[4] != "{") {
    parser.fail("malformed stmt header");
  }
  auto stmt = std::make_unique<ir::StmtNode>(header[1], std::stoll(header[3]));
  for (;;) {
    std::string line = parser.take();
    if (line.empty()) parser.fail("unterminated stmt");
    if (line == "}") break;
    std::vector<std::string> tokens = split_ws(line);
    if (tokens[0] != "read" && tokens[0] != "write") {
      parser.fail("expected read/write inside stmt, got '" + tokens[0] + "'");
    }
    stmt->add_access(parse_access(parser, tokens));
  }
  return stmt;
}

ir::NodePtr parse_node(Parser& parser, const std::string& line);

ir::NodePtr parse_loop(Parser& parser, const std::vector<std::string>& header) {
  // loop <iter> <lower> <upper> <step> {
  if (header.size() != 6 || header[5] != "{") parser.fail("malformed loop header");
  auto loop = std::make_unique<ir::LoopNode>(header[1], std::stoll(header[2]),
                                             std::stoll(header[3]), std::stoll(header[4]));
  for (;;) {
    std::string line = parser.take();
    if (line.empty()) parser.fail("unterminated loop");
    if (line == "}") break;
    loop->append(parse_node(parser, line));
  }
  return loop;
}

ir::NodePtr parse_node(Parser& parser, const std::string& line) {
  std::vector<std::string> tokens = split_ws(line);
  if (tokens[0] == "loop") return parse_loop(parser, tokens);
  if (tokens[0] == "stmt") return parse_stmt(parser, tokens);
  parser.fail("expected loop/stmt, got '" + tokens[0] + "'");
}

}  // namespace

ir::Program parse_program(const std::string& text) {
  Parser parser;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) parser.lines.push_back(raw);

  std::string first = parser.take();
  std::vector<std::string> header = split_ws(first);
  if (header.size() != 2 || header[0] != "program") {
    parser.fail("expected 'program <name>' header");
  }
  ir::Program program(header[1]);

  for (;;) {
    std::string line = parser.take();
    if (line.empty()) break;
    std::vector<std::string> tokens = split_ws(line);
    if (tokens[0] == "array") {
      // array <name> <dim>... : elem <bytes> [input] [output]
      ir::ArrayDecl decl;
      if (tokens.size() < 5) parser.fail("malformed array declaration");
      decl.name = tokens[1];
      std::size_t t = 2;
      while (t < tokens.size() && tokens[t] != ":") {
        decl.dims.push_back(std::stoll(tokens[t]));
        ++t;
      }
      if (t + 2 >= tokens.size() || tokens[t] != ":" || tokens[t + 1] != "elem") {
        parser.fail("array declaration missing ': elem <bytes>'");
      }
      decl.elem_bytes = std::stoll(tokens[t + 2]);
      for (std::size_t f = t + 3; f < tokens.size(); ++f) {
        if (tokens[f] == "input") {
          decl.is_input = true;
        } else if (tokens[f] == "output") {
          decl.is_output = true;
        } else {
          parser.fail("unknown array flag '" + tokens[f] + "'");
        }
      }
      program.add_array(std::move(decl));
    } else {
      program.append_top(parse_node(parser, line));
    }
  }
  return program;
}

}  // namespace mhla::oracle
