#include "ir/serialize.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mhla::ir {

namespace {

/// |value| without the overflow of negating INT64_MIN.
std::uint64_t magnitude(i64 value) {
  return value < 0 ? 0 - static_cast<std::uint64_t>(value) : static_cast<std::uint64_t>(value);
}

/// Stream-free text building for the writer below (the canonical text is
/// rebuilt for every submitted program): `append(out, parts...)` over
/// strings, chars and integers.
void append_part(std::string& out, std::string_view text) { out += text; }
void append_part(std::string& out, char c) { out += c; }
template <std::integral Int>
  requires(!std::same_as<Int, char>)
void append_part(std::string& out, Int value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

void append_affine(std::string& out, const AffineExpr& expr) {
  bool first = true;
  for (const auto& [var, coef] : expr.terms()) {
    if (coef < 0) {
      out += '-';
    } else if (!first) {
      out += '+';
    }
    std::uint64_t mag = magnitude(coef);
    if (mag != 1) append(out, mag, '*');
    out += var;
    first = false;
  }
  if (expr.constant() != 0 || first) {
    if (expr.constant() < 0) {
      append(out, '-', magnitude(expr.constant()));
    } else {
      if (!first) out += '+';
      append(out, expr.constant());
    }
  }
}

}  // namespace

std::string format_affine(const AffineExpr& expr) {
  std::string out;
  append_affine(out, expr);
  return out;
}

namespace {

// Character classes of the "C" locale, which the format has always used.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_ident(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

/// Loops nested deeper than this are rejected: the IR passes recurse over
/// the loop tree, so an unbounded depth is a stack overflow waiting to
/// happen.  Real loop nests are a handful of levels deep.
constexpr std::size_t kMaxNesting = 256;

/// Parse an affine expression in one pass.  `fail(offset, why)` reports a
/// malformed input at `offset` into `text` and must throw.
template <class Fail>
AffineExpr parse_affine_with(std::string_view text, const Fail& fail) {
  AffineExpr result;
  std::size_t pos = 0;
  bool expect_term = true;
  i64 sign = 1;
  while (pos < text.size()) {
    char c = text[pos];
    if (is_space(c)) {
      ++pos;
      continue;
    }
    if (c == '+' || c == '-') {
      if (expect_term && c == '-') {
        sign = -sign;  // leading / repeated unary minus
        ++pos;
        continue;
      }
      if (expect_term) fail(pos, "unexpected '+'");
      sign = (c == '-') ? -1 : 1;
      expect_term = true;
      ++pos;
      continue;
    }
    if (!expect_term) fail(pos, "missing operator");

    std::size_t term = pos;
    if (is_digit(c)) {
      while (pos < text.size() && is_digit(text[pos])) ++pos;
      i64 value = 0;
      if (std::from_chars(text.data() + term, text.data() + pos, value).ec != std::errc{}) {
        fail(term, "number out of range");
      }
      value *= sign;
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        std::size_t var = pos;
        while (pos < text.size() && is_ident(text[pos])) ++pos;
        if (var == pos) fail(pos, "expected variable after '*'");
        std::string_view name = text.substr(var, pos - var);
        i64 merged;
        if (__builtin_add_overflow(result.coef(name), value, &merged)) {
          fail(term, "coefficient out of range");
        }
        result.add_term(name, value);
      } else {
        i64 merged;
        if (__builtin_add_overflow(result.constant(), value, &merged)) {
          fail(term, "constant out of range");
        }
        result += AffineExpr(value);
      }
    } else if (is_alpha(c) || c == '_') {
      while (pos < text.size() && is_ident(text[pos])) ++pos;
      std::string_view name = text.substr(term, pos - term);
      i64 merged;
      if (__builtin_add_overflow(result.coef(name), sign, &merged)) {
        fail(term, "coefficient out of range");
      }
      result.add_term(name, sign);
    } else {
      fail(pos, std::string("unexpected character '") + c + "'");
    }
    sign = 1;
    expect_term = false;
  }
  if (expect_term) fail(pos, "dangling operator");
  return result;
}

/// A line:column position for error messages (both 1-based).
struct Pos {
  int line = 1;
  std::size_t column = 1;
};

/// Single-pass reader of `.mhla` text: walks the lines of one string_view
/// and hands out each line's whitespace-separated tokens as views into it.
/// Nothing is copied until a name is stored in the IR.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Advance to the next line holding a token that is not a comment; false
  /// at the end of the text.  A line is trimmed of leading blanks and tabs
  /// and of trailing blanks, tabs and CRs; after the trim, a line starting
  /// with '#' is a comment.
  bool next_line() {
    while (next_ < text_.size()) {
      std::size_t start = next_;
      std::size_t newline = text_.find('\n', start);
      std::size_t end = newline == std::string_view::npos ? text_.size() : newline;
      next_ = end + 1;
      ++line_no_;
      std::string_view raw = text_.substr(start, end - start);
      std::size_t first = raw.find_first_not_of(" \t");
      std::size_t last = raw.find_last_not_of(" \t\r");
      if (first == std::string_view::npos || last == std::string_view::npos) continue;
      line_start_ = start;
      line_ = raw.substr(first, last - first + 1);
      cursor_ = 0;
      if (line_[0] == '#' || token().empty()) continue;  // comment, or e.g. "\v" alone
      cursor_ = 0;
      return true;
    }
    return false;
  }

  /// The current trimmed line.
  std::string_view line() const { return line_; }

  /// The next token of the current line; empty at the end of the line.
  std::string_view token() {
    while (cursor_ < line_.size() && is_space(line_[cursor_])) ++cursor_;
    std::size_t start = cursor_;
    while (cursor_ < line_.size() && !is_space(line_[cursor_])) ++cursor_;
    return line_.substr(start, cursor_ - start);
  }

  /// Read the rest of the line into `out`; returns how many tokens were
  /// left, so a count above N means extra tokens.
  template <std::size_t N>
  std::size_t rest(std::string_view (&out)[N]) {
    std::size_t count = 0;
    for (std::string_view tok = token(); !tok.empty(); tok = token()) {
      if (count < N) out[count] = tok;
      ++count;
    }
    return count;
  }

  /// Position of a character of the current line.
  Pos where(const char* at) const {
    return {line_no_, static_cast<std::size_t>(at - text_.data()) - line_start_ + 1};
  }

  [[noreturn]] void fail(std::string_view at, const std::string& why) const {
    fail_at(where(at.data()), why);
  }

  [[noreturn]] static void fail_at(Pos pos, const std::string& why) {
    throw std::invalid_argument("parse_program: line " + std::to_string(pos.line) + ":" +
                                std::to_string(pos.column) + ": " + why);
  }

  /// A whole token as a base-10 i64 with an optional sign.
  i64 number(std::string_view token, const char* what) const {
    auto malformed = [&] {
      fail(token, std::string("expected ") + what + ", got '" + std::string(token) + "'");
    };
    std::string_view digits = token;
    if (!digits.empty() && digits[0] == '+') {
      digits.remove_prefix(1);
      if (digits.empty() || !is_digit(digits[0])) malformed();  // "+-5"
    }
    i64 value = 0;
    auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec == std::errc::result_out_of_range) {
      fail(token, std::string(what) + " '" + std::string(token) + "' out of range");
    }
    if (ec != std::errc{} || end != digits.data() + digits.size()) malformed();
    return value;
  }

  /// The affine expression of a `[...]` token.
  AffineExpr subscript(std::string_view token) const {
    std::string_view inner = token.substr(1, token.size() - 2);
    return parse_affine_with(inner, [&](std::size_t offset, const std::string& why) {
      fail(inner.substr(offset), why + " in subscript '" + std::string(token) + "'");
    });
  }

 private:
  std::string_view text_;
  std::size_t next_ = 0;        ///< offset of the next unread line
  std::size_t line_start_ = 0;  ///< offset of the current line
  int line_no_ = 0;             ///< 1-based number of the current line
  std::string_view line_;       ///< the current line, trimmed
  std::size_t cursor_ = 0;      ///< read position inside line_
};

// `read|write <array> [<affine>]... [x<count>]`, after the keyword.
ArrayAccess parse_access(Lexer& lex, std::string_view keyword) {
  ArrayAccess access;
  access.kind = keyword == "read" ? AccessKind::Read : AccessKind::Write;
  std::string_view name = lex.token();
  if (name.empty()) lex.fail(keyword, "access needs an array name");
  access.array = std::string(name);
  std::string_view line = lex.line();
  access.index.reserve(static_cast<std::size_t>(std::count(line.begin(), line.end(), '[')));
  for (std::string_view tok = lex.token(); !tok.empty(); tok = lex.token()) {
    if (tok.size() >= 2 && tok.front() == '[' && tok.back() == ']') {
      access.index.push_back(lex.subscript(tok));
    } else if (tok.size() >= 2 && tok[0] == 'x' && is_digit(tok[1])) {
      access.count = lex.number(tok.substr(1), "access count");
    } else {
      lex.fail(tok, "unexpected access token '" + std::string(tok) + "'");
    }
  }
  return access;
}

// `array <name> <dim>... : elem <bytes> [input] [output]`, after the keyword.
ArrayDecl parse_array(Lexer& lex, std::string_view keyword) {
  ArrayDecl decl;
  std::string_view name = lex.token();
  if (name.empty()) lex.fail(keyword, "malformed array declaration");
  decl.name = std::string(name);
  std::string_view tok = lex.token();
  for (; !tok.empty() && tok != ":"; tok = lex.token()) {
    decl.dims.push_back(lex.number(tok, "array extent"));
  }
  std::string_view elem = lex.token();
  std::string_view bytes = lex.token();
  if (tok != ":" || elem != "elem" || bytes.empty()) {
    lex.fail(keyword, "array declaration missing ': elem <bytes>'");
  }
  decl.elem_bytes = lex.number(bytes, "element bytes");
  for (tok = lex.token(); !tok.empty(); tok = lex.token()) {
    if (tok == "input") {
      decl.is_input = true;
    } else if (tok == "output") {
      decl.is_output = true;
    } else {
      lex.fail(tok, "unknown array flag '" + std::string(tok) + "'");
    }
  }
  return decl;
}

}  // namespace

AffineExpr parse_affine(std::string_view text) {
  return parse_affine_with(text, [&](std::size_t offset, const std::string& why) {
    throw std::invalid_argument("parse_affine: " + why + " in '" + std::string(text) +
                                "' at offset " + std::to_string(offset));
  });
}

namespace {

void serialize_node(std::string& out, const Node& node, std::size_t depth) {
  const std::string pad(2 * depth, ' ');
  if (node.is_loop()) {
    const LoopNode& loop = node.as_loop();
    append(out, pad, "loop ", loop.iter(), ' ', loop.lower(), ' ', loop.upper(), ' ',
           loop.step(), " {\n");
    for (const NodePtr& child : loop.body()) serialize_node(out, *child, depth + 1);
    append(out, pad, "}\n");
    return;
  }
  const StmtNode& stmt = node.as_stmt();
  append(out, pad, "stmt ", stmt.name(), " ops ", stmt.op_cycles(), " {\n");
  for (const ArrayAccess& access : stmt.accesses()) {
    append(out, pad, access.kind == AccessKind::Read ? "  read " : "  write ", access.array);
    for (const AffineExpr& index : access.index) {
      out += " [";
      append_affine(out, index);
      out += ']';
    }
    if (access.count != 1) append(out, " x", access.count);
    out += '\n';
  }
  append(out, pad, "}\n");
}

}  // namespace

std::string serialize(const Program& program) {
  std::string out;
  append(out, "program ", program.name(), '\n');
  for (const ArrayDecl& array : program.arrays()) {
    append(out, "array ", array.name);
    for (i64 d : array.dims) append(out, ' ', d);
    append(out, " : elem ", array.elem_bytes);
    if (array.is_input) out += " input";
    if (array.is_output) out += " output";
    out += '\n';
  }
  for (const NodePtr& top : program.top()) serialize_node(out, *top, 0);
  return out;
}

Program parse_program(std::string_view text) {
  Lexer lex(text);
  if (!lex.next_line()) Lexer::fail_at({}, "expected 'program <name>' header");
  std::string_view header[3];
  if (lex.rest(header) != 2 || header[0] != "program") {
    lex.fail(lex.line(), "expected 'program <name>' header");
  }
  Program program{std::string(header[1])};

  // The open loops, innermost last, with where each was opened; a statement
  // body is open while `stmt` is set.  Nodes are linked into their parent as
  // soon as their header is read.
  struct Open {
    LoopNode* loop;
    Pos where;
  };
  std::vector<Open> open;
  StmtNode* stmt = nullptr;
  Pos stmt_where;
  auto link = [&](NodePtr node) {
    if (open.empty()) {
      program.append_top(std::move(node));
    } else {
      open.back().loop->append(std::move(node));
    }
  };

  while (lex.next_line()) {
    if (lex.line() == "}" && (stmt || !open.empty())) {
      if (stmt) {
        stmt = nullptr;
      } else {
        open.pop_back();
      }
      continue;
    }
    std::string_view keyword = lex.token();
    if (stmt) {
      if (keyword != "read" && keyword != "write") {
        lex.fail(keyword, "expected read/write inside stmt, got '" + std::string(keyword) + "'");
      }
      stmt->add_access(parse_access(lex, keyword));
    } else if (keyword == "array" && open.empty()) {
      Pos where = lex.where(keyword.data());
      ArrayDecl decl = parse_array(lex, keyword);
      try {
        program.add_array(std::move(decl));
      } catch (const std::invalid_argument& e) {
        Lexer::fail_at(where, e.what());
      }
    } else if (keyword == "loop") {
      // loop <iter> <lower> <upper> <step> {
      std::string_view h[5];
      if (lex.rest(h) != 5 || h[4] != "{") lex.fail(keyword, "malformed loop header");
      if (open.size() >= kMaxNesting) {
        lex.fail(keyword, "loops nested deeper than " + std::to_string(kMaxNesting));
      }
      i64 lower = lex.number(h[1], "loop lower bound");
      i64 upper = lex.number(h[2], "loop upper bound");
      i64 step = lex.number(h[3], "loop step");
      auto loop = std::make_unique<LoopNode>(std::string(h[0]), lower, upper, step);
      LoopNode* raw = loop.get();
      link(std::move(loop));
      open.push_back({raw, lex.where(keyword.data())});
    } else if (keyword == "stmt") {
      // stmt <name> ops <cycles> {
      std::string_view h[4];
      if (lex.rest(h) != 4 || h[1] != "ops" || h[3] != "{") {
        lex.fail(keyword, "malformed stmt header");
      }
      auto made = std::make_unique<StmtNode>(std::string(h[0]), lex.number(h[2], "op cycles"));
      stmt = made.get();
      stmt_where = lex.where(keyword.data());
      link(std::move(made));
    } else {
      lex.fail(keyword, "expected loop/stmt, got '" + std::string(keyword) + "'");
    }
  }
  if (stmt) Lexer::fail_at(stmt_where, "unterminated stmt");
  if (!open.empty()) Lexer::fail_at(open.back().where, "unterminated loop");
  return program;
}

}  // namespace mhla::ir
