#pragma once

// The line-based `.mhla` parser the library shipped before its single-pass
// lexer, kept as the reference for the parser differential test
// (tests/ir/parser_differential_test.cpp).  It splits the text into lines,
// each line into whitespace tokens, and converts numbers with std::stoll.
//
// One change from the shipped code: a line made only of whitespace that
// the trim does not empty (e.g. " \r" or "\v") is skipped.  The shipped
// parser indexed the first token of such a line without checking it.

#include <string>

#include "ir/program.h"

namespace mhla::oracle {

/// Parse `.mhla` text; throws on malformed input (std::invalid_argument,
/// or std::stoll's std::out_of_range for oversized numbers).
ir::Program parse_program(const std::string& text);

/// Parse one affine expression, e.g. "16*by+y-3".
ir::AffineExpr parse_affine(const std::string& text);

}  // namespace mhla::oracle
