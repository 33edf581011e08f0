#pragma once

#include <string>
#include <string_view>

#include "ir/program.h"

namespace mhla::ir {

/// Plain-text program format, round-trippable through parse_program():
///
///   program motion_estimation
///   array cur 144 176 : elem 1 input
///   array mv 9 11 : elem 2 output
///   loop by 0 9 1 {
///     loop y 0 16 1 {
///       stmt sad ops 2 {
///         read cur [16*by+y] [x]
///         write mv [by] [bx] x3
///       }
///     }
///   }
///
/// One declaration per line; loops close with a bare '}'.  Affine
/// subscripts are written without spaces: `16*by+y-3`.  The optional
/// trailing `xN` on an access is the per-instance access count.
///
/// The ATOMIUM front end the paper used consumed (pruned) C source; this
/// format is our substitution for an external application-description
/// boundary (see DESIGN.md).
std::string serialize(const Program& program);

/// Parse the format back in one pass over `text`.  Every malformed input
/// throws std::invalid_argument whose message names the line and column
/// ("parse_program: line 3:14: ..."): bad syntax, a number that is not a
/// whole base-10 token or does not fit i64, loops nested deeper than 256,
/// and declarations `Program::add_array` rejects.
/// `serialize(parse_program(serialize(p)))` is the identity for every valid
/// program.
Program parse_program(std::string_view text);

/// Parse one affine expression, e.g. "16*by+y-3".  Exposed for tests.
AffineExpr parse_affine(std::string_view text);

/// Serialize one affine expression in the compact format.
std::string format_affine(const AffineExpr& expr);

}  // namespace mhla::ir
