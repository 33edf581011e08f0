#pragma once

#include <string>
#include <vector>

#include "ir/program.h"

namespace mhla::ir {

/// One validation problem, with a human-readable description.
struct ValidationIssue {
  std::string message;
};

/// Structural validation of a program:
///  * every access names a declared array,
///  * subscript rank matches array rank,
///  * every subscript variable is bound by an enclosing loop,
///  * loop trip counts are positive and fit i64,
///  * a statement's dynamic access count fits i64,
///  * extreme subscript values stay inside the array extents
///    (bounding-box check over the enclosing loop ranges), computed with
///    checked arithmetic: a subscript whose range overflows i64 is an
///    issue, never a wrapped value that passes the bounds check.
std::vector<ValidationIssue> validate(const Program& program);

/// Throws std::invalid_argument listing all issues if validation fails.
void validate_or_throw(const Program& program);

}  // namespace mhla::ir
