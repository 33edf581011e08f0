#pragma once

#include <vector>

#include "ir/program.h"
#include "ir/walk.h"

namespace mhla::analysis {

using ir::i64;

/// One static array reference in its full loop context.
struct AccessSite {
  int id = 0;                    ///< dense index over the whole program
  int nest = 0;                  ///< top-level node index (program time axis)
  ir::LoopPath path;             ///< enclosing loops, outermost first
  const ir::StmtNode* stmt = nullptr;
  const ir::ArrayAccess* access = nullptr;
  const ir::ArrayDecl* array = nullptr;
  int array_id = -1;             ///< index of `array` in Program::arrays(), -1 if undeclared

  /// Dynamic executions of the statement instance.
  i64 iterations() const { return ir::iterations_of(path); }

  /// Total dynamic accesses issued by this site.
  i64 dynamic_accesses() const { return iterations() * access->count; }

  bool is_read() const { return access->kind == ir::AccessKind::Read; }
  bool is_write() const { return access->kind == ir::AccessKind::Write; }
};

/// Collect every access site of the program, in program order.
/// Pointers remain valid as long as the Program is alive and unmodified.
std::vector<AccessSite> collect_sites(const ir::Program& program);

}  // namespace mhla::analysis
