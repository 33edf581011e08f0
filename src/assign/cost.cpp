#include "assign/cost.h"

#include "ir/walk.h"

namespace mhla::assign {

std::vector<double> nest_cpu_cycles(const AssignContext& ctx, const Resolution& res) {
  std::vector<double> cycles(ctx.program.top().size(), 0.0);

  ir::walk_statements(ctx.program,
                      [&](int nest, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        cycles[static_cast<std::size_t>(nest)] +=
                            static_cast<double>(ir::iterations_of(path)) *
                            static_cast<double>(stmt.op_cycles());
                      });
  for (const analysis::AccessSite& site : ctx.sites) {
    int layer_idx = res.site_layer[static_cast<std::size_t>(site.id)];
    const mem::MemLayer& layer = ctx.hierarchy.layer(layer_idx);
    cycles[static_cast<std::size_t>(site.nest)] += static_cast<double>(site.dynamic_accesses()) *
                                                   layer.access_latency(site.is_write());
  }
  return cycles;
}

double loop_iteration_cpu_cycles(const AssignContext& ctx, const Resolution& res, int nest,
                                 const ir::LoopNode* loop) {
  double cycles = 0.0;

  auto inner_iterations = [&](const ir::LoopPath& path) -> i64 {
    // Iterations of everything strictly inside `loop` along `path`;
    // -1 signals that `loop` is not on this statement's path.
    i64 inner = 1;
    bool found = false;
    for (const ir::LoopNode* node : path) {
      if (found) inner *= node->trip();
      if (node == loop) found = true;
    }
    return found ? inner : -1;
  };

  ir::walk_statements(ctx.program,
                      [&](int n, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        if (n != nest) return;
                        i64 inner = inner_iterations(path);
                        if (inner < 0) return;
                        cycles += static_cast<double>(inner) *
                                  static_cast<double>(stmt.op_cycles());
                      });
  for (const analysis::AccessSite& site : ctx.sites) {
    if (site.nest != nest) continue;
    i64 inner = inner_iterations(site.path);
    if (inner < 0) continue;
    int layer_idx = res.site_layer[static_cast<std::size_t>(site.id)];
    const mem::MemLayer& layer = ctx.hierarchy.layer(layer_idx);
    cycles += static_cast<double>(inner * site.access->count) *
              layer.access_latency(site.is_write());
  }
  return cycles;
}

}  // namespace mhla::assign
