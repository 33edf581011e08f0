#include "analysis/sites.h"

namespace mhla::analysis {

std::vector<AccessSite> collect_sites(const ir::Program& program) {
  std::vector<AccessSite> sites;
  ir::walk_statements(program, [&](int nest, const ir::LoopPath& path, const ir::StmtNode& stmt) {
    for (const ir::ArrayAccess& access : stmt.accesses()) {
      AccessSite site;
      site.id = static_cast<int>(sites.size());
      site.nest = nest;
      site.path = path;
      site.stmt = &stmt;
      site.access = &access;
      site.array = program.find_array(access.array);
      if (site.array) site.array_id = static_cast<int>(site.array - program.arrays().data());
      sites.push_back(std::move(site));
    }
  });
  return sites;
}

}  // namespace mhla::analysis
