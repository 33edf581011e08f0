#include "oracle/trace.h"

#include <algorithm>
#include <unordered_set>

namespace mhla::oracle {

namespace {

/// Flatten a concrete subscript tuple to a linear element offset;
/// returns -1 if out of bounds.
i64 flatten(const ir::ArrayDecl& array, const std::vector<i64>& subscript) {
  i64 offset = 0;
  for (int dim = 0; dim < array.rank(); ++dim) {
    i64 value = subscript[static_cast<std::size_t>(dim)];
    if (value < 0 || value >= array.dims[static_cast<std::size_t>(dim)]) return -1;
    offset = offset * array.dims[static_cast<std::size_t>(dim)] + value;
  }
  return offset;
}

struct Enumerator {
  const ir::Program& program;
  i64 max_instances;
  ExactCounts counts;
  std::map<std::string, i64> binding;
  std::map<std::string, std::unordered_set<i64>> touched;

  void execute_stmt(const ir::StmtNode& stmt) {
    ++counts.statement_instances;
    for (const ir::ArrayAccess& access : stmt.accesses()) {
      const ir::ArrayDecl* array = program.find_array(access.array);
      counts.dynamic_accesses += access.count;
      counts.accesses_per_array[access.array] += access.count;
      if (!array) {
        counts.in_bounds = false;
        continue;
      }
      std::vector<i64> subscript;
      subscript.reserve(access.index.size());
      for (const ir::AffineExpr& expr : access.index) {
        subscript.push_back(expr.evaluate(binding));
      }
      i64 offset = flatten(*array, subscript);
      if (offset < 0) {
        counts.in_bounds = false;
      } else {
        touched[access.array].insert(offset);
      }
    }
  }

  void run(const ir::Node& node) {
    if (counts.truncated) return;
    if (node.is_stmt()) {
      if (counts.statement_instances >= max_instances) {
        counts.truncated = true;
        return;
      }
      execute_stmt(node.as_stmt());
      return;
    }
    const ir::LoopNode& loop = node.as_loop();
    for (i64 value = loop.lower(); value < loop.upper(); value += loop.step()) {
      binding[loop.iter()] = value;
      for (const ir::NodePtr& child : loop.body()) run(*child);
      if (counts.truncated) break;
    }
    binding.erase(loop.iter());
  }
};

}  // namespace

ExactCounts enumerate_program(const ir::Program& program, i64 max_instances) {
  Enumerator enumerator{program, max_instances, {}, {}, {}};
  for (const ir::NodePtr& top : program.top()) enumerator.run(*top);
  for (const auto& [array, elements] : enumerator.touched) {
    enumerator.counts.distinct_elements[array] = static_cast<i64>(elements.size());
  }
  return enumerator.counts;
}

i64 exact_footprint_elems(const ir::Program& /*program*/, const analysis::AccessSite& site,
                          std::size_t fixed) {
  fixed = std::min(fixed, site.path.size());

  // Enumerate every combination of the fixed outer iterators; for each,
  // walk the varying inner loops and count distinct elements.
  const ir::ArrayDecl& array = *site.array;
  i64 worst = 0;
  std::map<std::string, i64> binding;

  // Recursive enumeration of the fixed prefix.
  auto inner = [&](auto&& self, std::size_t level) -> void {
    if (level < fixed) {
      const ir::LoopNode& loop = *site.path[level];
      for (i64 value = loop.lower(); value < loop.upper(); value += loop.step()) {
        binding[loop.iter()] = value;
        self(self, level + 1);
      }
      binding.erase(loop.iter());
      return;
    }
    // Varying part: enumerate loops fixed..end, evaluating the access.
    std::unordered_set<i64> touched;
    auto vary = [&](auto&& vself, std::size_t vlevel) -> void {
      if (vlevel == site.path.size()) {
        std::vector<i64> subscript;
        for (const ir::AffineExpr& expr : site.access->index) {
          subscript.push_back(expr.evaluate(binding));
        }
        i64 offset = flatten(array, subscript);
        if (offset >= 0) touched.insert(offset);
        return;
      }
      const ir::LoopNode& loop = *site.path[vlevel];
      for (i64 value = loop.lower(); value < loop.upper(); value += loop.step()) {
        binding[loop.iter()] = value;
        vself(vself, vlevel + 1);
      }
      binding.erase(loop.iter());
    };
    vary(vary, fixed);
    worst = std::max(worst, static_cast<i64>(touched.size()));
  };
  inner(inner, 0);
  return worst;
}

}  // namespace mhla::oracle
