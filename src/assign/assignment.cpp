#include "assign/assignment.h"

#include <algorithm>
#include <stdexcept>

namespace mhla::assign {

int Assignment::copy_layer(int cc_id) const {
  for (const PlacedCopy& pc : copies) {
    if (pc.cc_id == cc_id) return pc.layer;
  }
  return -1;
}

int Assignment::layer_of(const std::string& array, int fallback) const {
  auto it = array_layer.find(array);
  return it == array_layer.end() ? fallback : it->second;
}

Assignment out_of_box(const AssignContext& ctx) {
  Assignment a;
  for (const ir::ArrayDecl& array : ctx.program.arrays()) {
    a.array_layer[array.name] = ctx.hierarchy.background();
  }
  return a;
}

bool cc_covers_site(const analysis::CopyCandidate& cc, const analysis::AccessSite& site) {
  if (cc.nest != site.nest) return false;
  if (cc.array_id != site.array_id) return false;
  if (site.path.size() < cc.prefix.size()) return false;
  for (std::size_t i = 0; i < cc.prefix.size(); ++i) {
    if (cc.prefix[i] != site.path[i]) return false;
  }
  return true;
}

bool cc_is_ancestor(const analysis::CopyCandidate& parent, const analysis::CopyCandidate& child) {
  if (parent.array_id != child.array_id || parent.nest != child.nest) return false;
  if (parent.level >= child.level) return false;
  for (std::size_t i = 0; i < parent.prefix.size(); ++i) {
    if (parent.prefix[i] != child.prefix[i]) return false;
  }
  return true;
}

namespace {

/// Layer of the parent store of `cc` under `assignment`: the deepest selected
/// ancestor CC, or the array's home layer.
int parent_layer_of(const AssignContext& ctx, const Assignment& assignment,
                    const analysis::CopyCandidate& cc) {
  int best_level = -1;
  int best_layer = assignment.layer_of(cc.array, ctx.hierarchy.background());
  for (const PlacedCopy& pc : assignment.copies) {
    const analysis::CopyCandidate& other = ctx.reuse.candidate(pc.cc_id);
    if (cc_is_ancestor(other, cc) && other.level > best_level) {
      best_level = other.level;
      best_layer = pc.layer;
    }
  }
  return best_layer;
}

}  // namespace

Resolution resolve(const AssignContext& ctx, const Assignment& assignment) {
  Resolution res;
  int background = ctx.hierarchy.background();

  for (const PlacedCopy& pc : assignment.copies) {
    if (pc.cc_id < 0 || pc.cc_id >= static_cast<int>(ctx.reuse.candidates().size())) {
      throw std::invalid_argument("resolve: unknown copy candidate id " +
                                  std::to_string(pc.cc_id));
    }
    if (pc.layer < 0 || pc.layer >= ctx.hierarchy.num_layers()) {
      throw std::invalid_argument("resolve: copy placed on unknown layer " +
                                  std::to_string(pc.layer));
    }
  }

  res.site_layer.assign(ctx.sites.size(), background);
  for (const analysis::AccessSite& site : ctx.sites) {
    int serving = assignment.layer_of(site.access->array, background);
    int best_level = -1;
    for (const PlacedCopy& pc : assignment.copies) {
      const analysis::CopyCandidate& cc = ctx.reuse.candidate(pc.cc_id);
      if (cc_covers_site(cc, site) && cc.level > best_level) {
        best_level = cc.level;
        serving = pc.layer;
      }
    }
    res.site_layer[static_cast<std::size_t>(site.id)] = serving;
  }

  for (const PlacedCopy& pc : assignment.copies) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(pc.cc_id);
    TransferEdge edge;
    edge.cc_id = pc.cc_id;
    edge.dst_layer = pc.layer;
    edge.src_layer = parent_layer_of(ctx, assignment, cc);
    edge.write_back = cc.has_writes();
    res.transfers.push_back(edge);
  }
  return res;
}

bool layering_valid(const AssignContext& ctx, const Assignment& assignment) {
  Resolution res = resolve(ctx, assignment);
  return std::all_of(res.transfers.begin(), res.transfers.end(),
                     [](const TransferEdge& e) { return e.dst_layer < e.src_layer; });
}

std::vector<PinnedTraffic> pinned_array_traffic(const AssignContext& ctx,
                                                const Assignment& assignment) {
  std::vector<PinnedTraffic> traffic;
  int background = ctx.hierarchy.background();
  for (const ir::ArrayDecl& array : ctx.program.arrays()) {
    int home = assignment.layer_of(array.name, background);
    if (home == background) continue;
    if (array.is_input) traffic.push_back({&array, home, true});
    if (array.is_output) traffic.push_back({&array, home, false});
  }
  return traffic;
}

int drop_invalid_copies(const AssignContext& ctx, Assignment& assignment) {
  int dropped = 0;
  for (;;) {
    Resolution res = resolve(ctx, assignment);
    std::vector<int> offenders;
    for (const TransferEdge& edge : res.transfers) {
      if (edge.dst_layer >= edge.src_layer) offenders.push_back(edge.cc_id);
    }
    if (offenders.empty()) return dropped;
    std::erase_if(assignment.copies, [&](const PlacedCopy& pc) {
      return std::find(offenders.begin(), offenders.end(), pc.cc_id) != offenders.end();
    });
    dropped += static_cast<int>(offenders.size());
  }
}

}  // namespace mhla::assign
