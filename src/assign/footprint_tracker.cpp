#include "assign/footprint_tracker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mhla::assign {

FootprintTracker::FootprintTracker(const AssignContext& ctx)
    : FootprintTracker(ctx, out_of_box(ctx)) {}

FootprintTracker::FootprintTracker(const AssignContext& ctx, const Assignment& assignment,
                                   const std::vector<CopyExtension>& extensions)
    : ctx_(ctx),
      num_layers_(ctx.hierarchy.num_layers()),
      num_nests_(static_cast<int>(ctx.program.top().size())),
      background_(ctx.hierarchy.background()),
      row_(static_cast<std::size_t>(std::max(num_nests_, 1))) {
  layer_capacity_.resize(static_cast<std::size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    const mem::MemLayer& layer = ctx_.hierarchy.layer(l);
    layer_capacity_[static_cast<std::size_t>(l)] = layer.unbounded() ? 0 : layer.capacity_bytes;
  }

  const auto& arrays = ctx_.program.arrays();
  array_bytes_.resize(arrays.size());
  array_first_.assign(arrays.size(), 0);
  array_last_.assign(arrays.size(), -1);  // dead unless a live range says otherwise
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    array_bytes_[a] = arrays[a].bytes();
    auto it = ctx_.live.find(arrays[a].name);
    if (it == ctx_.live.end() || analysis::is_dead(it->second)) continue;
    // Clip to the matrix exactly like compute_footprints' loop bounds.
    array_first_[a] = std::max(it->second.first, 0);
    array_last_[a] = std::min(it->second.last, num_nests_ - 1);
  }

  const auto& candidates = ctx_.reuse.candidates();
  cc_nest_.resize(candidates.size());
  cc_bytes_.resize(candidates.size());
  for (const analysis::CopyCandidate& cc : candidates) {
    std::size_t c = static_cast<std::size_t>(cc.id);
    cc_nest_[c] = cc.nest;
    cc_bytes_[c] = cc.bytes;
  }

  // Size the undo arena so steady-state move/undo traffic (searches, TE
  // freedom-unit loops, work-stealing engine reuse) never regrows it.
  undo_.reserve(64 + 4 * candidates.size() + 2 * arrays.size());

  load(assignment, extensions);
}

std::size_t FootprintTracker::array_index(const std::string& name) const {
  const ir::ArrayDecl* array = ctx_.program.find_array(name);
  if (!array) throw std::invalid_argument("FootprintTracker: unknown array " + name);
  return static_cast<std::size_t>(array - ctx_.program.arrays().data());
}

void FootprintTracker::validate_copy(int cc_id, int layer) const {
  if (cc_id < 0 || static_cast<std::size_t>(cc_id) >= cc_nest_.size()) {
    throw std::invalid_argument("FootprintTracker: unknown copy candidate id " +
                                std::to_string(cc_id));
  }
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("FootprintTracker: copy placed on unknown layer " +
                                std::to_string(layer));
  }
}

void FootprintTracker::add_cell(int layer, int nest, i64 delta) {
  std::size_t idx = static_cast<std::size_t>(layer) * row_ + static_cast<std::size_t>(nest);
  i64 capacity = layer_capacity_[static_cast<std::size_t>(layer)];
  i64& cell = usage_[idx];
  if (capacity > 0) {
    bool was_over = cell > capacity;
    cell += delta;
    bool is_over = cell > capacity;
    overfull_cells_ += static_cast<long>(is_over) - static_cast<long>(was_over);
  } else {
    cell += delta;
  }
}

void FootprintTracker::apply_copy(std::size_t c, int sign) {
  int nest = cc_nest_[c];
  int layer = cc_layer_[c];
  i64 bytes = cc_bytes_[c];
  int ext_start = cc_ext_start_[c];
  int start = ext_start >= 0 ? std::min(nest, ext_start) : nest;
  i64 buffers = 1 + cc_ext_buffers_[c];
  for (int t = start; t <= nest && t < num_nests_; ++t) {
    if (t < 0) continue;
    // Multi-buffering only matters during the copy's own nest; the
    // prefetch tail occupies one buffer (same rule as compute_footprints).
    i64 cell_bytes = (t == nest) ? bytes * buffers : bytes;
    add_cell(layer, t, sign * cell_bytes);
  }
}

void FootprintTracker::apply_array(std::size_t a, int layer, int sign) {
  i64 bytes = array_bytes_[a];
  for (int t = array_first_[a]; t <= array_last_[a]; ++t) {
    add_cell(layer, t, sign * bytes);
  }
}

void FootprintTracker::load(const Assignment& assignment,
                            const std::vector<CopyExtension>& extensions) {
  undo_.clear();
  usage_.assign(static_cast<std::size_t>(num_layers_) * row_, 0);
  overfull_cells_ = 0;

  const auto& arrays = ctx_.program.arrays();
  home_.resize(arrays.size());
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    home_[a] = assignment.layer_of(arrays[a].name, background_);
    apply_array(a, home_[a], +1);
  }

  cc_layer_.assign(cc_nest_.size(), -1);
  cc_ext_start_.assign(cc_nest_.size(), -1);
  cc_ext_buffers_.assign(cc_nest_.size(), 0);
  for (const PlacedCopy& pc : assignment.copies) {
    validate_copy(pc.cc_id, pc.layer);
    std::size_t c = static_cast<std::size_t>(pc.cc_id);
    if (cc_layer_[c] >= 0) {
      throw std::invalid_argument("FootprintTracker: duplicate copy candidate " +
                                  std::to_string(pc.cc_id));
    }
    cc_layer_[c] = pc.layer;
    // Fold every matching extension entry like compute_footprints: earliest
    // start wins, extra buffers accumulate.
    int start = cc_nest_[c];
    for (const CopyExtension& ext : extensions) {
      if (ext.cc_id != pc.cc_id) continue;
      if (ext.start_nest >= 0) start = std::min(start, ext.start_nest);
      cc_ext_buffers_[c] += ext.extra_buffers;
    }
    if (start < cc_nest_[c]) cc_ext_start_[c] = start;
    apply_copy(c, +1);
  }
}

void FootprintTracker::place_copy(int cc_id, int layer) {
  validate_copy(cc_id, layer);
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (cc_layer_[c] >= 0) {
    throw std::invalid_argument("FootprintTracker: candidate already placed " +
                                std::to_string(cc_id));
  }
  cc_layer_[c] = layer;
  apply_copy(c, +1);
  undo_.push_back({UndoRec::Kind::Place, cc_id, 0, 0, 0});
}

void FootprintTracker::remove_copy(int cc_id) {
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (cc_id < 0 || c >= cc_layer_.size() || cc_layer_[c] < 0) {
    throw std::invalid_argument("FootprintTracker: candidate not placed " +
                                std::to_string(cc_id));
  }
  undo_.push_back({UndoRec::Kind::Remove, cc_id, cc_layer_[c], cc_ext_start_[c],
                   cc_ext_buffers_[c]});
  apply_copy(c, -1);
  cc_layer_[c] = -1;
  cc_ext_start_[c] = -1;
  cc_ext_buffers_[c] = 0;
}

void FootprintTracker::set_home(const std::string& array, int layer) {
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("FootprintTracker: home on unknown layer " +
                                std::to_string(layer));
  }
  set_home(array_index(array), layer);
}

void FootprintTracker::set_home(std::size_t array_index, int layer) {
  assert(array_index < home_.size() && "FootprintTracker: unknown array id");
  assert(layer >= 0 && layer < num_layers_ && "FootprintTracker: home on unknown layer");
  if (home_[array_index] == layer) return;
  undo_.push_back({UndoRec::Kind::Home, static_cast<int>(array_index), home_[array_index], 0, 0});
  apply_array(array_index, home_[array_index], -1);
  home_[array_index] = layer;
  apply_array(array_index, layer, +1);
}

void FootprintTracker::extend_copy(int cc_id, int start_nest, int extra_buffers) {
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (cc_id < 0 || c >= cc_layer_.size() || cc_layer_[c] < 0) {
    throw std::invalid_argument("FootprintTracker: extending unplaced candidate " +
                                std::to_string(cc_id));
  }
  undo_.push_back({UndoRec::Kind::Extend, cc_id, 0, cc_ext_start_[c], cc_ext_buffers_[c]});
  apply_copy(c, -1);
  cc_ext_start_[c] = (start_nest >= 0 && start_nest < cc_nest_[c]) ? start_nest : -1;
  cc_ext_buffers_[c] = extra_buffers;
  apply_copy(c, +1);
}

void FootprintTracker::undo_one() {
  const UndoRec rec = undo_.back();
  undo_.pop_back();
  std::size_t c = static_cast<std::size_t>(rec.a);
  switch (rec.kind) {
    case UndoRec::Kind::Place:
      apply_copy(c, -1);
      cc_layer_[c] = -1;
      break;
    case UndoRec::Kind::Remove:
      cc_layer_[c] = rec.b;
      cc_ext_start_[c] = rec.c;
      cc_ext_buffers_[c] = rec.d;
      apply_copy(c, +1);
      break;
    case UndoRec::Kind::Home:
      apply_array(c, home_[c], -1);
      home_[c] = rec.b;
      apply_array(c, rec.b, +1);
      break;
    case UndoRec::Kind::Extend:
      apply_copy(c, -1);
      cc_ext_start_[c] = rec.c;
      cc_ext_buffers_[c] = rec.d;
      apply_copy(c, +1);
      break;
  }
}

void FootprintTracker::undo_to(Checkpoint mark) {
  while (undo_.size() > mark) undo_one();
}

bool FootprintTracker::feasible_with_copy(int cc_id, int layer) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  assert(cc_id >= 0 && c < cc_nest_.size() && "FootprintTracker: unknown copy candidate id");
  assert(layer >= 0 && layer < num_layers_ && "FootprintTracker: copy placed on unknown layer");
  long over = overfull_cells_;
  int nest = cc_nest_[c];
  // Mirrors apply_copy with no extension: exactly one cell — (layer, own
  // nest) — gains the copy's bytes, when that nest exists at all.
  if (nest >= 0 && nest < num_nests_) {
    i64 capacity = layer_capacity_[static_cast<std::size_t>(layer)];
    if (capacity > 0) {
      i64 cell = usage(layer, nest);
      over += static_cast<long>(cell + cc_bytes_[c] > capacity) - static_cast<long>(cell > capacity);
    }
  }
  return over == 0;
}

i64 FootprintTracker::peak(int layer) const {
  if (num_nests_ <= 0) return 0;
  auto begin = usage_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(layer) * row_);
  return *std::max_element(begin, begin + num_nests_);
}

FootprintReport FootprintTracker::report() const {
  FootprintReport report;
  report.usage.resize(static_cast<std::size_t>(num_layers_));
  report.peak_bytes.resize(static_cast<std::size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    auto begin = usage_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(l) * row_);
    report.usage[static_cast<std::size_t>(l)].assign(begin, begin + static_cast<std::ptrdiff_t>(row_));
    // compute_footprints takes the max over the whole (padded) row, whose
    // pad cells are always zero, so the padded max equals the clipped max.
    report.peak_bytes[static_cast<std::size_t>(l)] =
        *std::max_element(begin, begin + static_cast<std::ptrdiff_t>(row_));
  }
  report.feasible = feasible();
  return report;
}

}  // namespace mhla::assign
