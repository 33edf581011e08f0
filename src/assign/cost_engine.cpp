#include "assign/cost_engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ir/walk.h"

namespace mhla::assign {

CostEngine::CostEngine(const AssignContext& ctx)
    : ctx_(ctx),
      num_layers_(ctx.hierarchy.num_layers()),
      background_(ctx.hierarchy.background()),
      footprint_(ctx) {
  const std::size_t L = static_cast<std::size_t>(num_layers_);

  // Assignment-independent compute cycles: one IR walk, accumulated exactly
  // like oracle::estimate_cost so the cached value is bit-identical.
  ir::walk_statements(ctx_.program,
                      [&](int /*nest*/, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        compute_cycles_ += static_cast<double>(ir::iterations_of(path)) *
                                           static_cast<double>(stmt.op_cycles());
                      });

  // Array catalog.
  const auto& arrays = ctx_.program.arrays();
  array_input_.resize(arrays.size());
  array_output_.resize(arrays.size());
  array_elems_.resize(arrays.size());
  pin_fill_energy_.assign(arrays.size() * L, 0.0);
  pin_fill_cycles_.assign(arrays.size() * L, 0.0);
  pin_flush_energy_.assign(arrays.size() * L, 0.0);
  pin_flush_cycles_.assign(arrays.size() * L, 0.0);
  const mem::MemLayer& bg = ctx_.hierarchy.layer(background_);
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    array_input_[a] = arrays[a].is_input;
    array_output_[a] = arrays[a].is_output;
    array_elems_[a] = arrays[a].elems();
    double elems = static_cast<double>(arrays[a].elems());
    for (int home = 0; home < background_; ++home) {
      const mem::MemLayer& hl = ctx_.hierarchy.layer(home);
      std::size_t idx = a * L + static_cast<std::size_t>(home);
      pin_fill_energy_[idx] = elems * (bg.access_energy_nj(false) + hl.access_energy_nj(true));
      pin_fill_cycles_[idx] = mem::blocking_transfer_cycles(arrays[a].bytes(), bg, hl, ctx_.dma);
      pin_flush_energy_[idx] = elems * (hl.access_energy_nj(false) + bg.access_energy_nj(true));
      pin_flush_cycles_[idx] = mem::blocking_transfer_cycles(arrays[a].bytes(), hl, bg, ctx_.dma);
    }
  }

  // Per-site terms for every possible serving layer.
  const std::size_t S = ctx_.sites.size();
  site_n_.resize(S);
  site_write_.resize(S);
  site_array_.resize(S);
  site_energy_.assign(S * L, 0.0);
  site_cycles_.assign(S * L, 0.0);
  for (const analysis::AccessSite& site : ctx_.sites) {
    std::size_t s = static_cast<std::size_t>(site.id);
    if (site.array_id < 0) {
      throw std::invalid_argument("CostEngine: unknown array " + site.access->array);
    }
    i64 n = site.dynamic_accesses();
    bool is_write = site.is_write();
    site_n_[s] = n;
    site_write_[s] = is_write;
    site_array_[s] = static_cast<std::size_t>(site.array_id);
    for (int l = 0; l < num_layers_; ++l) {
      const mem::MemLayer& layer = ctx_.hierarchy.layer(l);
      site_energy_[s * L + static_cast<std::size_t>(l)] =
          static_cast<double>(n) * layer.access_energy_nj(is_write);
      site_cycles_[s * L + static_cast<std::size_t>(l)] =
          static_cast<double>(n) * layer.access_latency(is_write);
    }
  }

  // Array -> sites, in site-id order (a migrate re-serves its array's sites).
  array_sites_off_.assign(arrays.size() + 1, 0);
  for (std::size_t a : site_array_) ++array_sites_off_[a + 1];
  for (std::size_t a = 0; a < arrays.size(); ++a) array_sites_off_[a + 1] += array_sites_off_[a];
  array_sites_items_.resize(S);
  std::vector<std::size_t> array_next(array_sites_off_.begin(), array_sites_off_.end() - 1);
  for (std::size_t s = 0; s < S; ++s) {
    array_sites_items_[array_next[site_array_[s]]++] = static_cast<int>(s);
  }

  // Per-candidate structure and transfer terms for every layer pair.  A
  // candidate covers exactly its member sites (same array, nest and fixed
  // loops), so the member lists are the candidate -> sites rows.
  const auto& candidates = ctx_.reuse.candidates();
  const std::size_t C = candidates.size();
  cc_level_.resize(C);
  cc_fill_free_.resize(C);
  cc_write_back_.resize(C);
  cc_elems_moved_.resize(C);
  cc_array_.resize(C);
  cc_sites_off_.assign(C + 1, 0);
  cc_sites_items_.clear();
  fill_energy_.assign(C * L * L, 0.0);
  wb_energy_.assign(C * L * L, 0.0);
  xfer_cycles_.assign(C * L * L, 0.0);
  for (const analysis::CopyCandidate& cc : candidates) {
    std::size_t c = static_cast<std::size_t>(cc.id);
    cc_level_[c] = cc.level;
    cc_fill_free_[c] = cc.fill_free;
    cc_write_back_[c] = cc.has_writes();
    cc_elems_moved_[c] = cc.transfers * cc.elems_per_transfer;
    cc_array_[c] = static_cast<std::size_t>(cc.array_id);
    cc_sites_items_.insert(cc_sites_items_.end(), cc.site_ids.begin(), cc.site_ids.end());
    cc_sites_off_[c + 1] = cc_sites_items_.size();
    double fills = static_cast<double>(cc_elems_moved_[c]);
    for (int src = 0; src < num_layers_; ++src) {
      const mem::MemLayer& sl = ctx_.hierarchy.layer(src);
      for (int dst = 0; dst < num_layers_; ++dst) {
        const mem::MemLayer& dl = ctx_.hierarchy.layer(dst);
        std::size_t idx = table_index(cc.id, src, dst);
        double per_issue = mem::blocking_transfer_cycles(cc.bytes_per_transfer(), sl, dl, ctx_.dma);
        fill_energy_[idx] = fills * (sl.access_energy_nj(false) + dl.access_energy_nj(true));
        wb_energy_[idx] = fills * (dl.access_energy_nj(false) + sl.access_energy_nj(true));
        xfer_cycles_[idx] = static_cast<double>(cc.transfers) * per_issue;
      }
    }
  }

  // Site -> covering candidates, deepest first.  The candidates covering
  // one site form its reuse chain, whose ids rise with the level
  // (ReuseAnalysis numbers them by array, nest, level), so appending in
  // descending id order leaves every row level-descending.
  covering_off_.assign(S + 1, 0);
  for (int site : cc_sites_items_) ++covering_off_[static_cast<std::size_t>(site) + 1];
  for (std::size_t s = 0; s < S; ++s) covering_off_[s + 1] += covering_off_[s];
  covering_items_.resize(covering_off_[S]);
  std::vector<std::size_t> row_next(covering_off_.begin(), covering_off_.end() - 1);
  for (std::size_t c = C; c-- > 0;) {
    for (int site : candidate_sites(static_cast<int>(c))) {
      covering_items_[row_next[static_cast<std::size_t>(site)]++] = static_cast<int>(c);
    }
  }

  // A candidate's ancestors are the shallower candidates of its chain:
  // the rest of any member site's covering row after the candidate itself.
  cc_anc_.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    std::size_t s = static_cast<std::size_t>(candidates[c].site_ids.front());
    std::size_t pos = covering_off_[s];
    while (covering_items_[pos] != static_cast<int>(c)) ++pos;
    cc_anc_[c] = {pos + 1, covering_off_[s + 1]};
  }

  // Steady-state allocation discipline: size the undo arena for a deep
  // speculative excursion plus a healthy accepted-move history, and every
  // scratch vector for its worst case, so the moves and `move_delta`
  // never touch the heap after this point (ArenaStack regrows — counted —
  // if a walk outruns the reservation).
  undo_.reserve(64 + S + 4 * C + 2 * arrays.size());
  home_touched_list_.reserve(arrays.size());
  scr_drop_.assign(C, 0);
  scr_drop_list_.reserve(C);

  load(out_of_box(ctx_));
  baseline_ = totals();
}

Objective CostEngine::objective(double energy_weight, double time_weight) const {
  Objective obj;
  obj.energy_weight = energy_weight;
  obj.time_weight = time_weight;
  obj.baseline_energy_nj = baseline_.energy_nj > 0 ? baseline_.energy_nj : 1.0;
  obj.baseline_cycles = baseline_.total_cycles() > 0 ? baseline_.total_cycles() : 1.0;
  return obj;
}

std::size_t CostEngine::array_index(const std::string& name) const {
  const ir::ArrayDecl* array = ctx_.program.find_array(name);
  if (!array) throw std::invalid_argument("CostEngine: unknown array " + name);
  return static_cast<std::size_t>(array - ctx_.program.arrays().data());
}

void CostEngine::validate_copy(int cc_id, int layer) const {
  if (cc_id < 0 || static_cast<std::size_t>(cc_id) >= copy_layer_.size()) {
    throw std::invalid_argument("CostEngine: unknown copy candidate id " + std::to_string(cc_id));
  }
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: copy placed on unknown layer " +
                                std::to_string(layer));
  }
}

void CostEngine::load(const Assignment& assignment) {
  undo_.clear();
  copy_layer_.assign(ctx_.reuse.candidates().size(), -1);
  for (const PlacedCopy& pc : assignment.copies) {
    validate_copy(pc.cc_id, pc.layer);
    if (copy_layer_[static_cast<std::size_t>(pc.cc_id)] >= 0) {
      throw std::invalid_argument("CostEngine: duplicate copy candidate " +
                                  std::to_string(pc.cc_id));
    }
    copy_layer_[static_cast<std::size_t>(pc.cc_id)] = pc.layer;
  }
  assignment_ = assignment;
  // Every candidate can be placed at most once, so reserving C slots makes
  // select_copy's push_back (and undo's re-insert) allocation-free for good.
  assignment_.copies.reserve(copy_layer_.size());
  assignment_dirty_ = false;
  const auto& arrays = ctx_.program.arrays();
  home_touched_.assign(arrays.size(), 0);
  home_touched_list_.clear();

  home_.resize(arrays.size());
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    home_[a] = assignment_.layer_of(arrays[a].name, background_);
  }

  serving_cc_.assign(site_n_.size(), -1);
  for (std::size_t s = 0; s < serving_cc_.size(); ++s) serving_cc_[s] = deepest_selected(s, -1);

  footprint_.load(assignment_);
}

void CostEngine::sync_assignment() const {
  for (int a : home_touched_list_) {
    std::size_t idx = static_cast<std::size_t>(a);
    assignment_.array_layer[ctx_.program.arrays()[idx].name] = home_[idx];
  }
  assignment_dirty_ = false;
}

void CostEngine::set_serving(std::size_t site, int cc_id) {
  undo_.push_back({UndoRec::Kind::Serving, static_cast<int>(site), serving_cc_[site], 0});
  serving_cc_[site] = cc_id;
}

int CostEngine::deepest_selected(std::size_t site, int skip) const {
  for (int cc : covering(site)) {
    // covering is level-descending: the first hit is the deepest
    if (cc != skip && copy_layer_[static_cast<std::size_t>(cc)] >= 0) return cc;
  }
  return -1;
}

int CostEngine::parent_after_drops(int cc_id, std::size_t array, int layer) const {
  for (int anc : ancestors(cc_id)) {
    if (layer_after_drops(anc) >= 0) return layer_after_drops(anc);
  }
  std::size_t owner = cc_array_[static_cast<std::size_t>(cc_id)];
  return owner == array ? layer : home_[owner];
}

bool CostEngine::parents(int cc_id, int child) const {
  if (cc_array_[static_cast<std::size_t>(child)] != cc_array_[static_cast<std::size_t>(cc_id)]) {
    return false;
  }
  for (int anc : ancestors(child)) {
    if (anc == cc_id) return true;
    if (copy_layer_[static_cast<std::size_t>(anc)] >= 0) return false;
  }
  return false;
}

void CostEngine::select_copy(int cc_id, int layer) {
  validate_copy(cc_id, layer);
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (copy_layer_[c] >= 0) {
    throw std::invalid_argument("CostEngine: candidate already selected " + std::to_string(cc_id));
  }
  copy_layer_[c] = layer;
  assignment_.copies.push_back({cc_id, layer});
  undo_.push_back({UndoRec::Kind::CopyPush, cc_id, 0, 0});
  footprint_.place_copy(cc_id, layer);
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    if (would_serve(s, cc_id)) set_serving(s, cc_id);
  }
}

void CostEngine::remove_copy(int cc_id) {
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (cc_id < 0 || c >= copy_layer_.size() || copy_layer_[c] < 0) {
    throw std::invalid_argument("CostEngine: candidate not selected " + std::to_string(cc_id));
  }
  int index = -1;
  for (std::size_t i = 0; i < assignment_.copies.size(); ++i) {
    if (assignment_.copies[i].cc_id == cc_id) {
      index = static_cast<int>(i);
      break;
    }
  }
  undo_.push_back({UndoRec::Kind::CopyErase, cc_id, copy_layer_[c], index});
  assignment_.copies.erase(assignment_.copies.begin() + index);
  copy_layer_[c] = -1;
  footprint_.remove_copy(cc_id);
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    if (serving_cc_[s] == cc_id) set_serving(s, deepest_selected(s, cc_id));
  }
}

void CostEngine::set_home(std::size_t array_index, int layer) {
  assert(array_index < home_.size() && "CostEngine: unknown array id");
  assert(layer >= 0 && layer < num_layers_ && "CostEngine: home on unknown layer");
  if (home_[array_index] == layer) return;
  undo_.push_back({UndoRec::Kind::Home, static_cast<int>(array_index), home_[array_index], 0});
  home_[array_index] = layer;
  if (!home_touched_[array_index]) {
    home_touched_[array_index] = 1;
    home_touched_list_.push_back(static_cast<int>(array_index));
  }
  assignment_dirty_ = true;
  footprint_.set_home(array_index, layer);
}

void CostEngine::set_home(const std::string& array, int layer) {
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: home on unknown layer " + std::to_string(layer));
  }
  set_home(array_index(array), layer);
}

int CostEngine::migrate_array(std::size_t array_index, int layer) {
  set_home(array_index, layer);
  core::IntSpan drops = migrate_drops(array_index, layer);
  for (int cc : drops) remove_copy(cc);
  return static_cast<int>(drops.size());
}

core::IntSpan CostEngine::migrate_drops(std::size_t array, int layer) const {
  for (int cc : scr_drop_list_) scr_drop_[static_cast<std::size_t>(cc)] = 0;
  scr_drop_list_.clear();
  for (;;) {
    std::size_t pass = scr_drop_list_.size();
    for (const PlacedCopy& pc : assignment_.copies) {
      if (layer_after_drops(pc.cc_id) < 0) continue;
      if (pc.layer >= parent_after_drops(pc.cc_id, array, layer)) {
        scr_drop_list_.push_back(pc.cc_id);
      }
    }
    if (scr_drop_list_.size() == pass) break;
    for (std::size_t i = pass; i < scr_drop_list_.size(); ++i) {
      scr_drop_[static_cast<std::size_t>(scr_drop_list_[i])] = 1;
    }
  }
  const int* base = scr_drop_list_.data();
  return {base, base + scr_drop_list_.size()};
}

int CostEngine::migrate_array(const std::string& array, int layer) {
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: home on unknown layer " + std::to_string(layer));
  }
  return migrate_array(array_index(array), layer);
}

void CostEngine::undo_to(Checkpoint mark) {
  while (undo_.size() > mark) {
    const UndoRec rec = undo_.back();
    undo_.pop_back();
    switch (rec.kind) {
      case UndoRec::Kind::Serving:
        serving_cc_[static_cast<std::size_t>(rec.a)] = rec.b;
        break;
      case UndoRec::Kind::CopyPush:
        assignment_.copies.pop_back();
        copy_layer_[static_cast<std::size_t>(rec.a)] = -1;
        footprint_.undo_one();
        break;
      case UndoRec::Kind::CopyErase:
        assignment_.copies.insert(assignment_.copies.begin() + rec.c, {rec.a, rec.b});
        copy_layer_[static_cast<std::size_t>(rec.a)] = rec.b;
        footprint_.undo_one();
        break;
      case UndoRec::Kind::Home:
        home_[static_cast<std::size_t>(rec.a)] = rec.b;
        assignment_dirty_ = true;
        footprint_.undo_one();
        break;
    }
  }
}

int CostEngine::parent_layer(int cc_id) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  for (int anc : ancestors(cc_id)) {
    int layer = copy_layer_[static_cast<std::size_t>(anc)];
    if (layer >= 0) return layer;  // ancestors are level-descending: deepest first
  }
  return home_[cc_array_[c]];
}

bool CostEngine::layering_valid() const {
  for (const PlacedCopy& pc : assignment_.copies) {
    if (pc.layer >= parent_layer(pc.cc_id)) return false;
  }
  return true;
}

CostEngine::Totals CostEngine::totals() const {
  // Accumulation mirrors oracle::estimate_cost term by term, in its order:
  // sites in id order, transfers in copy-selection order, pinned arrays in
  // declaration order.  Identical doubles in, identical order, identical out.
  Totals t;
  t.compute_cycles = compute_cycles_;
  const std::size_t L = static_cast<std::size_t>(num_layers_);
  for (std::size_t s = 0; s < site_n_.size(); ++s) {
    std::size_t l = static_cast<std::size_t>(serving_layer(s));
    t.energy_nj += site_energy_[s * L + l];
    t.access_cycles += site_cycles_[s * L + l];
  }
  for (const PlacedCopy& pc : assignment_.copies) {
    std::size_t c = static_cast<std::size_t>(pc.cc_id);
    std::size_t idx = table_index(pc.cc_id, parent_layer(pc.cc_id), pc.layer);
    if (!cc_fill_free_[c]) {
      t.energy_nj += fill_energy_[idx];
      t.transfer_cycles += xfer_cycles_[idx];
    }
    if (cc_write_back_[c]) {
      t.energy_nj += wb_energy_[idx];
      t.transfer_cycles += xfer_cycles_[idx];
    }
  }
  const std::size_t Lp = static_cast<std::size_t>(num_layers_);
  for (std::size_t a = 0; a < home_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t idx = a * Lp + static_cast<std::size_t>(home);
    if (array_input_[a]) {
      t.energy_nj += pin_fill_energy_[idx];
      t.transfer_cycles += pin_fill_cycles_[idx];
    }
    if (array_output_[a]) {
      t.energy_nj += pin_flush_energy_[idx];
      t.transfer_cycles += pin_flush_cycles_[idx];
    }
  }
  return t;
}

CostEngine::MoveDelta CostEngine::select_delta(int cc_id, int layer) const {
  MoveDelta d;
  // Layering: the copy sits below its parent store and above every copy
  // it re-parents (the live state is layering-valid).
  int parent = parent_layer(cc_id);
  if (layer >= parent || !footprint_.feasible_with_copy(cc_id, layer)) return d;
  add_copy_terms(d, cc_id, parent, layer, 1.0);
  for (const PlacedCopy& pc : assignment_.copies) {
    if (!parents(cc_id, pc.cc_id)) continue;
    if (pc.layer >= layer) return MoveDelta{};
    add_copy_terms(d, pc.cc_id, parent, pc.layer, -1.0);
    add_copy_terms(d, pc.cc_id, layer, pc.layer, 1.0);
  }
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    if (would_serve(s, cc_id)) add_reroute(d, s, serving_layer(s), layer);
  }
  d.ok = true;
  return d;
}

CostEngine::MoveDelta CostEngine::remove_delta(int cc_id) const {
  // Removing a copy only frees bytes and raises its children's parents,
  // so a feasible, layering-valid state stays both.
  assert(fits() && "CostEngine::remove_delta: live state must be feasible");
  MoveDelta d;
  int own = copy_layer_[static_cast<std::size_t>(cc_id)];
  int parent = parent_layer(cc_id);
  add_copy_terms(d, cc_id, parent, own, -1.0);
  for (const PlacedCopy& pc : assignment_.copies) {
    if (!parents(cc_id, pc.cc_id)) continue;
    add_copy_terms(d, pc.cc_id, own, pc.layer, -1.0);
    add_copy_terms(d, pc.cc_id, parent, pc.layer, 1.0);
  }
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    if (serving_cc_[s] != cc_id) continue;
    int next = deepest_selected(s, cc_id);
    add_reroute(d, s, own, next >= 0 ? copy_layer_[static_cast<std::size_t>(next)]
                                     : home_[site_array_[s]]);
  }
  d.ok = true;
  return d;
}

CostEngine::MoveDelta CostEngine::migrate_delta(std::size_t array, int layer) const {
  MoveDelta d;
  if (!footprint_.feasible_with_home(array, layer, migrate_drops(array, layer))) return d;
  d.ok = true;
  for (const PlacedCopy& pc : assignment_.copies) {
    if (cc_array_[static_cast<std::size_t>(pc.cc_id)] != array) continue;
    int before = parent_layer(pc.cc_id);
    int after = parent_after_drops(pc.cc_id, array, layer);
    if (layer_after_drops(pc.cc_id) < 0) {
      add_copy_terms(d, pc.cc_id, before, pc.layer, -1.0);
    } else if (after != before) {
      add_copy_terms(d, pc.cc_id, before, pc.layer, -1.0);
      add_copy_terms(d, pc.cc_id, after, pc.layer, 1.0);
    }
  }
  for (int site : array_sites(array)) {
    std::size_t s = static_cast<std::size_t>(site);
    int next = layer;
    for (int cc : covering(s)) {
      if (layer_after_drops(cc) >= 0) {
        next = layer_after_drops(cc);
        break;
      }
    }
    add_reroute(d, s, serving_layer(s), next);
  }
  d.energy_nj += pinned_energy_term(array, layer) - pinned_energy_term(array, home_[array]);
  d.cycles += pinned_cycle_term(array, layer) - pinned_cycle_term(array, home_[array]);
  return d;
}

CostEstimate CostEngine::cost() const {
  CostEstimate cost;
  cost.layer_reads.assign(static_cast<std::size_t>(num_layers_), 0);
  cost.layer_writes.assign(static_cast<std::size_t>(num_layers_), 0);

  Totals t = totals();
  cost.energy_nj = t.energy_nj;
  cost.compute_cycles = t.compute_cycles;
  cost.access_cycles = t.access_cycles;
  cost.transfer_cycles = t.transfer_cycles;

  for (std::size_t s = 0; s < site_n_.size(); ++s) {
    std::size_t l = static_cast<std::size_t>(serving_layer(s));
    if (site_write_[s]) {
      cost.layer_writes[l] += site_n_[s];
    } else {
      cost.layer_reads[l] += site_n_[s];
    }
  }
  for (const PlacedCopy& pc : assignment_.copies) {
    std::size_t c = static_cast<std::size_t>(pc.cc_id);
    std::size_t src = static_cast<std::size_t>(parent_layer(pc.cc_id));
    std::size_t dst = static_cast<std::size_t>(pc.layer);
    if (!cc_fill_free_[c]) {
      cost.layer_reads[src] += cc_elems_moved_[c];
      cost.layer_writes[dst] += cc_elems_moved_[c];
    }
    if (cc_write_back_[c]) {
      cost.layer_reads[dst] += cc_elems_moved_[c];
      cost.layer_writes[src] += cc_elems_moved_[c];
    }
  }
  std::size_t bg = static_cast<std::size_t>(background_);
  for (std::size_t a = 0; a < home_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t h = static_cast<std::size_t>(home);
    if (array_input_[a]) {
      cost.layer_reads[bg] += array_elems_[a];
      cost.layer_writes[h] += array_elems_[a];
    }
    if (array_output_[a]) {
      cost.layer_reads[h] += array_elems_[a];
      cost.layer_writes[bg] += array_elems_[a];
    }
  }
  return cost;
}

double CostEngine::cc_energy_term(int cc_id, int src, int dst) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  std::size_t idx = table_index(cc_id, src, dst);
  double energy = 0.0;
  if (!cc_fill_free_[c]) energy += fill_energy_[idx];
  if (cc_write_back_[c]) energy += wb_energy_[idx];
  return energy;
}

double CostEngine::cc_cycle_term(int cc_id, int src, int dst) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  std::size_t idx = table_index(cc_id, src, dst);
  double cycles = 0.0;
  if (!cc_fill_free_[c]) cycles += xfer_cycles_[idx];
  if (cc_write_back_[c]) cycles += xfer_cycles_[idx];
  return cycles;
}

double CostEngine::pinned_energy_term(std::size_t array, int home) const {
  if (home == background_) return 0.0;
  std::size_t idx = array * static_cast<std::size_t>(num_layers_) + static_cast<std::size_t>(home);
  double energy = 0.0;
  if (array_input_[array]) energy += pin_fill_energy_[idx];
  if (array_output_[array]) energy += pin_flush_energy_[idx];
  return energy;
}

double CostEngine::pinned_cycle_term(std::size_t array, int home) const {
  if (home == background_) return 0.0;
  std::size_t idx = array * static_cast<std::size_t>(num_layers_) + static_cast<std::size_t>(home);
  double cycles = 0.0;
  if (array_input_[array]) cycles += pin_fill_cycles_[idx];
  if (array_output_[array]) cycles += pin_flush_cycles_[idx];
  return cycles;
}

std::pair<double, double> CostEngine::pinned_totals() const {
  double energy = 0.0;
  double cycles = 0.0;
  const std::size_t L = static_cast<std::size_t>(num_layers_);
  for (std::size_t a = 0; a < home_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t idx = a * L + static_cast<std::size_t>(home);
    if (array_input_[a]) {
      energy += pin_fill_energy_[idx];
      cycles += pin_fill_cycles_[idx];
    }
    if (array_output_[a]) {
      energy += pin_flush_energy_[idx];
      cycles += pin_flush_cycles_[idx];
    }
  }
  return {energy, cycles};
}

}  // namespace mhla::assign
