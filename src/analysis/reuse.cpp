#include "analysis/reuse.h"

#include <algorithm>
#include <numeric>

#include "ir/checked.h"

namespace mhla::analysis {

namespace {

/// One dimension of a footprint as an interval *relative to the symbolic
/// base* spanned by the fixed outer iterators: the subscript, with fixed
/// iterators treated as unknowns, ranges over [lo, hi] (inclusive) as the
/// varying loops run.  Two accesses under the same fixed loops can be
/// unioned exactly when their fixed-iterator coefficients agree (same
/// symbolic base).
struct DimInterval {
  i64 lo = 0;
  i64 hi = 0;
};

/// One declared access site as the partitions read it.  Its terms sit in
/// `SiteTables` as a rank x depth block starting at `offset`.
struct SiteTerms {
  const AccessSite* site = nullptr;
  std::size_t depth = 0;   ///< loops around the site
  std::size_t offset = 0;  ///< first cell of the site's block
  i64 dynamic = 0;         ///< dynamic accesses the site issues
};

/// Everything the partitions read of the sites, gathered in one pass: per
/// (site, dimension, loop level), the coefficient of that level's iterator
/// and the interval its term sweeps while the loop runs its full range.
struct SiteTables {
  std::vector<SiteTerms> sites;    ///< grouped by array id, program order within a group
  std::vector<std::size_t> group;  ///< array id -> first site of its group (size arrays + 1)
  std::vector<i64> coef;
  std::vector<DimInterval> sweep;

  SiteTables(const ir::Program& program, const std::vector<AccessSite>& all) {
    // Counting sort by array id; undeclared arrays are validate()'s to report.
    group.assign(program.arrays().size() + 1, 0);
    for (const AccessSite& site : all) {
      if (site.array_id >= 0) ++group[static_cast<std::size_t>(site.array_id) + 1];
    }
    std::partial_sum(group.begin(), group.end(), group.begin());
    sites.resize(group.back());
    std::vector<std::size_t> next(group.begin(), group.end() - 1);
    std::size_t cells = 0;
    for (const AccessSite& site : all) {
      if (site.array_id < 0) continue;
      SiteTerms& t = sites[next[static_cast<std::size_t>(site.array_id)]++];
      t = {&site, site.path.size(), cells, site.access->count};
      cells += t.depth * static_cast<std::size_t>(site.array->rank());
    }

    coef.assign(cells, 0);
    sweep.assign(cells, {});
    for (SiteTerms& t : sites) {
      const AccessSite& site = *t.site;
      for (const ir::LoopNode* loop : site.path) {
        t.dynamic = ir::checked_mul(t.dynamic, loop->trip());
      }
      for (std::size_t dim = 0; dim < static_cast<std::size_t>(site.array->rank()); ++dim) {
        for (std::size_t level = 0; level < t.depth; ++level) {
          const ir::LoopNode& loop = *site.path[level];
          std::size_t at = cell(t, dim, level);
          coef[at] = site.access->index[dim].coef(loop.iter());
          if (coef[at] == 0 || loop.trip() <= 0) continue;
          i64 first = ir::checked_mul(coef[at], loop.lower());
          i64 last = ir::checked_mul(coef[at], loop.last());
          sweep[at] = {std::min(first, last), std::max(first, last)};
        }
      }
    }
  }

  std::size_t cell(const SiteTerms& t, std::size_t dim, std::size_t level) const {
    return t.offset + dim * t.depth + level;
  }

  /// Interval of dimension `dim` relative to the symbolic base of the
  /// `fixed` outer iterators: the constant plus the varying levels' sweeps.
  DimInterval interval(const SiteTerms& t, std::size_t dim, std::size_t fixed) const {
    i64 base = t.site->access->index[dim].constant();
    DimInterval iv{base, base};
    for (std::size_t level = fixed; level < t.depth; ++level) {
      iv.lo += sweep[cell(t, dim, level)].lo;
      iv.hi += sweep[cell(t, dim, level)].hi;
    }
    return iv;
  }

  /// True iff the fixed iterators' coefficients agree in dimension `dim`
  /// (same symbolic base, so the two intervals can be unioned exactly).
  bool same_base(const SiteTerms& a, const SiteTerms& b, std::size_t dim,
                 std::size_t fixed) const {
    for (std::size_t level = 0; level < fixed; ++level) {
      if (coef[cell(a, dim, level)] != coef[cell(b, dim, level)]) return false;
    }
    return true;
  }
};

/// One dimension of a candidate's merged box (scratch reused across
/// candidates).
struct MergedDim {
  DimInterval iv;
  bool exact = true;  ///< every member shares the first member's base
  i64 width = 1;
};

/// The copy candidate of one partition: `members[0, count)` are the sites
/// of one array in one nest under the same `level` fixed loops, in program
/// order.
CopyCandidate make_candidate(const SiteTables& tables, const ir::ArrayDecl& array, int array_id,
                             const SiteTerms* members, std::size_t count, std::size_t level,
                             std::vector<MergedDim>& box) {
  const std::size_t rank = static_cast<std::size_t>(array.rank());
  const SiteTerms& first = members[0];

  // Union the member footprints exactly where the symbolic bases agree
  // (same fixed-iterator coefficients), conservatively (whole extent)
  // where they do not.
  box.assign(rank, {});
  for (std::size_t d = 0; d < rank; ++d) box[d].iv = tables.interval(first, d, level);
  i64 reads = 0;
  i64 writes = 0;
  for (std::size_t m = 0; m < count; ++m) {
    for (std::size_t d = 0; m > 0 && d < rank; ++d) {
      if (!tables.same_base(first, members[m], d, level)) {
        box[d].exact = false;
      } else {
        DimInterval iv = tables.interval(members[m], d, level);
        box[d].iv.lo = std::min(box[d].iv.lo, iv.lo);
        box[d].iv.hi = std::max(box[d].iv.hi, iv.hi);
      }
    }
    i64& served = members[m].site->is_read() ? reads : writes;
    served = ir::checked_add(served, members[m].dynamic);
  }
  // Widths are clamped to the extents, so their product is at most the
  // array's element count (which fits i64).
  i64 elems = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    i64 extent = array.dims[d];
    i64 span;
    bool whole = !box[d].exact || __builtin_sub_overflow(box[d].iv.hi, box[d].iv.lo, &span) ||
                 span >= extent - 1;
    box[d].width = whole ? extent : span + 1;
    elems *= box[d].width;
  }

  CopyCandidate cc;
  cc.array = array.name;
  cc.array_id = array_id;
  cc.nest = first.site->nest;
  cc.level = static_cast<int>(level);
  cc.elems = elems;
  cc.elem_bytes = array.elem_bytes;
  cc.bytes = elems * array.elem_bytes;
  cc.prefix.assign(first.site->path.begin(), first.site->path.begin() + static_cast<long>(level));
  cc.transfers = 1;
  for (const ir::LoopNode* loop : cc.prefix) {
    cc.transfers = ir::checked_mul(cc.transfers, loop->trip());
  }

  // Delta elements per refresh of the merged box, relative to the
  // iterations of the innermost fixed loop.  If no member access moves
  // along that loop, the buffer content is reloaded wholesale
  // (conservative).
  cc.elems_per_transfer = elems;
  if (level > 0) {
    i64 step = cc.prefix.back()->step();
    i64 overlap = 1;
    bool moves = false;
    for (std::size_t d = 0; d < rank; ++d) {
      i64 shift = 0;
      for (std::size_t m = 0; m < count; ++m) {
        i64 s = ir::checked_mul(tables.coef[tables.cell(members[m], d, level - 1)], step);
        shift = std::max(shift, s < 0 ? ir::checked_mul(s, -1) : s);
      }
      moves = moves || shift != 0;
      overlap *= std::max<i64>(0, box[d].width - shift);
    }
    if (moves) cc.elems_per_transfer = std::max<i64>(elems - overlap, 0);
  }
  cc.reads_served = reads;
  cc.writes_served = writes;
  cc.site_ids.reserve(count);
  for (std::size_t m = 0; m < count; ++m) cc.site_ids.push_back(members[m].site->id);

  // Write-allocate-without-fetch: the fill can be skipped when every read
  // is locally produced first — a member write with the identical
  // subscript vector appears earlier in statement order.
  if (writes > 0) {
    bool all_reads_covered = true;
    for (std::size_t r = 0; r < count && all_reads_covered; ++r) {
      const AccessSite& read = *members[r].site;
      if (!read.is_read()) continue;
      bool covered = false;
      for (std::size_t w = 0; w < r && !covered; ++w) {
        const AccessSite& write = *members[w].site;
        covered = write.is_write() && write.access->index == read.access->index;
      }
      all_reads_covered = covered;
    }
    cc.fill_free = all_reads_covered;
  }
  return cc;
}

}  // namespace

ReuseAnalysis ReuseAnalysis::run(const ir::Program& program, const std::vector<AccessSite>& sites) {
  ReuseAnalysis out;
  const SiteTables tables(program, sites);
  const std::vector<ir::ArrayDecl>& arrays = program.arrays();
  std::vector<std::size_t> by_name(arrays.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(),
            [&](std::size_t a, std::size_t b) { return arrays[a].name < arrays[b].name; });

  // Emit the partitions in id order: per array by name, per nest, outer to
  // inner level.  An array's sites in one nest are consecutive in program
  // order, and so are its sites under one loop, so every partition is a run
  // of consecutive sites, and the runs of a level come in program order of
  // their fixed loops.
  std::vector<MergedDim> box;
  for (std::size_t a : by_name) {
    const SiteTerms* group = tables.sites.data() + tables.group[a];
    const std::size_t size = tables.group[a + 1] - tables.group[a];
    for (std::size_t nest_begin = 0; nest_begin < size;) {
      std::size_t nest_end = nest_begin;
      std::size_t depth = 0;
      for (; nest_end < size && group[nest_end].site->nest == group[nest_begin].site->nest;
           ++nest_end) {
        depth = std::max(depth, group[nest_end].depth);
      }
      for (std::size_t level = 0; level <= depth; ++level) {
        for (std::size_t i = nest_begin; i < nest_end;) {
          if (group[i].depth < level) {
            ++i;
            continue;
          }
          auto same_prefix = [&](const SiteTerms& t) {
            return t.depth >= level &&
                   (level == 0 || t.site->path[level - 1] == group[i].site->path[level - 1]);
          };
          std::size_t j = i + 1;
          while (j < nest_end && same_prefix(group[j])) ++j;
          out.candidates_.push_back(make_candidate(tables, arrays[a], static_cast<int>(a),
                                                   group + i, j - i, level, box));
          out.candidates_.back().id = static_cast<int>(out.candidates_.size() - 1);
          i = j;
        }
      }
      nest_begin = nest_end;
    }
  }
  return out;
}

std::vector<int> ReuseAnalysis::candidates_for(const std::string& array) const {
  std::vector<int> ids;
  for (const CopyCandidate& cc : candidates_) {
    if (cc.array == array) ids.push_back(cc.id);
  }
  return ids;
}

}  // namespace mhla::analysis
