#include "ir/transform.h"

#include <stdexcept>

#include "ir/walk.h"

namespace mhla::ir {

namespace {

/// Clone a statement, applying every pending iterator substitution to its
/// access subscripts.
NodePtr clone_stmt(const StmtNode& stmt, const std::map<std::string, AffineExpr>& subst) {
  auto copy = std::make_unique<StmtNode>(stmt.name(), stmt.op_cycles());
  for (const ArrayAccess& access : stmt.accesses()) {
    ArrayAccess rewritten = access;
    for (AffineExpr& index : rewritten.index) {
      for (const auto& [var, repl] : subst) index = substitute(index, var, repl);
    }
    copy->add_access(std::move(rewritten));
  }
  return copy;
}

/// Recursive clone for the tiling transformation.
NodePtr tile_rec(const Node& node, const std::string& iter, i64 tile,
                 std::map<std::string, AffineExpr>& subst, bool& found) {
  if (node.is_stmt()) return clone_stmt(node.as_stmt(), subst);

  const LoopNode& loop = node.as_loop();
  if (loop.iter() == iter) {
    if (found) {
      throw std::invalid_argument("tile_loop: iterator '" + iter +
                                  "' occurs in more than one loop");
    }
    if (tile <= 0 || loop.trip() % tile != 0) {
      throw std::invalid_argument("tile_loop: trip count " + std::to_string(loop.trip()) +
                                  " of '" + iter + "' is not divisible by tile " +
                                  std::to_string(tile));
    }
    found = true;
    std::string outer_name = iter + "_o";
    std::string inner_name = iter + "_i";
    auto outer = std::make_unique<LoopNode>(outer_name, 0, loop.trip() / tile);
    auto inner = std::make_unique<LoopNode>(inner_name, 0, tile);
    // iter == step * (tile*iter_o + iter_i) + lower
    subst[iter] = av(outer_name, loop.step() * tile) + av(inner_name, loop.step()) +
                  ac(loop.lower());
    for (const NodePtr& child : loop.body()) {
      inner->append(tile_rec(*child, iter, tile, subst, found));
    }
    subst.erase(iter);
    outer->append(std::move(inner));
    return outer;
  }

  auto copy = std::make_unique<LoopNode>(loop.iter(), loop.lower(), loop.upper(), loop.step());
  for (const NodePtr& child : loop.body()) {
    copy->append(tile_rec(*child, iter, tile, subst, found));
  }
  return copy;
}

/// Plain deep clone (no rewriting).
NodePtr clone_plain(const Node& node) {
  std::map<std::string, AffineExpr> empty;
  if (node.is_stmt()) return clone_stmt(node.as_stmt(), empty);
  const LoopNode& loop = node.as_loop();
  auto copy = std::make_unique<LoopNode>(loop.iter(), loop.lower(), loop.upper(), loop.step());
  for (const NodePtr& child : loop.body()) copy->append(clone_plain(*child));
  return copy;
}

/// Recursive clone for interchange: swaps the target loop with its single
/// perfectly nested child.
NodePtr interchange_rec(const Node& node, const std::string& iter, bool& found) {
  if (node.is_stmt()) return clone_plain(node);

  const LoopNode& loop = node.as_loop();
  if (loop.iter() == iter) {
    if (found) {
      throw std::invalid_argument("interchange: iterator '" + iter +
                                  "' occurs in more than one loop");
    }
    if (loop.body().size() != 1 || !loop.body()[0]->is_loop()) {
      throw std::invalid_argument("interchange: loop '" + iter +
                                  "' is not perfectly nested over a single child loop");
    }
    found = true;
    const LoopNode& child = loop.body()[0]->as_loop();
    auto new_outer =
        std::make_unique<LoopNode>(child.iter(), child.lower(), child.upper(), child.step());
    auto new_inner =
        std::make_unique<LoopNode>(loop.iter(), loop.lower(), loop.upper(), loop.step());
    for (const NodePtr& grandchild : child.body()) {
      new_inner->append(clone_plain(*grandchild));
    }
    new_outer->append(std::move(new_inner));
    return new_outer;
  }

  auto copy = std::make_unique<LoopNode>(loop.iter(), loop.lower(), loop.upper(), loop.step());
  for (const NodePtr& child : loop.body()) copy->append(interchange_rec(*child, iter, found));
  return copy;
}

Program clone_arrays(const Program& program) {
  Program out(program.name());
  for (const ArrayDecl& array : program.arrays()) out.add_array(array);
  return out;
}

void ensure_fresh_iterator(const Program& program, const std::string& name) {
  bool clash = false;
  walk_statements(program, [&](int, const LoopPath& path, const StmtNode&) {
    for (const LoopNode* loop : path) {
      if (loop->iter() == name) clash = true;
    }
  });
  if (clash) {
    throw std::invalid_argument("tile_loop: generated iterator '" + name +
                                "' clashes with an existing loop");
  }
}

}  // namespace

Program tile_loop(const Program& program, const std::string& iter, i64 tile) {
  ensure_fresh_iterator(program, iter + "_o");
  ensure_fresh_iterator(program, iter + "_i");

  Program out = clone_arrays(program);
  bool found = false;
  std::map<std::string, AffineExpr> subst;
  for (const NodePtr& top : program.top()) {
    out.append_top(tile_rec(*top, iter, tile, subst, found));
  }
  if (!found) {
    throw std::invalid_argument("tile_loop: no loop with iterator '" + iter + "'");
  }
  return out;
}

Program interchange(const Program& program, const std::string& iter) {
  Program out = clone_arrays(program);
  bool found = false;
  for (const NodePtr& top : program.top()) {
    out.append_top(interchange_rec(*top, iter, found));
  }
  if (!found) {
    throw std::invalid_argument("interchange: no loop with iterator '" + iter + "'");
  }
  return out;
}

namespace {

/// Interval of `expr` relative to the fused iterator `iter` treated as 0,
/// over the full ranges of all other iterators in `path`.
struct RelInterval {
  i64 lo = 0;
  i64 hi = 0;
  i64 iter_coef = 0;
};

RelInterval relative_interval(const AffineExpr& expr, const LoopPath& path,
                              const std::string& iter) {
  RelInterval out;
  out.lo = expr.constant();
  out.hi = expr.constant();
  out.iter_coef = expr.coef(iter);
  for (const LoopNode* loop : path) {
    if (loop->iter() == iter) continue;
    i64 coef = expr.coef(loop->iter());
    if (coef == 0 || loop->trip() <= 0) continue;
    i64 first = loop->lower();
    i64 last = loop->last();
    out.lo += std::min(coef * first, coef * last);
    out.hi += std::max(coef * first, coef * last);
  }
  return out;
}

/// Conservative dependence safety check for fusing loop `a` before loop `b`.
///
/// Flow (a writes, b reads): after fusion, iteration i of b must only read
/// elements some iteration <= i of a already wrote.  With equal non-negative
/// fused-iterator coefficients and per-iteration offset intervals, that is:
/// the read front must not pass the write front (r.hi <= w.hi); for
/// iterator-independent boxes the intervals must be disjoint.
///
/// Anti/output (b writes, a reads or writes): b's writes move *earlier*
/// relative to a's later iterations, so a's offsets must stay at or above
/// b's write front (a.lo >= wb.hi); disjoint for iterator-independent boxes.
void check_fusion_safety(const Program& program, const LoopNode& a, const LoopNode& b) {
  using AccessList = std::vector<std::pair<LoopPath, const ArrayAccess*>>;
  auto collect = [](const LoopNode& loop, AccessKind kind, bool both) {
    std::map<std::string, AccessList> out;
    walk_statements(loop, [&](const LoopPath& path, const StmtNode& stmt) {
      for (const ArrayAccess& access : stmt.accesses()) {
        if (both || access.kind == kind) out[access.array].push_back({path, &access});
      }
    });
    return out;
  };
  std::map<std::string, AccessList> writes_a = collect(a, AccessKind::Write, false);
  std::map<std::string, AccessList> reads_b = collect(b, AccessKind::Read, false);
  std::map<std::string, AccessList> writes_b = collect(b, AccessKind::Write, false);
  std::map<std::string, AccessList> accesses_a = collect(a, AccessKind::Read, true);

  auto check_pair = [&](const std::string& array, const LoopPath& early_path,
                        const ArrayAccess& early, const std::string& early_iter,
                        const LoopPath& late_path, const ArrayAccess& late,
                        const std::string& late_iter, bool flow) {
    const ArrayDecl& decl = program.array(array);
    for (int dim = 0; dim < decl.rank(); ++dim) {
      RelInterval e = relative_interval(early.index[static_cast<std::size_t>(dim)], early_path,
                                        early_iter);
      RelInterval l = relative_interval(late.index[static_cast<std::size_t>(dim)], late_path,
                                        late_iter);
      if (e.iter_coef < 0 || l.iter_coef < 0) {
        throw std::invalid_argument("fuse_nests: negative fused-iterator coefficient on '" +
                                    array + "' cannot be proven safe");
      }
      if (e.iter_coef != l.iter_coef) {
        throw std::invalid_argument("fuse_nests: mismatched fused-iterator coefficients on '" +
                                    array + "'");
      }
      if (e.iter_coef == 0) {
        bool disjoint = l.hi < e.lo || l.lo > e.hi;
        if (!disjoint) {
          throw std::invalid_argument("fuse_nests: iteration-independent accesses to '" + array +
                                      "' overlap");
        }
        continue;
      }
      if (flow) {
        // early = producer in a, late = consumer in b: read front <= write front.
        if (l.hi > e.hi) {
          throw std::invalid_argument("fuse_nests: read of '" + array +
                                      "' may run ahead of its producer");
        }
      } else {
        // early = access in a, late = writer in b moving earlier.
        if (e.lo < l.hi) {
          throw std::invalid_argument("fuse_nests: write of '" + array +
                                      "' in the second nest may overtake the first nest");
        }
      }
    }
  };

  for (const auto& [array, writers] : writes_a) {
    auto it = reads_b.find(array);
    if (it == reads_b.end()) continue;
    for (const auto& [wpath, waccess] : writers) {
      for (const auto& [rpath, raccess] : it->second) {
        check_pair(array, wpath, *waccess, a.iter(), rpath, *raccess, b.iter(), /*flow=*/true);
      }
    }
  }
  for (const auto& [array, writers] : writes_b) {
    auto it = accesses_a.find(array);
    if (it == accesses_a.end()) continue;
    for (const auto& [apath, aaccess] : it->second) {
      for (const auto& [wpath, waccess] : writers) {
        check_pair(array, apath, *aaccess, a.iter(), wpath, *waccess, b.iter(), /*flow=*/false);
      }
    }
  }
}

/// Clone `node` with every subscript use of iterator `from` rewritten to
/// `to`.
NodePtr clone_renamed(const Node& node, const std::string& from, const std::string& to) {
  std::map<std::string, AffineExpr> subst;
  subst[from] = av(to);
  if (node.is_stmt()) return clone_stmt(node.as_stmt(), subst);
  const LoopNode& loop = node.as_loop();
  auto copy = std::make_unique<LoopNode>(loop.iter(), loop.lower(), loop.upper(), loop.step());
  for (const NodePtr& child : loop.body()) copy->append(clone_renamed(*child, from, to));
  return copy;
}

}  // namespace

Program fuse_nests(const Program& program, std::size_t first) {
  if (first + 1 >= program.top().size()) {
    throw std::invalid_argument("fuse_nests: no nest after index " + std::to_string(first));
  }
  const Node& node_a = *program.top()[first];
  const Node& node_b = *program.top()[first + 1];
  if (!node_a.is_loop() || !node_b.is_loop()) {
    throw std::invalid_argument("fuse_nests: both fused nests must be loops");
  }
  const LoopNode& a = node_a.as_loop();
  const LoopNode& b = node_b.as_loop();
  if (a.lower() != b.lower() || a.upper() != b.upper() || a.step() != b.step()) {
    throw std::invalid_argument("fuse_nests: loop headers differ ('" + a.iter() + "' vs '" +
                                b.iter() + "')");
  }
  check_fusion_safety(program, a, b);

  Program out = clone_arrays(program);
  for (std::size_t n = 0; n < program.top().size(); ++n) {
    if (n == first) {
      auto fused = std::make_unique<LoopNode>(a.iter(), a.lower(), a.upper(), a.step());
      for (const NodePtr& child : a.body()) fused->append(clone_plain(*child));
      for (const NodePtr& child : b.body()) {
        fused->append(clone_renamed(*child, b.iter(), a.iter()));
      }
      out.append_top(std::move(fused));
    } else if (n == first + 1) {
      continue;
    } else {
      out.append_top(clone_plain(*program.top()[n]));
    }
  }
  return out;
}

i64 dynamic_statement_instances(const Program& program) {
  i64 total = 0;
  walk_statements(program, [&](int, const LoopPath& path, const StmtNode&) {
    total += iterations_of(path);
  });
  return total;
}

}  // namespace mhla::ir
