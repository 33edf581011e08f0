#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ir/affine.h"

namespace mhla::ir {

/// Read or write access.
enum class AccessKind { Read, Write };

/// One array reference inside a statement: which array, read or write,
/// one affine subscript expression per array dimension, and how many times
/// the reference executes per statement instance (`count`, usually 1).
struct ArrayAccess {
  std::string array;
  AccessKind kind = AccessKind::Read;
  std::vector<AffineExpr> index;
  i64 count = 1;
};

class LoopNode;
class StmtNode;

/// Base of the loop-nest tree.  Nodes are owned by their parent (or by the
/// Program for top-level nodes) through unique_ptr; the tree is immutable
/// after construction by the builder.
class Node {
 public:
  enum class Kind { Loop, Stmt };

  explicit Node(Kind kind) : kind_(kind) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Kind kind() const { return kind_; }
  bool is_loop() const { return kind_ == Kind::Loop; }
  bool is_stmt() const { return kind_ == Kind::Stmt; }

  const LoopNode& as_loop() const;
  const StmtNode& as_stmt() const;

 private:
  Kind kind_;
};

using NodePtr = std::unique_ptr<Node>;

/// A counted `for` loop: iterator runs lower, lower+step, ... < upper.
class LoopNode final : public Node {
 public:
  LoopNode(std::string iter, i64 lower, i64 upper, i64 step = 1)
      : Node(Kind::Loop), iter_(std::move(iter)), lower_(lower), upper_(upper), step_(step) {}

  const std::string& iter() const { return iter_; }
  i64 lower() const { return lower_; }
  i64 upper() const { return upper_; }  ///< exclusive
  i64 step() const { return step_; }

  /// Number of iterations (0 if the range is empty).  Throws
  /// std::overflow_error if the count does not fit i64; `validate` reports
  /// such a loop instead.
  i64 trip() const {
    if (upper_ <= lower_ || step_ <= 0) return 0;
    // The unsigned span is exact even where upper - lower overflows i64.
    std::uint64_t span = static_cast<std::uint64_t>(upper_) - static_cast<std::uint64_t>(lower_);
    std::uint64_t step = static_cast<std::uint64_t>(step_);
    std::uint64_t count = span / step + (span % step != 0 ? 1 : 0);
    if (count > static_cast<std::uint64_t>(std::numeric_limits<i64>::max())) trip_overflow();
    return static_cast<i64>(count);
  }

  /// Iterator value on the last iteration; requires trip() > 0.  It lies
  /// in [lower, upper), so it fits i64 even where (trip-1)*step does not.
  i64 last() const {
    return static_cast<i64>(static_cast<std::uint64_t>(lower_) +
                            static_cast<std::uint64_t>(trip() - 1) *
                                static_cast<std::uint64_t>(step_));
  }

  const std::vector<NodePtr>& body() const { return body_; }
  void append(NodePtr child) { body_.push_back(std::move(child)); }

 private:
  [[noreturn]] void trip_overflow() const;

  std::string iter_;
  i64 lower_;
  i64 upper_;
  i64 step_;
  std::vector<NodePtr> body_;
};

/// A straight-line statement: a bundle of array accesses plus the number of
/// processor cycles one instance spends on computation (excluding memory).
class StmtNode final : public Node {
 public:
  StmtNode(std::string name, i64 op_cycles)
      : Node(Kind::Stmt), name_(std::move(name)), op_cycles_(op_cycles) {}

  const std::string& name() const { return name_; }
  i64 op_cycles() const { return op_cycles_; }

  const std::vector<ArrayAccess>& accesses() const { return accesses_; }
  void add_access(ArrayAccess access) { accesses_.push_back(std::move(access)); }

 private:
  std::string name_;
  i64 op_cycles_;
  std::vector<ArrayAccess> accesses_;
};

}  // namespace mhla::ir
