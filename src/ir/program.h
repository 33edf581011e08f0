#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/array.h"
#include "ir/node.h"

namespace mhla::ir {

/// A whole application: array declarations plus an ordered sequence of
/// top-level loop nests ("phases").  The top-level order is the program's
/// coarse execution order, which drives lifetime and dependence analysis.
class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}

  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  const std::string& name() const { return name_; }

  /// Declare an array; returns a stable reference.
  /// Throws std::invalid_argument on duplicate names, degenerate shapes or
  /// a byte size that overflows i64.
  const ArrayDecl& add_array(ArrayDecl decl);

  const std::vector<ArrayDecl>& arrays() const { return arrays_; }

  /// Lookup by name; nullptr if absent.
  const ArrayDecl* find_array(const std::string& name) const;

  /// Lookup by name; throws std::out_of_range if absent.
  const ArrayDecl& array(const std::string& name) const;

  const std::vector<NodePtr>& top() const { return top_; }
  void append_top(NodePtr node) { top_.push_back(std::move(node)); }

  /// Total bytes of all declared arrays.
  i64 total_array_bytes() const;

 private:
  std::string name_;
  std::vector<ArrayDecl> arrays_;
  std::map<std::string, std::size_t> array_index_;
  std::vector<NodePtr> top_;
};

}  // namespace mhla::ir
