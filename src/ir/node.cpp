#include "ir/node.h"

#include <stdexcept>

namespace mhla::ir {

const LoopNode& Node::as_loop() const {
  if (!is_loop()) throw std::logic_error("Node::as_loop called on a statement");
  return static_cast<const LoopNode&>(*this);
}

void LoopNode::trip_overflow() const {
  throw std::overflow_error("loop '" + iter_ + "': trip count overflows i64");
}

const StmtNode& Node::as_stmt() const {
  if (!is_stmt()) throw std::logic_error("Node::as_stmt called on a loop");
  return static_cast<const StmtNode&>(*this);
}

}  // namespace mhla::ir
