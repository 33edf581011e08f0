#include "ir/program.h"

#include <stdexcept>

namespace mhla::ir {

const ArrayDecl& Program::add_array(ArrayDecl decl) {
  if (decl.name.empty()) {
    throw std::invalid_argument("Program::add_array: empty array name");
  }
  if (array_index_.count(decl.name)) {
    throw std::invalid_argument("Program::add_array: duplicate array '" + decl.name + "'");
  }
  if (decl.dims.empty() || decl.elem_bytes <= 0) {
    throw std::invalid_argument("Program::add_array: degenerate shape for '" + decl.name + "'");
  }
  for (i64 d : decl.dims) {
    if (d <= 0) {
      throw std::invalid_argument("Program::add_array: non-positive extent in '" + decl.name + "'");
    }
  }
  try {
    (void)decl.bytes();
  } catch (const std::overflow_error&) {
    throw std::invalid_argument("Program::add_array: size of '" + decl.name +
                                "' overflows i64");
  }
  array_index_[decl.name] = arrays_.size();
  arrays_.push_back(std::move(decl));
  return arrays_.back();
}

const ArrayDecl* Program::find_array(const std::string& name) const {
  auto it = array_index_.find(name);
  return it == array_index_.end() ? nullptr : &arrays_[it->second];
}

const ArrayDecl& Program::array(const std::string& name) const {
  const ArrayDecl* found = find_array(name);
  if (!found) throw std::out_of_range("Program::array: unknown array '" + name + "'");
  return *found;
}

i64 Program::total_array_bytes() const {
  i64 total = 0;
  for (const ArrayDecl& a : arrays_) total += a.bytes();
  return total;
}

}  // namespace mhla::ir
