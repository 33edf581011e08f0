#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assign/assignment.h"
#include "ir/program.h"

namespace mhla::core {

/// Owns one program plus every analysis and platform model needed to run
/// MHLA on it.  Non-movable: access sites hold pointers into the program.
class Workspace {
 public:
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  const ir::Program& program() const { return program_; }
  const mem::Hierarchy& hierarchy() const { return hierarchy_; }
  const mem::DmaEngine& dma() const { return dma_; }
  const std::vector<analysis::AccessSite>& sites() const { return sites_; }
  const analysis::ReuseAnalysis& reuse() const { return reuse_; }

  /// Borrowed view bundling everything for the assign/te/sim passes.
  assign::AssignContext context() const {
    return assign::AssignContext{program_, sites_, reuse_, live_, deps_, hierarchy_, dma_};
  }

 private:
  friend std::unique_ptr<Workspace> make_workspace(ir::Program, const mem::PlatformConfig&,
                                                   const mem::DmaEngine&);
  Workspace(ir::Program program, const mem::PlatformConfig& platform, const mem::DmaEngine& dma);

  ir::Program program_;
  mem::Hierarchy hierarchy_;
  mem::DmaEngine dma_;
  std::vector<analysis::AccessSite> sites_;
  analysis::ReuseAnalysis reuse_;
  std::map<std::string, analysis::LiveRange> live_;
  analysis::DependenceInfo deps_;
};

/// Build a workspace: validates the program and runs all program-level
/// analyses once.
std::unique_ptr<Workspace> make_workspace(ir::Program program,
                                          const mem::PlatformConfig& platform = {},
                                          const mem::DmaEngine& dma = {});

}  // namespace mhla::core
