#include "core/workspace.h"

#include "ir/validate.h"

namespace mhla::core {

Workspace::Workspace(ir::Program program, const mem::PlatformConfig& platform,
                     const mem::DmaEngine& dma)
    : program_(std::move(program)),
      hierarchy_(mem::make_hierarchy(platform)),
      dma_(dma),
      sites_(analysis::collect_sites(program_)),
      reuse_(analysis::ReuseAnalysis::run(program_, sites_)),
      live_(analysis::array_live_ranges(program_, sites_)),
      deps_(analysis::DependenceInfo::run(program_, sites_)) {}

std::unique_ptr<Workspace> make_workspace(ir::Program program, const mem::PlatformConfig& platform,
                                          const mem::DmaEngine& dma) {
  ir::validate_or_throw(program);
  return std::unique_ptr<Workspace>(new Workspace(std::move(program), platform, dma));
}

}  // namespace mhla::core
