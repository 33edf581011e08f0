// End-to-end equivalence through the text format: a program that round-trips
// through serialize/parse must produce bit-identical analysis and
// optimization results — the property that makes `.mhla` files a reliable
// tool boundary.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "ir/transform.h"

namespace mhla {
namespace {

class SerializedPipeline : public ::testing::TestWithParam<apps::AppInfo> {};

TEST_P(SerializedPipeline, IdenticalOptimizationResults) {
  ir::Program original = GetParam().build();
  ir::Program reparsed = ir::parse_program(ir::serialize(original));

  auto ws1 = core::make_workspace(std::move(original), {}, {});
  auto ws2 = core::make_workspace(std::move(reparsed), {}, {});

  EXPECT_EQ(ws1->sites().size(), ws2->sites().size());
  EXPECT_EQ(ws1->reuse().candidates().size(), ws2->reuse().candidates().size());

  core::Pipeline pipeline(core::PipelineConfig{});
  core::PipelineResult run1 = pipeline.run(*ws1);
  core::PipelineResult run2 = pipeline.run(*ws2);
  EXPECT_DOUBLE_EQ(run1.points.mhla.total_cycles(), run2.points.mhla.total_cycles());
  EXPECT_DOUBLE_EQ(run1.points.mhla.energy_nj, run2.points.mhla.energy_nj);
  EXPECT_DOUBLE_EQ(run1.points.mhla_te.total_cycles(), run2.points.mhla_te.total_cycles());
  EXPECT_EQ(run1.search.assignment.copies.size(), run2.search.assignment.copies.size());
}

INSTANTIATE_TEST_SUITE_P(AllNine, SerializedPipeline, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

/// Preorder (program) position of every loop of `program`.
std::map<const ir::LoopNode*, int> loop_positions(const ir::Program& program) {
  std::map<const ir::LoopNode*, int> positions;
  auto visit = [&](const auto& self, const ir::Node& node) -> void {
    if (!node.is_loop()) return;
    positions.emplace(&node.as_loop(), static_cast<int>(positions.size()));
    for (const ir::NodePtr& child : node.as_loop().body()) self(self, *child);
  };
  for (const ir::NodePtr& top : program.top()) visit(visit, *top);
  return positions;
}

/// Every field of every copy candidate, with the fixed loops named by their
/// program position, so candidate lists of two copies compare as text.
std::string describe_candidates(const core::Workspace& ws) {
  std::map<const ir::LoopNode*, int> positions = loop_positions(ws.program());
  std::ostringstream out;
  for (const analysis::CopyCandidate& cc : ws.reuse().candidates()) {
    out << cc.id << " " << cc.array << "#" << cc.array_id << " nest " << cc.nest << " level "
        << cc.level << " elems " << cc.elems << " bytes " << cc.bytes << " transfers "
        << cc.transfers << " per " << cc.elems_per_transfer << " r " << cc.reads_served << " w "
        << cc.writes_served << " fill_free " << cc.fill_free << " sites";
    for (int site : cc.site_ids) out << " " << site;
    out << " prefix";
    for (const ir::LoopNode* loop : cc.prefix) out << " " << positions.at(loop);
    out << "\n";
  }
  return out.str();
}

// mpeg2_encoder, jpeg_compress and fft_filter have copy candidates that tie
// on (array, nest, level) under sibling loops.  Their ids once followed the
// heap addresses of those loops, so a built and a parsed copy of the same
// program could number them differently — and anneal, which walks
// candidates by id, then returned different results.
class TiedCandidates : public ::testing::TestWithParam<std::string> {};

TEST_P(TiedCandidates, IdsFollowProgramOrderNotAllocation) {
  ir::Program built = apps::build_app(GetParam());
  ir::Program parsed = ir::parse_program(ir::serialize(built));
  auto ws_built = core::make_workspace(std::move(built), {}, {});
  auto ws_parsed = core::make_workspace(std::move(parsed), {}, {});
  EXPECT_EQ(describe_candidates(*ws_built), describe_candidates(*ws_parsed));

  // Ties are ordered by the program position of the innermost fixed loop.
  std::map<const ir::LoopNode*, int> positions = loop_positions(ws_built->program());
  const auto& candidates = ws_built->reuse().candidates();
  int ties = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const analysis::CopyCandidate& a = candidates[i - 1];
    const analysis::CopyCandidate& b = candidates[i];
    if (a.array != b.array || a.nest != b.nest || a.level != b.level) continue;
    ++ties;
    EXPECT_LT(positions.at(a.prefix.back()), positions.at(b.prefix.back())) << a.id;
  }
  EXPECT_GT(ties, 0) << "the app no longer has tied candidates";

  core::PipelineConfig config;
  config.strategy = "anneal";
  core::Pipeline pipeline(config);
  core::PipelineResult a = pipeline.run(*ws_built);
  core::PipelineResult b = pipeline.run(*ws_parsed);
  EXPECT_TRUE(a.search.assignment == b.search.assignment);
  EXPECT_EQ(a.search.scalar, b.search.scalar);
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  const sim::SimResult* pa[] = {&a.points.out_of_box, &a.points.mhla, &a.points.mhla_te,
                                &a.points.ideal};
  const sim::SimResult* pb[] = {&b.points.out_of_box, &b.points.mhla, &b.points.mhla_te,
                                &b.points.ideal};
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(pa[k]->total_cycles(), pb[k]->total_cycles()) << k;
    EXPECT_EQ(pa[k]->energy_nj, pb[k]->energy_nj) << k;
    EXPECT_EQ(pa[k]->stall_cycles, pb[k]->stall_cycles) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreeApps, TiedCandidates,
                         ::testing::Values("mpeg2_encoder", "jpeg_compress", "fft_filter"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(TransformedPipeline, TilingPreservesBaselineSemantics) {
  // Tiling changes the candidate set but not the program's work: baseline
  // (out-of-box) cost must be identical before and after tiling.
  ir::ProgramBuilder pb("t");
  using ir::av;
  pb.array("tab", {4096}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("rep", 0, 64);
  pb.begin_loop("i", 0, 4096);
  pb.stmt("use", 2).read("tab", {av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("rep")});
  pb.end_loop();
  ir::Program flat = pb.finish();
  ir::Program tiled = ir::tile_loop(flat, "i", 128);

  auto ws_flat = core::make_workspace(std::move(flat), {}, {});
  auto ws_tiled = core::make_workspace(std::move(tiled), {}, {});
  auto base_flat = sim::simulate(ws_flat->context(), assign::out_of_box(ws_flat->context()));
  auto base_tiled = sim::simulate(ws_tiled->context(), assign::out_of_box(ws_tiled->context()));
  EXPECT_DOUBLE_EQ(base_flat.total_cycles(), base_tiled.total_cycles());
  EXPECT_DOUBLE_EQ(base_flat.energy_nj, base_tiled.energy_nj);
}

TEST(TransformedPipeline, TilingNeverHurtsOptimizedCost) {
  // MHLA on the tiled program can at worst ignore the new candidates.
  ir::ProgramBuilder pb("t2");
  using ir::av;
  pb.array("tab", {8192}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("rep", 0, 64);
  pb.begin_loop("i", 0, 8192);
  pb.stmt("use", 2).read("tab", {av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("rep")});
  pb.end_loop();
  ir::Program flat = pb.finish();
  ir::Program tiled = ir::tile_loop(flat, "i", 256);

  core::PipelineConfig config;
  config.platform.l1_bytes = 2 * 1024;
  config.platform.l2_bytes = 0;
  core::Pipeline pipeline(config);
  core::PipelineResult flat_run = pipeline.run(std::move(flat));
  core::PipelineResult tiled_run = pipeline.run(std::move(tiled));
  EXPECT_LE(tiled_run.points.mhla_te.total_cycles(),
            flat_run.points.mhla_te.total_cycles() + 1e-9);
}

}  // namespace
}  // namespace mhla
