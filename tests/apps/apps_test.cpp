#include "apps/registry.h"

#include <gtest/gtest.h>

#include <set>

#include "analysis/reuse.h"
#include "core/pipeline.h"
#include "helpers.h"
#include "ir/validate.h"

namespace mhla::apps {
namespace {

TEST(Registry, HasExactlyNineApplications) {
  EXPECT_EQ(all_apps().size(), 9u);  // the paper evaluates nine
}

TEST(Registry, NamesAreUniqueAndDomainsCoverPaper) {
  std::set<std::string> names;
  std::set<std::string> domains;
  for (const AppInfo& info : all_apps()) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
    domains.insert(info.domain);
    EXPECT_FALSE(info.description.empty());
  }
  // Paper: "motion estimation, video encoding, image and audio processing".
  EXPECT_TRUE(domains.count("motion estimation"));
  EXPECT_TRUE(domains.count("video encoding"));
  EXPECT_TRUE(domains.count("image processing"));
  EXPECT_TRUE(domains.count("audio processing"));
}

TEST(Registry, BuildAppByName) {
  ir::Program p = build_app("motion_estimation");
  EXPECT_EQ(p.name(), "motion_estimation");
  EXPECT_THROW(build_app("nonexistent"), std::out_of_range);
}

class PerApp : public ::testing::TestWithParam<AppInfo> {};

TEST_P(PerApp, BuildsAndValidates) {
  ir::Program p = GetParam().build();
  EXPECT_EQ(p.name(), GetParam().name);
  EXPECT_TRUE(ir::validate(p).empty());
}

TEST_P(PerApp, HasArraysAndNests) {
  ir::Program p = GetParam().build();
  EXPECT_GE(p.arrays().size(), 3u);
  EXPECT_GE(p.top().size(), 1u);
  EXPECT_GT(p.total_array_bytes(), 0);
}

TEST_P(PerApp, HasInputsAndOutputs) {
  ir::Program p = GetParam().build();
  bool has_input = false;
  bool has_output = false;
  for (const ir::ArrayDecl& array : p.arrays()) {
    has_input |= array.is_input;
    has_output |= array.is_output;
  }
  EXPECT_TRUE(has_input);
  EXPECT_TRUE(has_output);
}

TEST_P(PerApp, ExposesRealReuse) {
  // Every benchmark must contain at least one copy candidate with a reuse
  // factor > 1 that fits a 16 KiB scratchpad — otherwise MHLA has nothing
  // to exploit and the app would not support the paper's claims.
  ir::Program p = GetParam().build();
  auto sites = analysis::collect_sites(p);
  auto reuse = analysis::ReuseAnalysis::run(p, sites);
  bool exploitable = false;
  for (const analysis::CopyCandidate& cc : reuse.candidates()) {
    if (cc.reuse_factor() > 1.0 && cc.bytes <= 16 * 1024) exploitable = true;
  }
  EXPECT_TRUE(exploitable);
}

TEST_P(PerApp, MhlaImprovesTimeAndEnergy) {
  core::PipelineResult run = core::Pipeline(core::PipelineConfig{}).run(GetParam().build());
  const sim::FourPoint& fp = run.points;
  EXPECT_LT(fp.mhla.total_cycles(), fp.out_of_box.total_cycles());
  EXPECT_LT(fp.mhla.energy_nj, fp.out_of_box.energy_nj);
  EXPECT_LE(fp.mhla_te.total_cycles(), fp.mhla.total_cycles());
  EXPECT_LE(fp.ideal.total_cycles(), fp.mhla_te.total_cycles());
  EXPECT_TRUE(fp.mhla.feasible);
  EXPECT_TRUE(fp.mhla_te.feasible);
}

INSTANTIATE_TEST_SUITE_P(AllNine, PerApp, ::testing::ValuesIn(all_apps()),
                         [](const ::testing::TestParamInfo<AppInfo>& info) {
                           return info.param.name;
                         });

TEST(AppStructure, MotionEstimationBlockSizes) {
  ir::Program p = build_motion_estimation();
  EXPECT_EQ(p.array("cur").dims, (std::vector<ir::i64>{144, 176}));
  EXPECT_EQ(p.array("ref").dims, (std::vector<ir::i64>{160, 192}));  // +8 pad
  EXPECT_EQ(p.top().size(), 2u);  // capture + search
}

TEST(AppStructure, QsdpcmPyramidShrinks) {
  ir::Program p = build_qsdpcm();
  EXPECT_LT(p.array("s2cur").bytes(), p.array("cur").bytes());
  EXPECT_LT(p.array("s4cur").bytes(), p.array("s2cur").bytes());
}

TEST(AppStructure, JpegTablesAreTiny) {
  ir::Program p = build_jpeg_compress();
  EXPECT_LE(p.array("qtab").bytes(), 256);
  EXPECT_LE(p.array("zig").bytes(), 256);
}

TEST(AppStructure, AdpcmIsTwoPass) {
  ir::Program p = build_adpcm_coder();
  EXPECT_EQ(p.top().size(), 2u);
}

TEST(AppStructure, WaveletIntermediatesDieEarly) {
  ir::Program p = build_wavelet();
  auto sites = analysis::collect_sites(p);
  auto ranges = analysis::array_live_ranges(p, sites);
  // lowH is produced in nest 0 and consumed in nest 1 only.
  EXPECT_EQ(ranges["lowH"].first, 0);
  EXPECT_EQ(ranges["lowH"].last, 1);
}

}  // namespace
}  // namespace mhla::apps
