#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/report_table.h"
#include "helpers.h"

namespace mhla::core {
namespace {

TEST(EndToEnd, QuickstartShapedRun) {
  using ir::av;
  ir::ProgramBuilder pb("e2e");
  pb.array("matrix", {64, 64}, 4).input();
  pb.array("vec", {64}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("row", 0, 64);
  pb.begin_loop("col", 0, 64);
  pb.stmt("mac", 1).read("matrix", {av("row"), av("col")}).read("vec", {av("col")});
  pb.end_loop();
  pb.stmt("store", 1).write("out", {av("row")});
  pb.end_loop();

  PipelineConfig config;
  config.platform = testing::small_platform();
  PipelineResult run = Pipeline(config).run(pb.finish());

  // The optimizer must have done something: selected copies, migrated
  // arrays on-chip, or both.
  EXPECT_FALSE(run.search.moves.empty());
  EXPECT_LT(run.points.mhla.total_cycles(), run.points.out_of_box.total_cycles());
  EXPECT_LT(run.points.mhla.energy_nj, run.points.out_of_box.energy_nj);
}

TEST(EndToEnd, WorkspaceRejectsInvalidProgram) {
  using ir::av;
  ir::ProgramBuilder pb("bad");
  pb.array("a", {4}, 4);
  pb.begin_loop("i", 0, 8);  // overruns a[4]
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  EXPECT_THROW(make_workspace(pb.finish()), std::invalid_argument);
}

TEST(EndToEnd, TargetsProduceDifferentTradeoffs) {
  // Energy-optimal and time-optimal runs must both be valid; the energy run
  // must have energy <= the time run's energy (it optimizes exactly that).
  auto ws = make_workspace(apps::build_cavity_detection(), {}, {});
  PipelineConfig config;
  config.target = assign::Target::Energy;
  PipelineResult energy_run = Pipeline(config).run(*ws);
  config.target = assign::Target::Time;
  PipelineResult time_run = Pipeline(config).run(*ws);
  EXPECT_LE(energy_run.points.mhla.energy_nj, time_run.points.mhla.energy_nj + 1e-6);
  EXPECT_LE(time_run.points.mhla.total_cycles(),
            energy_run.points.mhla.total_cycles() + 1e-6);
}

TEST(EndToEnd, ReportTableRendersAllApps) {
  Table table({"application", "MHLA %", "TE %"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    table.add_row({info.name, Table::num(50.0), Table::num(40.0)});
  }
  std::string text = table.str();
  for (const apps::AppInfo& info : apps::all_apps()) {
    EXPECT_NE(text.find(info.name), std::string::npos);
  }
  EXPECT_NE(text.find("application"), std::string::npos);
}

TEST(ReportTable, AlignmentAndNumbers) {
  Table table({"a", "b"});
  table.add_row({"x", Table::num(3.14159, 2)});
  std::string text = table.str();
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_EQ(text.find("3.142"), std::string::npos);
}

TEST(EndToEnd, Figure2ClaimOnNineApps) {
  // Paper Figure 2: step 1 improves performance by 40-60% "for specific
  // memory sizes"; TE adds more, approaching ideal.  We assert the
  // reproduction-grade envelope: every app improves by at least 30%, and
  // TE never loses to plain MHLA.
  Pipeline pipeline(PipelineConfig{});
  for (const apps::AppInfo& info : apps::all_apps()) {
    const std::string& name = info.name;
    const PipelineResult run = pipeline.run(info.build());
    double mhla_pct = 100.0 * run.points.mhla.total_cycles() /
                      run.points.out_of_box.total_cycles();
    EXPECT_LE(mhla_pct, 70.0) << name << ": step 1 too weak";
    EXPECT_LE(run.points.mhla_te.total_cycles(), run.points.mhla.total_cycles()) << name;
  }
}

TEST(EndToEnd, ReproductionBandsStayPut) {
  // Generous envelopes around the measured Figure 2/3 values recorded in
  // EXPERIMENTS.md.  If a model change pushes any app outside these bands,
  // the reproduction story changed and EXPERIMENTS.md must be re-examined.
  Pipeline pipeline(PipelineConfig{});
  for (const apps::AppInfo& info : apps::all_apps()) {
    const sim::FourPoint fp = pipeline.run(info.build()).points;
    double time_pct =
        100.0 * fp.mhla.total_cycles() / fp.out_of_box.total_cycles();
    double te_pct =
        100.0 * fp.mhla_te.total_cycles() / fp.out_of_box.total_cycles();
    double energy_pct = 100.0 * fp.mhla.energy_nj / fp.out_of_box.energy_nj;
    EXPECT_GE(time_pct, 3.0) << info.name << ": implausibly fast, model broken?";
    EXPECT_LE(time_pct, 60.0) << info.name << ": step 1 regressed";
    EXPECT_LE(te_pct, time_pct + 1e-9) << info.name;
    EXPECT_GE(energy_pct, 3.0) << info.name;
    EXPECT_LE(energy_pct, 75.0) << info.name << ": energy gain regressed";
  }
  // TE must remain visibly useful on at least one stencil app.
  PipelineResult run = pipeline.run(apps::build_cavity_detection());
  double gain_pp = 100.0 *
                   (run.points.mhla.total_cycles() - run.points.mhla_te.total_cycles()) /
                   run.points.out_of_box.total_cycles();
  EXPECT_GE(gain_pp, 5.0) << "TE stopped mattering on cavity_detection";
}

TEST(EndToEnd, Figure3ClaimOnNineApps) {
  // Paper Figure 3: energy reduced significantly, up to 70%.
  Pipeline pipeline(PipelineConfig{});
  double best_reduction = 0.0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    const sim::FourPoint fp = pipeline.run(info.build()).points;
    double reduction = 1.0 - fp.mhla.energy_nj / fp.out_of_box.energy_nj;
    EXPECT_GT(reduction, 0.0) << info.name;
    best_reduction = std::max(best_reduction, reduction);
  }
  EXPECT_GE(best_reduction, 0.6);  // "up to 70%"
}

}  // namespace
}  // namespace mhla::core
