#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/json.h"
#include "core/json_report.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracle/oracle.h"

namespace mhla::core {
namespace {

/// Exact (bit-level) comparison of two simulation results.
void expect_same_result(const sim::SimResult& a, const sim::SimResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << where;
  EXPECT_EQ(a.access_cycles, b.access_cycles) << where;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << where;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << where;
  EXPECT_EQ(a.dma_busy_cycles, b.dma_busy_cycles) << where;
  EXPECT_EQ(a.num_block_transfers, b.num_block_transfers) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  ASSERT_EQ(a.layers.size(), b.layers.size()) << where;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].reads, b.layers[i].reads) << where;
    EXPECT_EQ(a.layers[i].writes, b.layers[i].writes) << where;
    EXPECT_EQ(a.layers[i].energy_nj, b.layers[i].energy_nj) << where;
  }
  EXPECT_EQ(a.nest_cycles, b.nest_cycles) << where;
  EXPECT_EQ(a.footprints.peak_bytes, b.footprints.peak_bytes) << where;
  EXPECT_EQ(a.footprints.usage, b.footprints.usage) << where;
  EXPECT_EQ(a.footprints.feasible, b.footprints.feasible) << where;
  EXPECT_EQ(a.stop, b.stop) << where;
}

void expect_same_points(const sim::FourPoint& a, const sim::FourPoint& b,
                        const std::string& app) {
  expect_same_result(a.out_of_box, b.out_of_box, app + "/out_of_box");
  expect_same_result(a.mhla, b.mhla, app + "/mhla");
  expect_same_result(a.mhla_te, b.mhla_te, app + "/mhla_te");
  expect_same_result(a.ideal, b.ideal, app + "/ideal");
}

/// A config with every field moved off its default, for round-trip tests.
PipelineConfig custom_config() {
  PipelineConfig config;
  config.platform.l1_bytes = 2048;
  config.platform.l2_bytes = 0;
  config.platform.sram.base_energy_nj = 0.03;
  config.platform.sram.slope_energy_nj = 0.004;
  config.platform.sram.write_factor = 1.25;
  config.platform.sram.base_latency = 2;
  config.platform.sram.latency_step_bytes = 16 * 1024;
  config.platform.sram.bytes_per_cycle = 4.0;
  config.platform.sdram.read_energy_nj = 5.5;
  config.platform.sdram.write_energy_nj = 6.1;
  config.platform.sdram.read_latency = 25;
  config.platform.sdram.write_latency = 28;
  config.platform.sdram.bytes_per_cycle = 1.5;
  config.dma.present = false;
  config.dma.setup_cycles = 42;
  config.dma.bytes_per_cycle = 3.5;
  config.dma.channels = 2;
  config.strategy = "bnb";
  config.target = assign::Target::Energy;
  config.search.energy_weight = 0.75;
  config.search.time_weight = 0.25;
  config.search.max_moves = 500;
  config.search.max_states = 12345;
  config.search.allow_array_migration = false;
  config.search.bnb_threads = 6;
  config.search.bnb_seed_incumbent = false;
  config.te.order = te::ExtensionOrder::BySizeDescending;
  config.te.max_lookahead = 5;
  config.te.charge_cold_start = true;
  config.num_threads = 3;
  return config;
}

/// The four bars from one independent `sim::simulate` per bar: the
/// reference the pipeline's derived blocking and ideal bars are pinned
/// against.  The TE bar follows the pipeline's rule (blocking without a DMA
/// engine).
sim::FourPoint independent_points(const assign::AssignContext& ctx,
                                  const assign::Assignment& step1) {
  const te::TransferMode te_mode =
      ctx.dma.present ? te::TransferMode::TimeExtended : te::TransferMode::Blocking;
  sim::FourPoint points;
  points.out_of_box = sim::simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}});
  points.mhla = sim::simulate(ctx, step1, {te::TransferMode::Blocking, {}});
  points.mhla_te = sim::simulate(ctx, step1, {te_mode, {}});
  points.ideal = sim::simulate(ctx, step1, {te::TransferMode::Ideal, {}});
  return points;
}

/// The pipeline's result assembled by hand from the from-scratch greedy
/// oracle and the four independent reference simulations.
struct OracleRun {
  assign::SearchResult search;
  sim::FourPoint points;
};

OracleRun oracle_run(const Workspace& ws, assign::Target target) {
  assign::AssignContext ctx = ws.context();
  assign::SearchOptions options;
  options.set_target(target);
  OracleRun run{oracle::greedy(ctx, options), {}};
  run.points = independent_points(ctx, run.search.assignment);
  return run;
}

/// One greedy pipeline run on `program` against the oracle run.
void expect_matches_oracle(ir::Program program, const std::string& name,
                           const mem::PlatformConfig& platform, const mem::DmaEngine& dma) {
  auto ws = make_workspace(std::move(program), platform, dma);
  OracleRun expected = oracle_run(*ws, assign::Target::Balanced);

  PipelineConfig config;
  config.platform = platform;
  config.dma = dma;
  PipelineResult result = Pipeline(config).run(*ws);

  expect_same_points(result.points, expected.points, name);
  EXPECT_EQ(result.search.assignment, expected.search.assignment) << name;
  EXPECT_EQ(result.search.scalar, expected.search.scalar) << name;
  EXPECT_EQ(result.search.evaluations, expected.search.evaluations) << name;
}

TEST(Pipeline, GreedyStrategyMatchesTheOracleBitIdenticallyOnAllNineApps) {
  // The facade with the default "greedy" strategy must not move a single
  // bit relative to the from-scratch greedy oracle + one independent
  // simulation per bar, with and without a DMA engine, over a slice of the
  // L1/L2 lattice (tight, default and roomy) and on seeded random programs.
  for (bool dma_present : {true, false}) {
    mem::DmaEngine dma;
    dma.present = dma_present;
    const std::string suffix = dma_present ? " dma" : " no-dma";
    for (const apps::AppInfo& info : apps::all_apps()) {
      for (ir::i64 l1 : {256, 4096, 65536}) {
        for (ir::i64 l2 : {0, 128 * 1024}) {
          mem::PlatformConfig platform;
          platform.l1_bytes = l1;
          platform.l2_bytes = l2;
          expect_matches_oracle(info.build(),
                                info.name + " L1 " + std::to_string(l1) + " L2 " +
                                    std::to_string(l2) + suffix,
                                platform, dma);
        }
      }
    }
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      expect_matches_oracle(gen::random_program(seed), "seed " + std::to_string(seed) + suffix,
                            {}, dma);
    }
  }
}

TEST(Pipeline, MatchesTheOracleForEveryTarget) {
  auto ws = make_workspace(apps::build_cavity_detection(), {}, {});
  for (assign::Target target :
       {assign::Target::Energy, assign::Target::Time, assign::Target::Balanced}) {
    OracleRun expected = oracle_run(*ws, target);
    PipelineConfig config;
    config.target = target;
    PipelineResult result = Pipeline(config).run(*ws);
    expect_same_points(result.points, expected.points, assign::to_string(target));
  }
}

TEST(Pipeline, RunFromProgramMatchesRunFromWorkspace) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  Pipeline pipeline(config);
  auto ws = make_workspace(testing::blocked_reuse_program(), config.platform, config.dma);
  PipelineResult from_ws = pipeline.run(*ws);
  PipelineResult from_program = pipeline.run(testing::blocked_reuse_program());
  expect_same_points(from_program.points, from_ws.points, "blocked");
}

TEST(Pipeline, UnknownStrategyThrowsAtConstruction) {
  PipelineConfig config;
  config.strategy = "simulated-annealing";
  EXPECT_THROW(Pipeline pipeline(config), std::out_of_range);
}

TEST(Pipeline, ReportsStagesAndTimings) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  Pipeline pipeline(config);
  std::vector<std::string> seen;
  pipeline.set_progress([&](const std::string& stage, double) { seen.push_back(stage); });
  PipelineResult result = pipeline.run(testing::blocked_reuse_program());

  std::vector<std::string> expected = {"analyze", "assign", "time_extend", "simulate"};
  EXPECT_EQ(seen, expected);
  ASSERT_EQ(result.timings.size(), expected.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.timings[i].stage, expected[i]);
    EXPECT_GE(result.timings[i].seconds, 0.0);
    sum += result.timings[i].seconds;
  }
  EXPECT_DOUBLE_EQ(result.total_seconds, sum);
}

TEST(Pipeline, TePassCutByTheRunBudgetDegradesTheResult) {
  // A probe allowance one past the search's own probes: the search
  // completes, the TE pass after it is cut, and the run must say so
  // instead of reporting the search's status next to a truncated point.
  for (const char* strategy : {"greedy", "bnb"}) {
    PipelineConfig config;
    config.strategy = strategy;
    auto ws = make_workspace(apps::build_app("conv_filter"), config.platform, config.dma);
    const PipelineResult full = Pipeline(config).run(*ws);
    ASSERT_NE(full.search.status, assign::SearchStatus::BudgetExhausted) << strategy;
    EXPECT_EQ(full.points.mhla_te.stop, core::StopReason::None) << strategy;
    EXPECT_EQ(full.search.stop, core::StopReason::None) << strategy;

    config.search.budget.max_probes = testing::search_probes(*ws, config) + 1;
    const PipelineResult cut = Pipeline(config).run(*ws);
    EXPECT_EQ(cut.search.assignment, full.search.assignment) << strategy;
    EXPECT_NE(cut.points.mhla_te.total_cycles(), full.points.mhla_te.total_cycles()) << strategy;
    EXPECT_EQ(cut.points.mhla_te.stop, core::StopReason::ProbeBudget) << strategy;
    EXPECT_EQ(cut.search.status, assign::SearchStatus::BudgetExhausted) << strategy;
    EXPECT_EQ(cut.search.stop, core::StopReason::ProbeBudget) << strategy;
  }
}

TEST(Pipeline, TePassCutLeavesTheStepOneBarsWhole) {
  // A probe allowance that lets the search finish and cuts the TE pass
  // after it accepted an extension.  The blocking and ideal bars describe
  // the step-1 assignment alone: they must equal independent, uncut
  // simulations bit for bit, never inherit the truncated TE point's stop
  // or its TE-extended footprints.
  PipelineConfig config;
  auto ws = make_workspace(apps::build_app("conv_filter"), config.platform, config.dma);
  const long search_probes = testing::search_probes(*ws, config);
  const PipelineResult full = Pipeline(config).run(*ws);
  const sim::FourPoint independent = independent_points(ws->context(), full.search.assignment);
  ASSERT_NE(full.points.mhla_te.footprints.usage, independent.mhla.footprints.usage)
      << "TE must extend a buffer for the cut to be visible in the footprints";

  bool cut_after_an_extension = false;
  for (long extra = 1; extra <= 256 && !cut_after_an_extension; ++extra) {
    config.search.budget.max_probes = search_probes + extra;
    const PipelineResult cut = Pipeline(config).run(*ws);
    ASSERT_EQ(cut.points.mhla_te.stop, core::StopReason::ProbeBudget) << extra;
    ASSERT_EQ(cut.search.assignment, full.search.assignment) << extra;
    const std::string where = "allowance +" + std::to_string(extra);
    expect_same_result(cut.points.mhla, independent.mhla, where + "/mhla");
    expect_same_result(cut.points.ideal, independent.ideal, where + "/ideal");
    EXPECT_EQ(cut.points.mhla.stop, core::StopReason::None) << where;
    EXPECT_EQ(cut.points.ideal.stop, core::StopReason::None) << where;
    cut_after_an_extension =
        cut.points.mhla_te.footprints.usage != independent.mhla.footprints.usage;
  }
  EXPECT_TRUE(cut_after_an_extension);
}

TEST(PipelineConfigJson, DefaultConfigRoundTrips) {
  PipelineConfig config;
  EXPECT_EQ(pipeline_config_from_json(to_json(config)), config);
}

TEST(PipelineConfigJson, CustomConfigRoundTripsLosslessly) {
  PipelineConfig config = custom_config();
  PipelineConfig parsed = pipeline_config_from_json(to_json(config));
  EXPECT_EQ(parsed, config);
  // And the emitted text is stable across one round trip.
  EXPECT_EQ(to_json(parsed), to_json(config));
}

TEST(PipelineConfigJson, PartialDocumentsKeepDefaults) {
  PipelineConfig parsed = pipeline_config_from_json(
      R"({"strategy": "bnb", "platform": {"l1_bytes": 512}})");
  EXPECT_EQ(parsed.strategy, "bnb");
  EXPECT_EQ(parsed.platform.l1_bytes, 512);
  PipelineConfig defaults;
  EXPECT_EQ(parsed.platform.l2_bytes, defaults.platform.l2_bytes);
  EXPECT_EQ(parsed.te, defaults.te);
  EXPECT_EQ(parsed.search, defaults.search);
}

TEST(PipelineConfigJson, BnbParKnobsRoundTrip) {
  // The parallel branch-and-bound knobs ride in the search block: partial
  // documents set them, dumps carry them, and the round trip is lossless
  // (CustomConfigRoundTripsLosslessly covers non-default values).
  PipelineConfig parsed = pipeline_config_from_json(
      R"({"strategy": "bnb-par",
          "search": {"bnb_threads": 4, "bnb_seed_incumbent": false}})");
  EXPECT_EQ(parsed.strategy, "bnb-par");
  EXPECT_EQ(parsed.search.bnb_threads, 4u);
  EXPECT_FALSE(parsed.search.bnb_seed_incumbent);

  std::string dumped = to_json(PipelineConfig{});
  EXPECT_NE(dumped.find("bnb_threads"), std::string::npos);
  EXPECT_NE(dumped.find("bnb_seed_incumbent"), std::string::npos);
}

TEST(PipelineConfigJson, MalformedInputGivesClearErrors) {
  // Syntax error: position included.
  try {
    pipeline_config_from_json("{\"strategy\": }");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("JSON parse error"), std::string::npos) << e.what();
  }
  // Unknown key: named.
  try {
    pipeline_config_from_json(R"({"stratgy": "greedy"})");
    FAIL() << "expected an unknown-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stratgy"), std::string::npos) << e.what();
  }
  // Nested unknown key: path included.
  EXPECT_THROW(pipeline_config_from_json(R"({"platform": {"l3_bytes": 1}})"),
               std::invalid_argument);
  // Type mismatch.
  EXPECT_THROW(pipeline_config_from_json(R"({"num_threads": "many"})"),
               std::invalid_argument);
  // Bad enum text.
  EXPECT_THROW(pipeline_config_from_json(R"({"target": "speed"})"), std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"te": {"order": "random"}})"),
               std::invalid_argument);
  // Removed engine/reference toggles and bnb-par scheduler knobs: old
  // documents fail loudly instead of silently running on defaults.
  for (const std::string key : {"search.use_cost_engine", "search.use_branch_and_bound",
                                "search.use_footprint_tracker", "search.greedy_batched_scoring",
                                "search.use_footprint_bound", "te.use_footprint_tracker",
                                "search.bnb_work_stealing", "search.bnb_tasks_per_thread"}) {
    std::size_t dot = key.find('.');
    std::string document =
        "{\"" + key.substr(0, dot) + "\": {\"" + key.substr(dot + 1) + "\": true}}";
    try {
      pipeline_config_from_json(document);
      FAIL() << "expected an unknown-key error for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key \"" + key + "\""), std::string::npos)
          << e.what();
    }
  }
}

TEST(PipelineConfigJson, OutOfRangeIntegersThrowInsteadOfWrapping) {
  // A wrapped max_moves of 0 would silently disable the search.
  EXPECT_THROW(pipeline_config_from_json(R"({"search": {"max_moves": 4294967296}})"),
               std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"num_threads": -1})"), std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"dma": {"setup_cycles": 3000000000}})"),
               std::invalid_argument);
}

TEST(PipelineConfigJson, ThreadCountsAboveTheLimitAreRejectedByName) {
  // Parsing only: no pool is built, so no thread starts.
  PipelineConfig at_limit =
      pipeline_config_from_json(R"({"num_threads": 256, "search": {"bnb_threads": 256}})");
  EXPECT_EQ(at_limit.num_threads, kMaxThreads);
  EXPECT_EQ(at_limit.search.bnb_threads, kMaxThreads);
  for (const char* value : {"257", "50000", "4294967295"}) {
    const std::string num = std::string(R"({"num_threads": )") + value + "}";
    const std::string bnb =
        std::string(R"({"strategy": "bnb-par", "search": {"bnb_threads": )") + value + "}}";
    for (const auto& [document, key] :
         {std::pair{num, "num_threads"}, std::pair{bnb, "search.bnb_threads"}}) {
      SCOPED_TRACE(document);
      try {
        pipeline_config_from_json(document);
        ADD_FAILURE() << "expected a thread-count error";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("256"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Pipeline, CustomTargetHonorsExplicitWeights) {
  // target "custom" must make the serialized weights live: an all-energy
  // custom weighting matches the Energy target bit for bit.
  auto ws = make_workspace(apps::build_cavity_detection(), {}, {});
  PipelineConfig energy;
  energy.target = assign::Target::Energy;
  PipelineConfig custom = pipeline_config_from_json(
      R"({"target": "custom", "search": {"energy_weight": 1.0, "time_weight": 0.0}})");
  expect_same_points(Pipeline(custom).run(*ws).points, Pipeline(energy).run(*ws).points,
                     "custom-vs-energy");
  // And a custom weighting that differs from balanced must be able to
  // change the outcome's objective trade-off direction.
  EXPECT_EQ(assign::parse_target("custom"), assign::Target::Custom);
  EXPECT_EQ(assign::to_string(assign::Target::Custom), "custom");
  EXPECT_THROW(assign::target_weights(assign::Target::Custom), std::invalid_argument);
}

TEST(PipelineConfigJson, ParsedConfigDrivesThePipeline) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  PipelineConfig parsed = pipeline_config_from_json(to_json(config));
  PipelineResult from_parsed = Pipeline(parsed).run(testing::blocked_reuse_program());
  PipelineResult from_value = Pipeline(config).run(testing::blocked_reuse_program());
  expect_same_points(from_parsed.points, from_value.points, "parsed-config");
}

TEST(PipelineResultJson, EmitsStrategyMetadataAndTimings) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  PipelineResult result = Pipeline(config).run(testing::blocked_reuse_program());
  std::string text = to_json("blocked", result);

  Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("application").string(), "blocked");
  EXPECT_EQ(doc.at("strategy").string(), "greedy");
  EXPECT_GT(doc.at("search").at("evaluations").integer(), 0);
  ASSERT_EQ(doc.at("timings").array().size(), 4u);
  EXPECT_EQ(doc.at("timings").array()[1].at("stage").string(), "assign");
  EXPECT_EQ(doc.at("points").at("application").string(), "blocked");
  EXPECT_GT(doc.at("points").at("mhla").at("total_cycles").number(), 0.0);
}

}  // namespace
}  // namespace mhla::core
