#include "explore/explorer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/registry.h"
#include "explore/corpus.h"
#include "helpers.h"

namespace mhla::xplore {
namespace {

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Small lattice over the test platform for the cheap structural tests.
ExplorerConfig small_config() {
  ExplorerConfig config;
  config.l1_axis = {128, 256, 512, 1024, 2048};
  config.l2_axis = {0, 8192};
  return config;
}

/// `config` evaluating its whole lattice in one wave: the fixed grid.
ExplorerConfig full_grid(ExplorerConfig config) {
  config.seed_stride = 1;
  return config;
}

/// A one-nest program over `array a 16` whose only access is `a[index]`.
ir::Program single_access_program(const std::string& array, ir::AffineExpr index) {
  ir::ProgramBuilder pb("bad_access");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read(array, {std::move(index)});
  pb.end_loop();
  return pb.finish();
}

/// The Explorer must reject exactly what the Pipeline rejects, with the
/// same validation message and before any cell is evaluated.
void expect_rejected_like_the_pipeline(const std::string& array, const ir::AffineExpr& index,
                                       const std::string& issue) {
  std::string pipeline_error;
  try {
    core::Pipeline(core::PipelineConfig{}).run(single_access_program(array, index));
  } catch (const std::invalid_argument& error) {
    pipeline_error = error.what();
  }
  ASSERT_NE(pipeline_error.find(issue), std::string::npos) << pipeline_error;
  try {
    Explorer(small_config()).run(single_access_program(array, index));
    ADD_FAILURE() << "explored an invalid program";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), pipeline_error);
  }
}

TEST(ResultCache, JsonRoundTripsEntries) {
  ResultCache cache;
  ResultCache::Entry entry;
  entry.l1_bytes = 1024;
  entry.l2_bytes = 65536;
  entry.strategy = "greedy";
  entry.with_te = true;
  entry.cycles = 1.0 / 3.0;  // 17-digit round trip must be exact
  entry.energy_nj = 123456.789012345;
  cache.insert(fnv1a64("cell-a"), entry);
  entry.strategy = "anneal";
  entry.with_te = false;
  cache.insert(fnv1a64("cell-b"), entry);

  std::string path = temp_path("mhla_cache_json_roundtrip.json");
  cache.save(path);
  ResultCache reloaded;
  EXPECT_TRUE(reloaded.load(path).clean);
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.entries(), cache.entries());
  ResultCache::Entry found;
  ASSERT_TRUE(reloaded.lookup(fnv1a64("cell-a"), found));
  EXPECT_EQ(found.cycles, 1.0 / 3.0);
  EXPECT_EQ(found.strategy, "greedy");
  std::remove(path.c_str());
}

TEST(ResultCache, SaveAndLoadPersist) {
  std::string path = temp_path("mhla_cache_roundtrip.json");
  ResultCache cache;
  cache.insert(7, {256, 0, "greedy", true, 10.0, 20.0});
  cache.save(path);
  ResultCache loaded;
  loaded.load(path);
  EXPECT_EQ(loaded.entries(), cache.entries());
  std::remove(path.c_str());
}

TEST(ResultCache, MissingFileIsACleanColdCache) {
  ResultCache cache;
  EXPECT_TRUE(cache.load(temp_path("mhla_cache_never_written.json")).clean);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, MalformedFileSalvagesIntactEntriesAndQuarantines) {
  // A document truncated mid-write: the header and the last entry line are
  // damaged, one entry line is complete.  Load must recover the intact
  // entry instead of throwing the warm cache away, and must preserve the
  // wreckage for inspection.
  std::string path = temp_path("mhla_cache_corrupt.json");
  ResultCache full;
  full.insert(7, {256, 0, "greedy", true, 10.0, 20.0});
  std::string intact_line;
  {
    std::istringstream doc(full.to_json());
    std::string line;
    while (std::getline(doc, line)) {
      if (line.find("\"key\"") != std::string::npos) intact_line = line;
    }
  }
  ASSERT_FALSE(intact_line.empty());
  std::ofstream(path) << "{\"version\": 4, \"entries\": [oops\n"
                      << intact_line << "\n"
                      << "    {\"key\": \"00000000000000";  // truncated entry

  ResultCache salvaged;
  ResultCache::LoadReport report = salvaged.load(path);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.salvaged, 1u);
  EXPECT_NE(report.message.find(path), std::string::npos) << report.message;
  EXPECT_EQ(salvaged.entries(), full.entries());

  // The damaged original is quarantined byte for byte next to the cache.
  ASSERT_EQ(report.quarantine_path, path + ".quarantine");
  std::ifstream quarantined(report.quarantine_path);
  ASSERT_TRUE(quarantined.good());
  std::ostringstream preserved;
  preserved << quarantined.rdbuf();
  EXPECT_NE(preserved.str().find(intact_line), std::string::npos);

  std::remove(path.c_str());
  std::remove(report.quarantine_path.c_str());
}

/// A well-formed document of an older format `version` is intact but stale:
/// its keys were hashed over an older config text and can never hit.  It
/// loads empty, the report names the old version, and it is neither salvaged
/// line by line nor quarantined as damaged.
void expect_loads_empty_as_stale(int version) {
  std::string path = temp_path("mhla_cache_v" + std::to_string(version) + ".json");
  ResultCache full;
  full.insert(7, {256, 0, "greedy", true, 10.0, 20.0});
  std::string document = full.to_json();
  std::size_t at = document.find("\"version\": 4");
  ASSERT_NE(at, std::string::npos);
  document.replace(at, 12, "\"version\": " + std::to_string(version));
  std::ofstream(path) << document;

  ResultCache loaded;
  ResultCache::LoadReport report = loaded.load(path);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.salvaged, 0u);
  EXPECT_TRUE(report.quarantine_path.empty());
  EXPECT_NE(report.message.find("version " + std::to_string(version)), std::string::npos)
      << report.message;
  EXPECT_EQ(report.message.find("malformed"), std::string::npos) << report.message;
  EXPECT_FALSE(std::filesystem::exists(path + ".quarantine"));
  std::remove(path.c_str());
}

TEST(ResultCache, VersionOneDocumentLoadsEmptyAsStale) { expect_loads_empty_as_stale(1); }

TEST(ResultCache, VersionTwoDocumentLoadsEmptyAsStale) {
  // Version 2 keys were hashed over a config text that still carried the
  // removed bnb-par scheduler knobs.
  expect_loads_empty_as_stale(2);
}

TEST(ResultCache, VersionThreeDocumentLoadsEmptyAsStale) {
  // Version 3 keys were hashed over a config text that still carried the
  // removed `te.order` and `search.bnb_seed_incumbent` keys.
  expect_loads_empty_as_stale(3);
}

TEST(ResultCache, WellFormedLoadReportsClean) {
  std::string path = temp_path("mhla_cache_clean.json");
  ResultCache cache;
  cache.insert(3, {128, 0, "bnb", false, 1.0, 2.0});
  cache.save(path);
  ResultCache loaded;
  ResultCache::LoadReport report = loaded.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, 1u);
  EXPECT_EQ(report.salvaged, 0u);
  EXPECT_EQ(loaded.entries(), cache.entries());
  std::remove(path.c_str());
}

TEST(ResultCache, CurrentVersionDocumentIsByteStable) {
  // Written by the saver of the previous (map-backed) implementation via
  // `mhla_tool --cache-merge` over two small explorations, as version 3;
  // version 4 changed only the config text the keys hash over, not the
  // document shape.  It must load clean, and both to_json() and save()
  // must reproduce it byte for byte: entries sorted by key, doubles with
  // 17 significant digits.
  const std::string document =
      "{\n"
      "  \"version\": 4,\n"
      "  \"entries\": [\n"
      "    {\"key\": \"814822206720f075\", \"l1_bytes\": 256, \"l2_bytes\": 0, "
      "\"strategy\": \"greedy\", \"with_te\": true, \"status\": \"feasible\", "
      "\"cycles\": 4292766, \"energy_nj\": 817620.22400000005},\n"
      "    {\"key\": \"d1241f72f9d00e13\", \"l1_bytes\": 1024, \"l2_bytes\": 0, "
      "\"strategy\": \"bnb\", \"with_te\": true, \"status\": \"optimal\", "
      "\"cycles\": 10254566, \"energy_nj\": 3957886.6799999997},\n"
      "    {\"key\": \"e2c8e8fe8c846f49\", \"l1_bytes\": 256, \"l2_bytes\": 0, "
      "\"strategy\": \"bnb\", \"with_te\": true, \"status\": \"optimal\", "
      "\"cycles\": 12582912, \"energy_nj\": 3637406.4400000004},\n"
      "    {\"key\": \"ed980b41de836675\", \"l1_bytes\": 1024, \"l2_bytes\": 0, "
      "\"strategy\": \"greedy\", \"with_te\": true, \"status\": \"feasible\", "
      "\"cycles\": 1843132, \"energy_nj\": 579806.71999999997}\n"
      "  ]\n"
      "}";
  std::string path = temp_path("mhla_cache_v4_stable.json");
  std::ofstream(path) << document << "\n";

  ResultCache cache;
  ResultCache::LoadReport report = cache.load(path);
  EXPECT_TRUE(report.clean) << report.message;
  EXPECT_EQ(report.entries, 4u);
  EXPECT_EQ(cache.to_json(), document);

  std::string saved_path = temp_path("mhla_cache_v4_resaved.json");
  cache.save(saved_path);
  EXPECT_EQ(slurp(saved_path), document + "\n");

  // The empty document keeps its shape too.
  EXPECT_EQ(ResultCache{}.to_json(), "{\n  \"version\": 4,\n  \"entries\": []\n}");
  std::remove(path.c_str());
  std::remove(saved_path.c_str());
}

TEST(Explorer, ValidatesItsConfiguration) {
  ExplorerConfig config = small_config();
  config.l1_axis.clear();
  EXPECT_THROW(Explorer{config}, std::invalid_argument);

  config = small_config();
  config.seed_stride = 0;
  EXPECT_THROW(Explorer{config}, std::invalid_argument);

  config = small_config();
  config.strategies = {"no-such-strategy"};
  EXPECT_THROW(Explorer{config}, std::out_of_range);

  // The default strategy axis is the pipeline's strategy, checked the same.
  config = full_grid(small_config());
  config.pipeline.strategy = "no-such-strategy";
  EXPECT_THROW(Explorer{config}, std::out_of_range);
}

TEST(Explorer, RejectsAnOutOfBoundsSubscriptLikeThePipeline) {
  expect_rejected_like_the_pipeline("a", ir::av("i") + ir::ac(1000), "outside [0, 15]");
}

TEST(Explorer, RejectsAnUnboundSubscriptVariableLikeThePipeline) {
  expect_rejected_like_the_pipeline("a", ir::av("j"), "is not bound");
}

TEST(Explorer, RejectsAnUndeclaredArrayLikeThePipeline) {
  expect_rejected_like_the_pipeline("ghost", ir::av("i"), "undeclared array 'ghost'");
}

TEST(Explorer, FullGridEqualsPerCellPipelineRuns) {
  // Seed stride 1 is the fixed layer-size grid: one wave, every cell, and
  // each cell is exactly what a single pipeline run of that cell reports
  // (the TE'd point with a transfer engine, the blocking one without).
  struct Case {
    ir::Program (*program)();
    ExplorerConfig config;
  };
  // Pricier SDRAM: the platform models must flow into every cell, too.
  ExplorerConfig pricey = full_grid(small_config());
  pricey.pipeline.platform.sdram.read_energy_nj *= 10.0;
  pricey.pipeline.platform.sdram.write_energy_nj *= 10.0;
  const Case cases[] = {{testing::blocked_reuse_program, full_grid(small_config())},
                        {testing::blocked_reuse_program, pricey},
                        {apps::build_conv_filter, full_grid(default_explorer())}};
  for (const Case& c : cases) {
    for (const char* strategy : {"greedy", "anneal"}) {
      for (bool dma : {true, false}) {
        ExplorerConfig config = c.config;
        config.pipeline.strategy = strategy;
        config.pipeline.search.anneal_iterations = 400;
        config.pipeline.dma.present = dma;
        const std::string where = c.program().name() + " " + strategy + (dma ? " dma" : " no-dma");
        ExploreResult result = Explorer(config).run(c.program());
        ASSERT_EQ(result.rounds, 1u) << where;
        ASSERT_EQ(result.samples.size(), result.lattice_cells) << where;
        for (const ExploreSample& sample : result.samples) {
          core::PipelineConfig cell = config.pipeline;
          cell.platform.l1_bytes = sample.cell.l1_bytes;
          cell.platform.l2_bytes = sample.cell.l2_bytes;
          const sim::FourPoint points = core::Pipeline(cell).run(c.program()).points;
          const sim::SimResult& expected = dma ? points.mhla_te : points.mhla;
          EXPECT_EQ(sample.point.cycles, expected.total_cycles())
              << where << " L1 " << sample.cell.l1_bytes << " L2 " << sample.cell.l2_bytes;
          EXPECT_EQ(sample.point.energy_nj, expected.energy_nj)
              << where << " L1 " << sample.cell.l1_bytes << " L2 " << sample.cell.l2_bytes;
        }
      }
    }
  }
}

TEST(Explorer, DuplicateStrategiesCollapseToOneAxisEntry) {
  ExplorerConfig config = small_config();
  config.strategies = {"greedy", "greedy"};
  Explorer explorer(config);
  EXPECT_EQ(explorer.config().strategies.size(), 1u);

  // Repeated sizes collapse too: the lattice holds each cell once.
  ExplorerConfig repeated = config;
  repeated.l1_axis = {1024, 256, 1024, 256};
  repeated.l2_axis = {0, 8192, 0};
  EXPECT_EQ(Explorer(repeated).config().l1_axis, (std::vector<i64>{256, 1024}));
  EXPECT_EQ(Explorer(repeated).config().l2_axis, (std::vector<i64>{0, 8192}));
  ExploreResult result = explorer.run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, config.l1_axis.size() * config.l2_axis.size());
}

TEST(Explorer, TeAxisCollapsesWithoutADmaEngine) {
  // with_te cannot change any result when no transfer engine exists; the
  // TE axis must not double the lattice (and the budget burn) for nothing.
  ExplorerConfig config = small_config();
  config.explore_te = true;
  config.pipeline.dma.present = false;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, config.l1_axis.size() * config.l2_axis.size());
}

TEST(Explorer, TimeExtensionAndABiggerL1NeverHurtCycles) {
  // On this monotone workload more on-chip memory can only help (or tie)
  // the greedy result, and time extensions never lose to blocking
  // transfers of the same cell.
  ExplorerConfig config = full_grid(small_config());
  config.l1_axis = {128, 512, 2048};
  config.l2_axis = {0};
  config.explore_te = true;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  ASSERT_EQ(result.samples.size(), 6u);  // canonical order: TE off, then on
  for (std::size_t te = 0; te < 2; ++te) {
    const ExploreSample* row = &result.samples[3 * te];
    EXPECT_EQ(row[0].cell.with_te, te == 1);
    EXPECT_GE(row[0].point.cycles, row[1].point.cycles);
    EXPECT_GE(row[1].point.cycles, row[2].point.cycles);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(result.samples[3 + i].point.cycles, result.samples[i].point.cycles);
  }
}

TEST(Explorer, BudgetOnAWaveBoundaryAddsNoEmptyRound) {
  ExplorerConfig config = small_config();  // seed wave: 3 x 2 = 6 cells
  config.budget = 6;
  ExploreResult exact = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(exact.evaluations, 6u);
  EXPECT_EQ(exact.rounds, 1u);
  EXPECT_EQ(exact.stop, core::StopReason::CellBudget);

  config.budget = 5;
  ExploreResult under = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(under.rounds, 1u);
}

TEST(Explorer, BitIdenticalAcrossThreadCounts) {
  // Adaptive refinement, and the full grid (one wave) for a deterministic
  // and a stochastic strategy.
  ExplorerConfig anneal_grid = full_grid(small_config());
  anneal_grid.pipeline.strategy = "anneal";
  anneal_grid.pipeline.search.anneal_iterations = 400;
  for (ExplorerConfig config : {small_config(), full_grid(small_config()), anneal_grid}) {
    const std::string where = config.pipeline.strategy + " stride " +
                              std::to_string(config.seed_stride);
    config.pipeline.num_threads = 1;
    ExploreResult serial = Explorer(config).run(testing::blocked_reuse_program());
    ASSERT_FALSE(serial.samples.empty()) << where;

    for (unsigned threads : {0u, 2u, 3u, 4u, 8u}) {
      config.pipeline.num_threads = threads;
      ExploreResult parallel = Explorer(config).run(testing::blocked_reuse_program());
      ASSERT_EQ(parallel.samples.size(), serial.samples.size()) << where << " threads " << threads;
      for (std::size_t i = 0; i < serial.samples.size(); ++i) {
        EXPECT_EQ(parallel.samples[i].cell, serial.samples[i].cell) << where;
        EXPECT_EQ(parallel.samples[i].point.cycles, serial.samples[i].point.cycles) << where;
        EXPECT_EQ(parallel.samples[i].point.energy_nj, serial.samples[i].point.energy_nj)
            << where;
      }
      EXPECT_EQ(parallel.evaluations, serial.evaluations) << where;
      EXPECT_EQ(parallel.rounds, serial.rounds) << where;
      ASSERT_EQ(parallel.frontier.size(), serial.frontier.size()) << where;
      for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
        EXPECT_EQ(parallel.frontier[i].cycles, serial.frontier[i].cycles) << where;
        EXPECT_EQ(parallel.frontier[i].energy_nj, serial.frontier[i].energy_nj) << where;
      }
    }
  }
}

TEST(Explorer, BudgetCapsPipelineEvaluations) {
  ExplorerConfig config = small_config();
  config.budget = 4;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.evaluations, 4u);
  EXPECT_EQ(result.stop, core::StopReason::CellBudget);
  EXPECT_EQ(result.samples.size(), 4u);
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"stop\": \"cell_budget\""), std::string::npos) << json;
}

TEST(Explorer, AnExpiredRunBudgetNamesTheStopOverTheCellBudget) {
  // A deadline that expires on the first probe cuts the seed wave's cells:
  // the run ends after that wave, and the deadline names the stop whether
  // or not the cell budget bound too.
  for (std::size_t budget : {0u, 4u}) {
    ExplorerConfig config = small_config();
    config.budget = budget;
    config.pipeline.search.budget.deadline_seconds = 1e-9;
    ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
    EXPECT_EQ(result.stop, core::StopReason::Deadline) << core::to_string(result.stop);
    EXPECT_EQ(result.rounds, 1u);
    EXPECT_FALSE(result.converged);
  }
}

TEST(Explorer, AnytimeFrontierIsValidUnderAnyBudget) {
  ExplorerConfig config = small_config();
  for (std::size_t budget : {1u, 3u, 7u}) {
    config.budget = budget;
    ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
    EXPECT_LE(result.evaluations, budget);
    EXPECT_FALSE(result.frontier.empty());
    for (const TradeoffPoint& f : result.frontier) {
      bool matches_sample = false;
      for (const ExploreSample& s : result.samples) {
        if (s.point.cycles == f.cycles && s.point.energy_nj == f.energy_nj) matches_sample = true;
      }
      EXPECT_TRUE(matches_sample);
    }
  }
}

TEST(Explorer, JointSpaceCoversStrategyAndTeAxes) {
  ExplorerConfig config = small_config();
  config.l1_axis = {256, 1024};
  config.strategies = {"greedy", "anneal"};
  config.pipeline.search.anneal_iterations = 200;
  config.explore_te = true;
  config.seed_stride = 1;  // full lattice
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, 2u * 2u * 2u * 2u);
  EXPECT_EQ(result.samples.size(), result.lattice_cells);
  std::size_t anneal_cells = 0;
  std::size_t te_off_cells = 0;
  for (const ExploreSample& sample : result.samples) {
    anneal_cells += sample.cell.strategy == "anneal";
    te_off_cells += !sample.cell.with_te;
  }
  EXPECT_EQ(anneal_cells, result.lattice_cells / 2);
  EXPECT_EQ(te_off_cells, result.lattice_cells / 2);

  // Every frontier point carries its full cell coordinates, so a joint-
  // space run can say which strategy/TE setting achieved it.
  ASSERT_EQ(result.frontier_cells.size(), result.frontier.size());
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    bool matches = false;
    for (const ExploreSample& sample : result.samples) {
      if (sample.cell == result.frontier_cells[i] &&
          sample.point.cycles == result.frontier[i].cycles &&
          sample.point.energy_nj == result.frontier[i].energy_nj) {
        matches = true;
      }
    }
    EXPECT_TRUE(matches) << i;
  }
}

TEST(Explorer, HalfBudgetFrontierDominatesDefaultSweepOnTwoApps) {
  // The acceptance bar of the exploration engine: on real applications,
  // adaptive refinement recovers the full fixed grid's frontier from at
  // most half the grid's pipeline evaluations.
  for (const char* app : {"cavity_detection", "fft_filter"}) {
    ExploreResult grid = Explorer(full_grid(default_explorer())).run(apps::build_app(app));
    ASSERT_EQ(grid.evaluations, 27u) << app;

    ExplorerConfig config = default_explorer();
    config.budget = grid.evaluations / 2;
    ExploreResult adaptive = Explorer(config).run(apps::build_app(app));

    EXPECT_LE(adaptive.evaluations, grid.evaluations / 2) << app;
    EXPECT_TRUE(frontier_covers(adaptive.frontier, grid.frontier)) << app;
  }
}

TEST(Explorer, WarmCacheRunsZeroEvaluationsAndReproducesTheFrontier) {
  std::string path = temp_path("mhla_cache_warm.json");
  ExplorerConfig config = small_config();
  config.cache_path = path;

  ExploreResult cold = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_GT(cold.evaluations, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  ExploreResult warm = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, warm.samples.size());
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].cell, cold.samples[i].cell);
    EXPECT_EQ(warm.samples[i].point.cycles, cold.samples[i].point.cycles);
    EXPECT_EQ(warm.samples[i].point.energy_nj, cold.samples[i].point.energy_nj);
    EXPECT_TRUE(warm.samples[i].from_cache);
  }
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size());
  for (std::size_t i = 0; i < cold.frontier.size(); ++i) {
    EXPECT_EQ(warm.frontier[i].cycles, cold.frontier[i].cycles);
    EXPECT_EQ(warm.frontier[i].energy_nj, cold.frontier[i].energy_nj);
  }
  std::remove(path.c_str());
}

TEST(Explorer, WarmRunRepairsASalvagedCacheDocument) {
  // A damaged document is salvaged on load; the warm run that follows must
  // write it back, so the next load is clean again and the quarantine is
  // not overwritten on every later run.
  std::string path = temp_path("mhla_cache_repair.json");
  ExplorerConfig config = small_config();
  config.cache_path = path;
  ExploreResult cold = Explorer(config).run(testing::blocked_reuse_program());
  ASSERT_GT(cold.evaluations, 0u);
  ResultCache original;
  ASSERT_TRUE(original.load(path).clean);

  std::string document = slurp(path);
  std::size_t at = document.find("\"version\": 4,");
  ASSERT_NE(at, std::string::npos);
  document.replace(at, 13, "\"version\": 4,,");
  std::ofstream(path, std::ios::trunc) << document;

  ExploreResult warm = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(warm.evaluations, 0u);
  ResultCache repaired;
  ResultCache::LoadReport report = repaired.load(path);
  EXPECT_TRUE(report.clean) << report.message;
  EXPECT_EQ(repaired.entries(), original.entries());
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST(Explorer, BudgetTruncatedRunReplaysWarmWithZeroEvaluations) {
  // The budget counts sampled cells, cache hits included, precisely so a
  // truncated exploration replays bit-identically from the cache instead
  // of spending its budget on the cells the cold run never reached.
  std::string path = temp_path("mhla_cache_budget_warm.json");
  ExplorerConfig config = small_config();
  config.budget = 7;  // seed wave (6) + part of the first refinement
  config.cache_path = path;

  ExploreResult cold = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(cold.evaluations, 7u);
  EXPECT_EQ(cold.stop, core::StopReason::CellBudget);

  ExploreResult warm = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, 7u);
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].cell, cold.samples[i].cell);
    EXPECT_EQ(warm.samples[i].point.cycles, cold.samples[i].point.cycles);
  }
  std::remove(path.c_str());
}

TEST(Explorer, CacheKeysSeparateProgramsAndConfigs) {
  std::string path = temp_path("mhla_cache_keys.json");
  ExplorerConfig config = small_config();
  config.cache_path = path;

  ExploreResult first = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_GT(first.evaluations, 0u);

  // A different program misses the cache entirely...
  ExploreResult other_program = Explorer(config).run(testing::tiny_stream_program());
  EXPECT_EQ(other_program.cache_hits, 0u);

  // ... as does a different target on the same program ...
  ExplorerConfig energy = config;
  energy.pipeline.target = assign::Target::Energy;
  ExploreResult other_target = Explorer(energy).run(testing::blocked_reuse_program());
  EXPECT_EQ(other_target.cache_hits, 0u);

  // ... while the thread count is deliberately not part of the key.
  ExplorerConfig threaded = config;
  threaded.pipeline.num_threads = 4;
  ExploreResult same_key = Explorer(threaded).run(testing::blocked_reuse_program());
  EXPECT_EQ(same_key.evaluations, 0u);

  // The bnb-par thread count only steers scheduling (the optimum is
  // bit-identical at any count), so it must not change keys either.
  ExplorerConfig par_knobs = config;
  par_knobs.pipeline.search.bnb_threads = 8;
  ExploreResult par_key = Explorer(par_knobs).run(testing::blocked_reuse_program());
  EXPECT_EQ(par_key.evaluations, 0u);
  std::remove(path.c_str());
}

TEST(Explorer, CacheKeyIgnoresExactlyTheResultInvariantKnobs) {
  // Knobs that cannot change a completed result share one key, so one cell
  // never caches under two; knobs that steer the result must split keys.
  const std::string text = "program text";
  const std::uint64_t key = design_cache_key(text, core::PipelineConfig{}, true);
  auto key_with = [&](auto mutate) {
    core::PipelineConfig config;
    mutate(config);
    return design_cache_key(text, config, true);
  };
  using Config = core::PipelineConfig;
  EXPECT_EQ(key_with([](Config& c) { c.num_threads = 3; }), key);
  EXPECT_EQ(key_with([](Config& c) { c.search.bnb_threads = 8; }), key);
  EXPECT_EQ(key_with([](Config& c) { c.search.budget.deadline_seconds = 5.0; }), key);
  EXPECT_EQ(key_with([](Config& c) { c.search.budget.max_probes = 100; }), key);
  EXPECT_NE(key_with([](Config& c) { c.search.anneal_seed = 7; }), key);
  EXPECT_NE(key_with([](Config& c) { c.search.max_moves = 10; }), key);
}

TEST(Corpus, ExploresEveryMemberAndAggregatesCounters) {
  CorpusConfig config;
  config.explorer = small_config();
  config.explorer.cache_path = temp_path("mhla_cache_corpus.json");
  config.apps = {"conv_filter", "fft_filter"};
  config.random_programs = 1;
  config.random_seed = 11;

  CorpusResult result = explore_corpus(config);
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0].program, "conv_filter");
  EXPECT_EQ(result.entries[1].program, "fft_filter");
  EXPECT_EQ(result.entries[2].program, "fuzz_11");
  std::size_t evaluations = 0;
  std::size_t hits = 0;
  for (const CorpusEntry& entry : result.entries) {
    EXPECT_FALSE(entry.result.frontier.empty()) << entry.program;
    evaluations += entry.result.evaluations;
    hits += entry.result.cache_hits;
  }
  EXPECT_EQ(result.evaluations, evaluations);
  EXPECT_EQ(result.cache_hits, hits);

  // A warm corpus re-run touches no pipeline at all.
  CorpusResult warm = explore_corpus(config);
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, result.cache_hits + result.evaluations);
  std::remove(config.explorer.cache_path.c_str());
}

TEST(ExploreJson, ReportIsWellFormedAndCarriesCounters) {
  ExplorerConfig config = small_config();
  config.budget = 3;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  std::string json = to_json(result);
  EXPECT_NE(json.find("\"evaluations\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(json.find("\"from_cache\": false"), std::string::npos);
}

}  // namespace
}  // namespace mhla::xplore
