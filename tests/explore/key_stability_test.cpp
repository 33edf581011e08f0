// Pins the bytes every design-cell cache key is made of.  A key is
// fnv1a64(canonical program text + '\x1f' + core::to_json(effective config) +
// '\x1f' + variant) (see xplore::design_cache_key), and version-4 cache
// documents on disk are indexed by those keys, so the emitters below may
// get faster but must never change a byte: a changed key silently turns
// every persisted entry into a miss.  The expected values were produced by
// the emitters as they were before they dropped their string streams.

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "core/json_report.h"
#include "explore/explorer.h"
#include "ir/serialize.h"

namespace mhla {
namespace {

/// The three configs of the pinned keys: the default, an exact-search
/// config with other layer sizes and weights, and an anneal config with
/// digits that only max_digits10 keeps, DMA off, and thread/deadline
/// settings the key must normalize away.
std::vector<core::PipelineConfig> pinned_configs() {
  std::vector<core::PipelineConfig> configs(3);
  core::PipelineConfig& exact = configs[1];
  exact.platform.l1_bytes = 4096;
  exact.platform.l2_bytes = 131072;
  exact.strategy = "bnb";
  exact.search.energy_weight = 0.25;
  exact.search.time_weight = 0.75;
  exact.search.max_states = 123456;
  exact.te.max_lookahead = 4;
  core::PipelineConfig& anneal = configs[2];
  anneal.strategy = "anneal";
  anneal.search.anneal_seed = 7;
  anneal.search.anneal_initial_temp = 1.0 / 3.0;
  anneal.search.anneal_cooling = 0.985;
  anneal.dma.present = false;
  anneal.platform.sram.slope_energy_nj = 1e-7;
  anneal.platform.sdram.read_energy_nj = 3.3;
  anneal.num_threads = 8;
  anneal.search.budget.deadline_seconds = 2.5;
  return configs;
}

struct PinnedKeys {
  const char* app;
  std::uint64_t keys[6];  ///< per config: te, then blocking
};

TEST(KeyStability, DesignCacheKeysOfEveryAppAndConfigArePinned) {
  const PinnedKeys pinned[] = {
      {"motion_estimation",
       {0x09b0484bfe01c720ULL, 0x4becb2c145840c2cULL,
        0x49a0a2bdf889cd9fULL, 0x5267d38dcc0fbed3ULL,
        0xee0dad9b42909737ULL, 0xa812504bebe44c1bULL}},
      {"qsdpcm",
       {0xd105d7bcb3eda98dULL, 0xbadec0d6d9074e49ULL,
        0x04bccf761f1319d6ULL, 0x6f43b58bb7a8a842ULL,
        0x6150f4f0b29d504eULL, 0xdce62257bf71424aULL}},
      {"mpeg2_encoder",
       {0xfb0f9c12b6cb07d3ULL, 0x597b8672771aa257ULL,
        0x44634d360d928bc4ULL, 0xe9845d1502893e90ULL,
        0x328ff99a45b710b4ULL, 0x23f8ef0559a20ea0ULL}},
      {"cavity_detection",
       {0x23a2645fe3da262aULL, 0xd0efc331c19b9606ULL,
        0x95e356f51ba71d79ULL, 0xa1e00fa81ae23945ULL,
        0x28dbf64c3e90b8b1ULL, 0xf81924603780932dULL}},
      {"jpeg_compress",
       {0x2aa1a5e8ca621d70ULL, 0xc1cb902338535d9cULL,
        0xc6d94c5f060908cfULL, 0x51bb58f3a92fa7e3ULL,
        0x9ca08bd73974b6c7ULL, 0x4b9a1ceaddc9ff4bULL}},
      {"wavelet",
       {0xec6cadab3319019cULL, 0x40ef5ea469e01e18ULL,
        0x413150f44be810fbULL, 0x9373fdd3ff8cdfafULL,
        0x2cfbf738a593fb53ULL, 0x01be8c2ec9add9d7ULL}},
      {"conv_filter",
       {0x76f14c94902be027ULL, 0x24179a0d5a67f7abULL,
        0x30bcdcb5f30cd908ULL, 0x72a4d091f2b4fd84ULL,
        0xc211525043afe3a8ULL, 0x62de6e6d8965ee24ULL}},
      {"adpcm_coder",
       {0xddb13a1fb548a8a0ULL, 0x81167e23b03541acULL,
        0xda3687b7efd86b1fULL, 0xb807804e6fe1d053ULL,
        0x50e308ec06a838b7ULL, 0x937a22b46590419bULL}},
      {"fft_filter",
       {0x9b766ee109a107d1ULL, 0xfa89997b4156904dULL,
        0xf6fa52e1b66af61aULL, 0x4906933a51839456ULL,
        0x019ba445ae619852ULL, 0x059adbe803273a5eULL}},
  };
  const std::vector<core::PipelineConfig> configs = pinned_configs();
  ASSERT_EQ(std::size(pinned), apps::all_apps().size());
  for (const PinnedKeys& row : pinned) {
    SCOPED_TRACE(row.app);
    const std::string text = ir::serialize(apps::build_app(row.app));
    for (std::size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(xplore::design_cache_key(text, configs[c], true), row.keys[2 * c]) << c;
      EXPECT_EQ(xplore::design_cache_key(text, configs[c], false), row.keys[2 * c + 1]) << c;
    }
  }
}

TEST(KeyStability, ConfigDocumentIsByteExact) {
  const char* expected = R"json({
  "platform": {
    "l1_bytes": 4096,
    "l2_bytes": 131072,
    "sram": {"base_energy_nj": 0.02, "slope_energy_nj": 9.9999999999999995e-08, "write_factor": 1.1499999999999999, "base_latency": 1, "latency_step_bytes": 32768, "bytes_per_cycle": 8},
    "sdram": {"read_energy_nj": 3.2999999999999998, "write_energy_nj": 4.4000000000000004, "read_latency": 20, "write_latency": 20, "bytes_per_cycle": 2}
  },
  "dma": {"present": false, "setup_cycles": 30, "bytes_per_cycle": 2, "channels": 1},
  "strategy": "anneal",
  "target": "balanced",
  "search": {"energy_weight": 1, "time_weight": 1, "max_moves": 100000, "max_states": 2000000, "allow_array_migration": true,
               "anneal_iterations": 2000, "anneal_seed": 7, "anneal_initial_temp": 0.33333333333333331, "anneal_cooling": 0.98499999999999999,
               "bnb_threads": 0, "deadline_seconds": 2.5, "max_probes": 0},
  "te": {"max_lookahead": 3, "charge_cold_start": false},
  "num_threads": 8
})json";
  EXPECT_EQ(core::to_json(pinned_configs()[2]), expected);
}

TEST(KeyStability, CanonicalProgramTextIsByteExact) {
  const char* expected = R"mhla(program jpeg_compress
array img 256 256 : elem 1 input
array block 8 8 : elem 2
array coef 8 8 : elem 2
array qtab 8 8 : elem 2 input
array zig 64 : elem 2 input
array stream 32 32 64 : elem 2 output
loop by 0 32 1 {
  loop bx 0 32 1 {
    loop y 0 8 1 {
      loop x 0 8 1 {
        stmt load_shift ops 1 {
          read img [8*by+y] [8*bx+x]
          write block [y] [x]
        }
      }
    }
    loop u 0 8 1 {
      loop v 0 8 1 {
        stmt dct8 ops 5 {
          read block [u] [v] x2
          write coef [u] [v]
        }
      }
    }
    loop u 0 8 1 {
      loop v 0 8 1 {
        stmt quant_zigzag ops 3 {
          read coef [u] [v]
          read qtab [u] [v]
          read zig [8*u+v]
          write stream [by] [bx] [8*u+v]
        }
      }
    }
  }
}
)mhla";
  EXPECT_EQ(ir::serialize(apps::build_app("jpeg_compress")), expected);
}

TEST(KeyStability, ExactNumbersRoundTripBitForBit) {
  const double values[] = {
      0.0,      -0.0,     DBL_MIN,  -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0,
      DBL_MAX,  -DBL_MAX, 1.0 / 3.0, -2.0 / 3.0, 0.1, 1e21, -1e-300,
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53), then integers above 2^53
      9007199254740994.0, 18014398509481988.0, 123456789012345678.0,
  };
  for (double value : values) {
    const std::string text = core::json_number_exact(value);
    double back = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), back);
    ASSERT_EQ(ec, std::errc()) << text;
    EXPECT_EQ(end, text.data() + text.size()) << text;
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0) << text;
    // The same bits through the JSON document layer.
    const double parsed = core::Json::parse(text).number();
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof value), 0) << text;
  }
  // %.17g / %.15g bytes, independent of the host locale.
  EXPECT_EQ(core::json_number_exact(-0.0), "-0");
  EXPECT_EQ(core::json_number_exact(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(core::json_number_exact(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(core::json_number_exact(DBL_TRUE_MIN), "4.9406564584124654e-324");
  EXPECT_EQ(core::json_number_exact(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(core::json_number_exact(1e17), "1e+17");
  EXPECT_EQ(core::json_number_exact(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(core::json_number(1.0 / 3.0), "0.333333333333333");
  EXPECT_EQ(core::json_number(1e15), "1e+15");
  EXPECT_EQ(core::json_number(100.0), "100");
}

TEST(KeyStability, JsonDumpKeepsTheSignOfZero) {
  const core::Json zero = core::Json::parse("-0.0");
  const double back = core::Json::parse(zero.dump()).number();
  EXPECT_TRUE(std::signbit(back)) << zero.dump();
  EXPECT_EQ(core::Json::parse("[0, -0, 3, -7.5]").dump(), "[0, -0, 3, -7.5]");
}

}  // namespace
}  // namespace mhla
