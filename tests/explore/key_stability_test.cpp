// Pins the bytes every design-cell cache key is made of.  A key is
// fnv1a64(canonical program text + '\x1f' + core::to_json(effective config) +
// '\x1f' + variant) (see xplore::design_cache_key), and version-3 cache
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
  exact.te.order = te::ExtensionOrder::Fifo;
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
       {0x5f9a32b50ece1f26ULL, 0x26ed622792124172ULL,
        0xb68d29ccae61e3e4ULL, 0x331239e7005b4bb0ULL,
        0x2aaa14021506bbb7ULL, 0x5a1145fb04ed6c9bULL}},
      {"qsdpcm",
       {0x74072e9f16289275ULL, 0x2dbb14f6f3bec501ULL,
        0x1a7816fda795e3e5ULL, 0x567b721991ee8ad1ULL,
        0x5ef2fe422b1a3a8cULL, 0x668c94e8cd646468ULL}},
      {"mpeg2_encoder",
       {0x2db4785edec3532bULL, 0x018c2aecaa43e97fULL,
        0x4cad91443cab02efULL, 0xdf875c189a629f03ULL,
        0xbd391515efb30012ULL, 0xdd61ddde1e4b051eULL}},
      {"cavity_detection",
       {0xd17e827b67d33b70ULL, 0xa129ded101b70b9cULL,
        0x56dc957dcb42128aULL, 0xbb10bc3355166566ULL,
        0xaa4d9ab90e1d8781ULL, 0x5bfbc19517d44cddULL}},
      {"jpeg_compress",
       {0x98159868791de836ULL, 0x7ae61dbed263f6a2ULL,
        0x0535f70a63176914ULL, 0x494b8b65b158c000ULL,
        0x02defe3594bac947ULL, 0x6b33f79d4d331dcbULL}},
      {"wavelet",
       {0xa89522101ca9fecaULL, 0xb355db5291609da6ULL,
        0x9bc13faae3faf220ULL, 0x1dbbbf21ac409f2cULL,
        0xde49ca7b46d6fdabULL, 0x52d6e81b0f03dfffULL}},
      {"conv_filter",
       {0xd7554a5fd90385e7ULL, 0xaef7e3408eca7c6bULL,
        0x8a72ae33e3a3fac3ULL, 0x90fffa9b253a1be7ULL,
        0x8290c02d801c92feULL, 0xcc71c0f0c7b3d6daULL}},
      {"adpcm_coder",
       {0xca95f578d4aad3a6ULL, 0xe8b703a7c05171f2ULL,
        0xf41852e12870e964ULL, 0x1830191979748530ULL,
        0xd559216e695db037ULL, 0x5ffab38bb9e4dd1bULL}},
      {"fft_filter",
       {0x2d9187eabce79361ULL, 0x77e9f02100f69dbdULL,
        0x21807919aa5da4d9ULL, 0x20675c9a064891a5ULL,
        0x984a58e142a94528ULL, 0xf2fcfcf379d5a3a4ULL}},
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
               "bnb_threads": 0, "bnb_seed_incumbent": true,
               "deadline_seconds": 2.5, "max_probes": 0},
  "te": {"order": "time_per_byte", "max_lookahead": 3, "charge_cold_start": false},
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
