#include "core/json_report.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <utility>

namespace mhla::core {

namespace {

const char* order_name(te::ExtensionOrder order) {
  switch (order) {
    case te::ExtensionOrder::TimePerByte: return "time_per_byte";
    case te::ExtensionOrder::Fifo: return "fifo";
    case te::ExtensionOrder::BySizeDescending: return "by_size_descending";
    case te::ExtensionOrder::Reverse: return "reverse";
  }
  return "?";
}

te::ExtensionOrder parse_order(const std::string& name) {
  if (name == "time_per_byte") return te::ExtensionOrder::TimePerByte;
  if (name == "fifo") return te::ExtensionOrder::Fifo;
  if (name == "by_size_descending") return te::ExtensionOrder::BySizeDescending;
  if (name == "reverse") return te::ExtensionOrder::Reverse;
  throw std::invalid_argument("unknown te order '" + name +
                              "' (time_per_byte|fifo|by_size_descending|reverse)");
}

/// Walk an object's members through per-key handlers; any key without a
/// handler is an error (catches config typos instead of silently ignoring
/// them).
class ObjectReader {
 public:
  ObjectReader(const Json& json, std::string where)
      : json_(json), where_(std::move(where)) {
    json.object();  // type check up front
  }

  template <typename T, typename Fn>
  ObjectReader& field(const std::string& key, T& out, Fn&& get) {
    handled_.push_back(key);
    if (const Json* member = json_.find(key)) {
      try {
        out = get(*member);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(where_ + "." + key + ": " + e.what());
      }
    }
    return *this;
  }

  ~ObjectReader() noexcept(false) {
    if (std::uncaught_exceptions()) return;
    for (const auto& [key, _] : json_.object()) {
      if (std::find(handled_.begin(), handled_.end(), key) == handled_.end()) {
        throw std::invalid_argument("unknown key \"" + where_ + "." + key + "\"");
      }
    }
  }

 private:
  const Json& json_;
  std::string where_;
  std::vector<std::string> handled_;
};

double as_double(const Json& j) { return j.number(); }
bool as_bool(const Json& j) { return j.boolean(); }

/// Checked narrowing: an out-of-range value must throw, never wrap (a
/// wrapped max_moves of 0 would silently disable the whole search).
template <typename T>
T as_integer(const Json& j) {
  std::int64_t value = j.integer();
  if (value < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
      value > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
    throw std::invalid_argument("integer " + std::to_string(value) + " out of range");
  }
  return static_cast<T>(value);
}

int as_int(const Json& j) { return as_integer<int>(j); }
long as_long(const Json& j) { return as_integer<long>(j); }
ir::i64 as_i64(const Json& j) { return as_integer<ir::i64>(j); }
unsigned as_thread_count(const Json& j) {
  unsigned value = as_integer<unsigned>(j);
  if (value > kMaxThreads) {
    throw std::invalid_argument("thread count " + std::to_string(value) + " above the limit " +
                                std::to_string(kMaxThreads));
  }
  return value;
}

}  // namespace

std::string to_json(const sim::SimResult& result, int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  std::string p2 = json_pad(indent + 2);
  out << p0 << "{\n";
  out << p1 << "\"total_cycles\": " << json_number(result.total_cycles()) << ",\n";
  out << p1 << "\"compute_cycles\": " << json_number(result.compute_cycles) << ",\n";
  out << p1 << "\"access_cycles\": " << json_number(result.access_cycles) << ",\n";
  out << p1 << "\"stall_cycles\": " << json_number(result.stall_cycles) << ",\n";
  out << p1 << "\"energy_nj\": " << json_number(result.energy_nj) << ",\n";
  out << p1 << "\"dma_busy_cycles\": " << json_number(result.dma_busy_cycles) << ",\n";
  out << p1 << "\"block_transfer_streams\": " << result.num_block_transfers << ",\n";
  out << p1 << "\"feasible\": " << json_bool(result.feasible) << ",\n";
  out << p1 << "\"layers\": [\n";
  for (std::size_t l = 0; l < result.layers.size(); ++l) {
    const sim::LayerStats& layer = result.layers[l];
    out << p2 << "{\"name\": \"" << json_escape(layer.name) << "\", \"reads\": " << layer.reads
        << ", \"writes\": " << layer.writes
        << ", \"energy_nj\": " << json_number(layer.energy_nj) << "}"
        << (l + 1 < result.layers.size() ? "," : "") << "\n";
  }
  out << p1 << "]\n";
  out << p0 << "}";
  return out.take();
}

std::string to_json(const std::string& app_name, const sim::FourPoint& points, int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  out << p0 << "{\n";
  out << p1 << "\"application\": \"" << json_escape(app_name) << "\",\n";
  out << p1 << "\"out_of_box\":\n" << to_json(points.out_of_box, indent + 1) << ",\n";
  out << p1 << "\"mhla\":\n" << to_json(points.mhla, indent + 1) << ",\n";
  out << p1 << "\"mhla_te\":\n" << to_json(points.mhla_te, indent + 1) << ",\n";
  out << p1 << "\"ideal\":\n" << to_json(points.ideal, indent + 1) << "\n";
  out << p0 << "}";
  return out.take();
}

std::string to_json(const std::string& app_name, const PipelineResult& result, int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  std::string p2 = json_pad(indent + 2);
  out << p0 << "{\n";
  out << p1 << "\"application\": \"" << json_escape(app_name) << "\",\n";
  out << p1 << "\"strategy\": \"" << json_escape(result.strategy) << "\",\n";
  out << p1 << "\"search\": {\"scalar\": " << json_number(result.search.scalar)
      << ", \"moves\": " << result.search.moves.size()
      << ", \"evaluations\": " << result.search.evaluations
      << ", \"states_explored\": " << result.search.states_explored
      << ", \"status\": \"" << assign::to_string(result.search.status) << "\""
      << ", \"gap\": " << json_number(result.search.gap)
      << ", \"stop\": \"" << to_string(result.search.stop) << "\"},\n";
  out << p1 << "\"timings\": [\n";
  for (std::size_t i = 0; i < result.timings.size(); ++i) {
    out << p2 << "{\"stage\": \"" << json_escape(result.timings[i].stage)
        << "\", \"seconds\": " << json_number(result.timings[i].seconds) << "}"
        << (i + 1 < result.timings.size() ? "," : "") << "\n";
  }
  out << p1 << "],\n";
  out << p1 << "\"total_seconds\": " << json_number(result.total_seconds) << ",\n";
  out << p1 << "\"points\":\n" << to_json(app_name, result.points, indent + 1) << "\n";
  out << p0 << "}";
  return out.take();
}

std::string to_json(const std::vector<xplore::TradeoffPoint>& points, int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  out << p0 << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const xplore::TradeoffPoint& point = points[i];
    out << p1 << "{\"l1_bytes\": " << point.l1_bytes << ", \"l2_bytes\": " << point.l2_bytes
        << ", \"cycles\": " << json_number(point.cycles)
        << ", \"energy_nj\": " << json_number(point.energy_nj)
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << p0 << "]";
  return out.take();
}

std::string to_json(const assign::FootprintReport& report, const mem::Hierarchy& hierarchy,
                    int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  std::string p2 = json_pad(indent + 2);
  out << p0 << "{\n";
  out << p1 << "\"feasible\": " << json_bool(report.feasible) << ",\n";
  out << p1 << "\"layers\": [\n";
  for (std::size_t l = 0; l < report.usage.size(); ++l) {
    const mem::MemLayer& layer = hierarchy.layer(static_cast<int>(l));
    out << p2 << "{\"name\": \"" << json_escape(layer.name)
        << "\", \"capacity_bytes\": " << layer.capacity_bytes
        << ", \"peak_bytes\": " << report.peak_bytes[l] << ", \"usage\": [";
    const std::vector<ir::i64>& row = report.usage[l];
    for (std::size_t t = 0; t < row.size(); ++t) {
      out << row[t] << (t + 1 < row.size() ? ", " : "");
    }
    out << "]}" << (l + 1 < report.usage.size() ? "," : "") << "\n";
  }
  out << p1 << "]\n";
  out << p0 << "}";
  return out.take();
}

std::string to_json(const obs::MetricsSnapshot& snapshot) { return obs::to_json(snapshot); }

std::string to_json(const PipelineConfig& config, int indent) {
  JsonText out;
  std::string p0 = json_pad(indent);
  std::string p1 = json_pad(indent + 1);
  std::string p2 = json_pad(indent + 2);
  out << p0 << "{\n";
  out << p1 << "\"platform\": {\n";
  out << p2 << "\"l1_bytes\": " << config.platform.l1_bytes << ",\n";
  out << p2 << "\"l2_bytes\": " << config.platform.l2_bytes << ",\n";
  const mem::SramModelParams& sram = config.platform.sram;
  out << p2 << "\"sram\": {\"base_energy_nj\": " << json_number_exact(sram.base_energy_nj)
      << ", \"slope_energy_nj\": " << json_number_exact(sram.slope_energy_nj)
      << ", \"write_factor\": " << json_number_exact(sram.write_factor)
      << ", \"base_latency\": " << sram.base_latency
      << ", \"latency_step_bytes\": " << sram.latency_step_bytes
      << ", \"bytes_per_cycle\": " << json_number_exact(sram.bytes_per_cycle) << "},\n";
  const mem::SdramModelParams& sdram = config.platform.sdram;
  out << p2 << "\"sdram\": {\"read_energy_nj\": " << json_number_exact(sdram.read_energy_nj)
      << ", \"write_energy_nj\": " << json_number_exact(sdram.write_energy_nj)
      << ", \"read_latency\": " << sdram.read_latency
      << ", \"write_latency\": " << sdram.write_latency
      << ", \"bytes_per_cycle\": " << json_number_exact(sdram.bytes_per_cycle) << "}\n";
  out << p1 << "},\n";
  out << p1 << "\"dma\": {\"present\": " << json_bool(config.dma.present)
      << ", \"setup_cycles\": " << config.dma.setup_cycles
      << ", \"bytes_per_cycle\": " << json_number_exact(config.dma.bytes_per_cycle)
      << ", \"channels\": " << config.dma.channels << "},\n";
  out << p1 << "\"strategy\": \"" << json_escape(config.strategy) << "\",\n";
  out << p1 << "\"target\": \"" << assign::to_string(config.target) << "\",\n";
  const assign::SearchOptions& search = config.search;
  out << p1 << "\"search\": {\"energy_weight\": " << json_number_exact(search.energy_weight)
      << ", \"time_weight\": " << json_number_exact(search.time_weight)
      << ", \"max_moves\": " << search.max_moves << ", \"max_states\": " << search.max_states
      << ", \"allow_array_migration\": " << json_bool(search.allow_array_migration)
      << ",\n" << p1 << "             \"anneal_iterations\": " << search.anneal_iterations
      << ", \"anneal_seed\": " << search.anneal_seed
      << ", \"anneal_initial_temp\": " << json_number_exact(search.anneal_initial_temp)
      << ", \"anneal_cooling\": " << json_number_exact(search.anneal_cooling)
      << ",\n" << p1 << "             \"bnb_threads\": " << search.bnb_threads
      << ", \"bnb_seed_incumbent\": " << json_bool(search.bnb_seed_incumbent)
      << ",\n" << p1 << "             \"deadline_seconds\": "
      << json_number_exact(search.budget.deadline_seconds)
      << ", \"max_probes\": " << search.budget.max_probes << "},\n";
  out << p1 << "\"te\": {\"order\": \"" << order_name(config.te.order)
      << "\", \"max_lookahead\": " << config.te.max_lookahead
      << ", \"charge_cold_start\": " << json_bool(config.te.charge_cold_start) << "},\n";
  out << p1 << "\"num_threads\": " << config.num_threads << "\n";
  out << p0 << "}";
  return out.take();
}

PipelineConfig pipeline_config_from_json(const std::string& text) {
  return pipeline_config_from_json(Json::parse(text));
}

PipelineConfig pipeline_config_from_json(const Json& document) {
  PipelineConfig config;
  ObjectReader(document, "config")
      .field("platform", config.platform,
             [](const Json& j) {
               mem::PlatformConfig platform;
               ObjectReader(j, "platform")
                   .field("l1_bytes", platform.l1_bytes, as_i64)
                   .field("l2_bytes", platform.l2_bytes, as_i64)
                   .field("sram", platform.sram,
                          [](const Json& s) {
                            mem::SramModelParams sram;
                            ObjectReader(s, "platform.sram")
                                .field("base_energy_nj", sram.base_energy_nj, as_double)
                                .field("slope_energy_nj", sram.slope_energy_nj, as_double)
                                .field("write_factor", sram.write_factor, as_double)
                                .field("base_latency", sram.base_latency, as_int)
                                .field("latency_step_bytes", sram.latency_step_bytes, as_i64)
                                .field("bytes_per_cycle", sram.bytes_per_cycle, as_double);
                            return sram;
                          })
                   .field("sdram", platform.sdram, [](const Json& s) {
                     mem::SdramModelParams sdram;
                     ObjectReader(s, "platform.sdram")
                         .field("read_energy_nj", sdram.read_energy_nj, as_double)
                         .field("write_energy_nj", sdram.write_energy_nj, as_double)
                         .field("read_latency", sdram.read_latency, as_int)
                         .field("write_latency", sdram.write_latency, as_int)
                         .field("bytes_per_cycle", sdram.bytes_per_cycle, as_double);
                     return sdram;
                   });
               return platform;
             })
      .field("dma", config.dma,
             [](const Json& j) {
               mem::DmaEngine dma;
               ObjectReader(j, "dma")
                   .field("present", dma.present, as_bool)
                   .field("setup_cycles", dma.setup_cycles, as_int)
                   .field("bytes_per_cycle", dma.bytes_per_cycle, as_double)
                   .field("channels", dma.channels, as_int);
               return dma;
             })
      .field("strategy", config.strategy, [](const Json& j) { return j.string(); })
      .field("target", config.target,
             [](const Json& j) { return assign::parse_target(j.string()); })
      .field("search", config.search,
             [](const Json& j) {
               assign::SearchOptions search;
               ObjectReader(j, "search")
                   .field("energy_weight", search.energy_weight, as_double)
                   .field("time_weight", search.time_weight, as_double)
                   .field("max_moves", search.max_moves, as_int)
                   .field("max_states", search.max_states, as_long)
                   .field("allow_array_migration", search.allow_array_migration, as_bool)
                   .field("anneal_iterations", search.anneal_iterations, as_int)
                   .field("anneal_seed", search.anneal_seed, as_integer<std::uint32_t>)
                   .field("anneal_initial_temp", search.anneal_initial_temp, as_double)
                   .field("anneal_cooling", search.anneal_cooling, as_double)
                   .field("bnb_threads", search.bnb_threads, as_thread_count)
                   .field("bnb_seed_incumbent", search.bnb_seed_incumbent, as_bool)
                   .field("deadline_seconds", search.budget.deadline_seconds, as_double)
                   .field("max_probes", search.budget.max_probes, as_long);
               return search;
             })
      .field("te", config.te,
             [](const Json& j) {
               te::TeOptions te;
               ObjectReader(j, "te")
                   .field("order", te.order, [](const Json& o) { return parse_order(o.string()); })
                   .field("max_lookahead", te.max_lookahead, as_int)
                   .field("charge_cold_start", te.charge_cold_start, as_bool);
               return te;
             })
      .field("num_threads", config.num_threads, as_thread_count);
  return config;
}

}  // namespace mhla::core
