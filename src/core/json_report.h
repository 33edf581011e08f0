#pragma once

#include <string>
#include <vector>

#include "core/json.h"
#include "core/pipeline.h"
#include "explore/pareto.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace mhla::core {

/// Machine-readable export (JSON) of results, so the reproduced figures can
/// be plotted without scraping the text tables — plus the PipelineConfig
/// document round-trip (emit + parse) that lets batch drivers and external
/// tooling describe runs as files.

/// One simulation result as a JSON object.
std::string to_json(const sim::SimResult& result, int indent = 0);

/// The four reference points of Figure 2/3 for one application.
std::string to_json(const std::string& app_name, const sim::FourPoint& points, int indent = 0);

/// A full pipeline run: the four points plus strategy metadata (name,
/// search effort) and per-stage wall-clock timings.
std::string to_json(const std::string& app_name, const PipelineResult& result, int indent = 0);

/// A trade-off sample set (e.g. an exploration's Pareto frontier).
std::string to_json(const std::vector<xplore::TradeoffPoint>& points, int indent = 0);

/// A footprint report (per-layer/per-nest live bytes, peaks, feasibility);
/// layer names and capacities come from the hierarchy.  Backs the CLI's
/// `--footprints --json` dump.
std::string to_json(const assign::FootprintReport& report, const mem::Hierarchy& hierarchy,
                    int indent = 0);

/// A process-metrics snapshot (obs registry), so report assemblers embed
/// the counters next to the results they explain ("metrics" block of the
/// CLI's `--metrics --json` document) without spelling the obs namespace.
std::string to_json(const obs::MetricsSnapshot& snapshot);

/// A pipeline configuration.  Doubles are emitted with enough digits that
/// `pipeline_config_from_json(to_json(c)) == c` holds exactly.
std::string to_json(const PipelineConfig& config, int indent = 0);

/// Parse a configuration document.  Every key is optional (absent keys keep
/// their defaults); unknown keys, type mismatches, and malformed JSON throw
/// std::invalid_argument with a message pinpointing the problem.
PipelineConfig pipeline_config_from_json(const std::string& text);

/// The one config reader, over an already parsed document (e.g. the
/// "config" member of a serve request): the text overload is
/// `Json::parse` plus this call.
PipelineConfig pipeline_config_from_json(const Json& document);

}  // namespace mhla::core
