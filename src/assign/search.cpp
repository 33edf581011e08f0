#include "assign/search.h"

#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace mhla::assign {

std::pair<double, double> target_weights(Target target) {
  switch (target) {
    case Target::Energy: return {1.0, 0.0};
    case Target::Time: return {0.0, 1.0};
    case Target::Balanced: return {1.0, 1.0};
    case Target::Custom: break;
  }
  throw std::invalid_argument("Target::Custom has no canonical weights");
}

Target parse_target(const std::string& name) {
  if (name == "energy") return Target::Energy;
  if (name == "time") return Target::Time;
  if (name == "balanced") return Target::Balanced;
  if (name == "custom") return Target::Custom;
  throw std::invalid_argument("unknown target '" + name + "' (energy|time|balanced|custom)");
}

std::string to_string(Target target) {
  switch (target) {
    case Target::Energy: return "energy";
    case Target::Time: return "time";
    case Target::Custom: return "custom";
    case Target::Balanced: break;
  }
  return "balanced";
}

SearchOptions& SearchOptions::set_target(Target target) {
  if (target != Target::Custom) {
    std::tie(energy_weight, time_weight) = target_weights(target);
  }
  return *this;
}

std::string to_string(SearchStatus status) {
  switch (status) {
    case SearchStatus::Optimal: return "optimal";
    case SearchStatus::Feasible: return "feasible";
    case SearchStatus::BudgetExhausted: return "budget_exhausted";
    case SearchStatus::Infeasible: return "infeasible";
  }
  return "feasible";
}

SearchStatus parse_search_status(const std::string& name) {
  if (name == "optimal") return SearchStatus::Optimal;
  if (name == "feasible") return SearchStatus::Feasible;
  if (name == "budget_exhausted") return SearchStatus::BudgetExhausted;
  if (name == "infeasible") return SearchStatus::Infeasible;
  throw std::invalid_argument("unknown search status '" + name +
                              "' (optimal|feasible|budget_exhausted|infeasible)");
}

namespace {

std::map<std::string, Searcher>& registry() {
  static std::map<std::string, Searcher> searchers = [] {
    std::map<std::string, Searcher> built_in;
    for (Searcher s : {
             Searcher{"greedy", "engine-backed greedy steering heuristic (MHLA step 1)",
                      greedy_assign},
             Searcher{"bnb",
                      "branch-and-bound exhaustive search (engine lower bound + capacity pruning)",
                      exhaustive_assign},
             Searcher{"bnb-par",
                      "parallel branch-and-bound (work-stealing subtree tasks, shared "
                      "incumbent; bit-identical to bnb)",
                      exhaustive_parallel_assign},
             Searcher{"anneal", "seeded simulated annealing over the cost-engine move set",
                      anneal_assign},
         }) {
      built_in[s.name] = std::move(s);
    }
    return built_in;
  }();
  return searchers;
}

}  // namespace

std::vector<std::string> searcher_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, _] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

const Searcher& searcher(const std::string& name) {
  const auto& searchers = registry();
  auto it = searchers.find(name);
  if (it == searchers.end()) {
    std::ostringstream message;
    message << "unknown search strategy '" << name << "'; registered strategies:";
    for (const auto& [known, _] : searchers) message << " " << known;
    throw std::out_of_range(message.str());
  }
  return it->second;
}

void register_searcher(Searcher strategy) {
  if (!strategy.search) throw std::invalid_argument("register_searcher: null strategy");
  registry()[strategy.name] = std::move(strategy);
}

}  // namespace mhla::assign
