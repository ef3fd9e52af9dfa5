#include "analysis/common_cause.h"

#include "core/text_table.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace ftsynth {

std::string CommonCauseReport::to_string() const {
  std::string out;
  out += "Single points of failure (order-1 minimal cut sets): " +
         std::to_string(single_points_of_failure.size()) + "\n";
  for (const FtNode* event : single_points_of_failure)
    out += "  ! " + std::string(event->name().view()) + "  -- " +
           event->description() + "\n";
  out += "Shared causes (events referenced by several gates):\n";
  for (const SharedCause& shared : shared_causes) {
    out += "  * " + std::string(shared.event->name().view()) + " (" +
           std::to_string(shared.parent_count) + " parents)\n";
  }
  if (shared_causes.empty()) out += "  (none)\n";
  return out;
}

CommonCauseReport analyse_common_cause(const FaultTree& tree,
                                       const CutSetAnalysis& analysis) {
  CommonCauseReport report;

  for (const CutSet cs : analysis.of_order(1)) {
    const CutLiteral& literal = cs.front();
    if (!literal.negated &&
        std::find(report.single_points_of_failure.begin(),
                  report.single_points_of_failure.end(),
                  literal.event) == report.single_points_of_failure.end()) {
      report.single_points_of_failure.push_back(literal.event);
    }
  }

  std::unordered_map<const FtNode*, std::size_t> parents;
  tree.for_each_reachable([&](const FtNode& node) {
    for (const FtNode* child : node.children()) {
      if (child->is_leaf()) ++parents[child];
    }
  });
  for (const auto& [event, count] : parents) {
    if (count > 1) report.shared_causes.push_back({event, count});
  }
  std::sort(report.shared_causes.begin(), report.shared_causes.end(),
            [](const SharedCause& a, const SharedCause& b) {
              if (a.parent_count != b.parent_count)
                return a.parent_count > b.parent_count;
              return a.event->name() < b.event->name();
            });
  return report;
}

std::string render_dependency_matrix(
    const std::vector<const FaultTree*>& trees) {
  // Precompute each tree's basic-event set once.
  std::vector<std::unordered_set<Symbol>> events(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (const FtNode* event : trees[i]->basic_events())
      events[i].insert(event->name());
  }
  std::vector<std::string> headers{"top event \\ shared with"};
  for (std::size_t j = 0; j < trees.size(); ++j)
    headers.push_back("#" + std::to_string(j + 1));
  TextTable table(std::move(headers));
  for (std::size_t i = 0; i < trees.size(); ++i) {
    std::vector<std::string> row{"#" + std::to_string(i + 1) + " " +
                                 trees[i]->top_description()};
    for (std::size_t j = 0; j < trees.size(); ++j) {
      std::size_t shared = 0;
      for (Symbol name : events[i]) shared += events[j].count(name);
      row.push_back(std::to_string(shared));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

std::vector<Symbol> shared_between(const FaultTree& a, const FaultTree& b) {
  std::unordered_set<Symbol> in_a;
  for (const FtNode* event : a.basic_events()) in_a.insert(event->name());
  std::vector<Symbol> shared;
  for (const FtNode* event : b.basic_events()) {
    if (in_a.count(event->name()) != 0) shared.push_back(event->name());
  }
  std::sort(shared.begin(), shared.end());
  return shared;
}

}  // namespace ftsynth
