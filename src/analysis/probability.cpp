#include "analysis/probability.h"

#include <cmath>
#include <unordered_map>

#include "analysis/ordering.h"
#include "bdd/bdd_prob.h"
#include "core/error.h"

namespace ftsynth {

double event_probability(const FtNode& event,
                         const ProbabilityOptions& options) {
  switch (event.kind()) {
    case NodeKind::kHouse:
      return 1.0;
    case NodeKind::kBasic:
      if (event.has_fixed_probability()) return event.fixed_probability();
      if (event.rate() > 0.0)
        return 1.0 - std::exp(-event.rate() * options.mission_time_hours);
      return options.default_event_probability;
    case NodeKind::kUndeveloped:
    case NodeKind::kLoop:
      return options.default_event_probability;
    case NodeKind::kGate:
      break;
  }
  throw Error(ErrorKind::kAnalysis,
              "event_probability called on a gate node");
}

double cut_set_probability(CutSet cut_set, const ProbabilityOptions& options) {
  double p = 1.0;
  for (const CutLiteral& literal : cut_set) {
    const double q = event_probability(*literal.event, options);
    p *= literal.negated ? (1.0 - q) : q;
  }
  return p;
}

std::vector<double> cut_set_probabilities(const CutSetAnalysis& analysis,
                                          const ProbabilityOptions& options) {
  // Each event's probability, by node id: literals point into one tree,
  // whose ids are dense. A slot remembers its event, so a literal of
  // another tree sharing the id is recomputed, never misread.
  struct Known {
    const FtNode* event = nullptr;
    double probability = 0.0;
  };
  std::vector<Known> known;
  std::vector<double> out;
  out.reserve(analysis.cut_sets.size());
  for (const CutSet cs : analysis.cut_sets) {
    // The same product cut_set_probability forms, literal by literal.
    double p = 1.0;
    for (const CutLiteral& literal : cs) {
      const auto id = static_cast<std::size_t>(literal.event->id());
      if (id >= known.size()) known.resize(id + 1);
      Known& slot = known[id];
      if (slot.event != literal.event)
        slot = {literal.event, event_probability(*literal.event, options)};
      p *= literal.negated ? (1.0 - slot.probability) : slot.probability;
    }
    out.push_back(p);
  }
  return out;
}

double rare_event_bound(const std::vector<double>& set_probabilities) {
  double sum = 0.0;
  for (const double p : set_probabilities) sum += p;
  return sum;
}

double esary_proschan_bound(const std::vector<double>& set_probabilities) {
  double product = 1.0;
  for (const double p : set_probabilities) product *= 1.0 - p;
  return 1.0 - product;
}

double mcub_bound(const std::vector<double>& set_probabilities) {
  double log_q = 0.0;  // log prod (1 - P(cs)), accumulated without rounding
  for (const double p : set_probabilities) {
    if (p >= 1.0) return 1.0;  // a certain cut set saturates the bound
    log_q += std::log1p(-p);
  }
  return -std::expm1(log_q);
}

namespace {

/// Probability of the union of literal sets `indices` (intersection of the
/// chosen cut sets): every literal must hold; a contradiction gives 0.
double intersection_probability(const CutSetAnalysis& analysis,
                                const std::vector<std::size_t>& indices,
                                const ProbabilityOptions& options) {
  // Collect literals; detect x & NOT x.
  std::unordered_map<const FtNode*, bool> literals;
  for (std::size_t index : indices) {
    for (const CutLiteral& literal : analysis.cut_sets[index]) {
      auto [it, inserted] = literals.emplace(literal.event, literal.negated);
      if (!inserted && it->second != literal.negated) return 0.0;
    }
  }
  double p = 1.0;
  for (const auto& [event, negated] : literals) {
    const double q = event_probability(*event, options);
    p *= negated ? (1.0 - q) : q;
  }
  return p;
}

}  // namespace

double inclusion_exclusion(const CutSetAnalysis& analysis,
                           const ProbabilityOptions& options,
                           std::size_t max_terms,
                           BudgetReport* report) {
  const std::size_t n = analysis.cut_sets.size();
  if (report != nullptr) *report = {};
  if (n == 0) return 0.0;
  Budget budget = options.budget;  // run-local deadline tick
  bool expired = false;
  double total = 0.0;
  std::vector<std::size_t> indices;
  // Enumerate subsets by order k = 1..max_terms with a recursive chooser.
  auto choose = [&](auto&& self, std::size_t start, std::size_t remaining)
      -> void {
    if (expired) return;
    if (remaining == 0) {
      if (budget.poll()) {
        expired = true;
        return;
      }
      const double p = intersection_probability(analysis, indices, options);
      total += (indices.size() % 2 == 1) ? p : -p;
      return;
    }
    for (std::size_t i = start; i + remaining <= n && !expired; ++i) {
      indices.push_back(i);
      self(self, i + 1, remaining - 1);
      indices.pop_back();
    }
  };
  // An interrupted order would leave an unbalanced alternating sum, so the
  // partial result keeps only the orders that completed before expiry.
  double completed_total = 0.0;
  std::size_t completed_orders = 0;
  for (std::size_t k = 1; k <= std::min(max_terms, n) && !expired; ++k) {
    choose(choose, 0, k);
    if (!expired) {
      completed_total = total;
      ++completed_orders;
    }
  }
  if (report != nullptr) {
    report->deadline_exceeded = expired;
    report->truncated = expired || completed_orders < n;
  }
  return expired ? completed_total : total;
}

std::vector<double> BddEncoding::probabilities(
    const ProbabilityOptions& options) const {
  std::vector<double> out;
  out.reserve(events.size());
  for (const FtNode* event : events)
    out.push_back(event_probability(*event, options));
  return out;
}

BddEncoding encode_bdd(const FaultTree& tree) {
  BddEncoding encoding;
  if (tree.top() == nullptr) return encoding;

  // Both tables are indexed by tree node id.
  std::vector<int> var_of(tree.nodes().size(), -1);
  auto var_of_node = [&](const FtNode* node) {
    return var_of[static_cast<std::size_t>(node->id())];
  };
  // Declare variables in leaf id order: `events` indexes stay stable no
  // matter which variable order the diagram uses internally.
  for (const FtNode* leaf : tree.leaves()) {
    if (leaf->kind() == NodeKind::kHouse) continue;
    var_of[static_cast<std::size_t>(leaf->id())] = encoding.bdd.new_var();
    encoding.events.push_back(leaf);
  }

  // Install the depth-first-occurrence order (analysis/ordering.h) as the
  // diagram's level order; leaves the synthesis kept but the top never
  // reaches fill the remaining levels in declaration order.
  std::vector<int> order;
  order.reserve(encoding.events.size());
  std::vector<char> placed(encoding.events.size(), 0);
  for (const FtNode* leaf : dfs_variable_order(tree)) {
    const int v = var_of_node(leaf);
    order.push_back(v);
    placed[static_cast<std::size_t>(v)] = 1;
  }
  for (std::size_t v = 0; v < placed.size(); ++v) {
    if (placed[v] == 0) order.push_back(static_cast<int>(v));
  }
  encoding.bdd.set_order(order);

  constexpr Bdd::Ref kUnbuilt = UINT32_MAX;
  std::vector<Bdd::Ref> memo(tree.nodes().size(), kUnbuilt);
  auto build = [&](auto&& self, const FtNode* node) -> Bdd::Ref {
    if (const Bdd::Ref built = memo[static_cast<std::size_t>(node->id())];
        built != kUnbuilt)
      return built;
    Bdd::Ref result = Bdd::kFalse;
    switch (node->kind()) {
      case NodeKind::kHouse:
        result = Bdd::kTrue;
        break;
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop:
        result = encoding.bdd.var(var_of_node(node));
        break;
      case NodeKind::kGate: {
        if (node->gate() == GateKind::kNot) {
          result =
              encoding.bdd.apply_not(self(self, node->children().front()));
          break;
        }
        // kPand encodes as AND: an upper bound (see analysis/temporal.h).
        const bool is_and = node->gate() == GateKind::kAnd ||
                            node->gate() == GateKind::kPand;
        result = is_and ? Bdd::kTrue : Bdd::kFalse;
        for (const FtNode* child : node->children()) {
          Bdd::Ref c = self(self, child);
          result = is_and ? encoding.bdd.apply_and(result, c)
                          : encoding.bdd.apply_or(result, c);
        }
        break;
      }
    }
    memo[static_cast<std::size_t>(node->id())] = result;
    return result;
  };
  encoding.root = build(build, tree.top());
  return encoding;
}

double exact_probability(const FaultTree& tree,
                         const ProbabilityOptions& options) {
  BddEncoding encoding = encode_bdd(tree);
  if (tree.top() == nullptr) return 0.0;
  return bdd_probability(encoding.bdd, encoding.root,
                         encoding.probabilities(options));
}

}  // namespace ftsynth
