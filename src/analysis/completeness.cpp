#include "analysis/completeness.h"

#include <algorithm>
#include <unordered_set>

#include "core/error.h"

namespace ftsynth {

std::string_view to_string(CompletenessKind kind) noexcept {
  switch (kind) {
    case CompletenessKind::kUnhandledPropagation:
      return "unhandled-propagation";
    case CompletenessKind::kUnproducedDeviation:
      return "unproduced-deviation";
    case CompletenessKind::kUnanalysedComponent:
      return "unanalysed-component";
    case CompletenessKind::kUnquantifiedMalfunction:
      return "unquantified-malfunction";
  }
  return "unknown";
}

std::string CompletenessFinding::to_string() const {
  return std::string(ftsynth::to_string(kind)) + " [" + block_path +
         "]: " + detail;
}

namespace {

class Tracer {
 public:
  explicit Tracer(const Model& model) : model_(model) {}

  std::vector<const Port*> trace_input(const Port& input) {
    producers_.clear();
    visited_.clear();
    input_rec(input);
    return std::move(producers_);
  }

 private:
  void add(const Port& port) {
    if (std::find(producers_.begin(), producers_.end(), &port) ==
        producers_.end())
      producers_.push_back(&port);
  }

  void input_rec(const Port& input) {
    const Block& owner = input.owner();
    const Block* parent = owner.parent();
    if (parent == nullptr) {
      add(input);  // model boundary: environment producer
      return;
    }
    const Connection* connection = parent->connection_into(input);
    if (connection == nullptr) return;
    output_rec(*connection->from);
  }

  void output_rec(const Port& output) {
    if (!visited_.insert(&output).second) return;  // feedback loop
    const Block& block = output.owner();
    switch (block.kind()) {
      case BlockKind::kBasic:
        add(output);
        return;
      case BlockKind::kSubsystem: {
        // The enclosing component can emit its own (hardware common-cause)
        // deviations in addition to what flows out of its contents.
        for (const AnnotationRow& row : block.annotation().rows()) {
          if (row.output.port == output.name()) {
            add(output);
            break;
          }
        }
        const Block* proxy = block.find_child(output.name());
        if (proxy == nullptr || proxy->kind() != BlockKind::kOutport) {
          fail(ErrorKind::kInternal,
               "missing Outport proxy for " + output.qualified_name());
        }
        input_rec(*proxy->inputs().front());
        return;
      }
      case BlockKind::kInport: {
        const Block* subsystem = block.parent();
        check_internal(subsystem != nullptr, "Inport proxy without parent");
        input_rec(subsystem->port(block.name()));
        return;
      }
      case BlockKind::kMux:
        for (const Port* in : block.inputs()) input_rec(*in);
        return;
      case BlockKind::kDemux:
        input_rec(*block.inputs().front());
        return;
      case BlockKind::kDataStoreRead:
        for (const Block* writer : model_.store_writers(block.store_name()))
          input_rec(*writer->inputs().front());
        return;
      case BlockKind::kGround:
        return;
      case BlockKind::kOutport:
      case BlockKind::kDataStoreWrite:
        return;  // no outputs; unreachable on valid models
    }
  }

  const Model& model_;
  std::vector<const Port*> producers_;
  std::unordered_set<const Port*> visited_;
};

/// Failure classes `port`'s owner can emit at `port`. Boundary inputs of
/// the model root (environment) can emit every registered class.
std::vector<FailureClass> producible_classes(const Model& model,
                                             const Port& port) {
  if (port.owner().is_root() && port.is_input())
    return model.registry().all();
  std::vector<FailureClass> out;
  for (const AnnotationRow& row : port.owner().annotation().rows()) {
    if (row.output.port != port.name()) continue;
    if (std::find(out.begin(), out.end(), row.output.failure_class) ==
        out.end())
      out.push_back(row.output.failure_class);
  }
  return out;
}

/// Failure classes `block`'s annotation examines at input `input`.
std::vector<FailureClass> examined_classes(const Block& block,
                                           const Port& input) {
  std::vector<FailureClass> out;
  for (const AnnotationRow& row : block.annotation().rows()) {
    for (const Deviation& d : row.cause->input_deviations()) {
      if (d.port != input.name()) continue;
      if (std::find(out.begin(), out.end(), d.failure_class) == out.end())
        out.push_back(d.failure_class);
    }
  }
  return out;
}

}  // namespace

std::vector<const Port*> upstream_producers(const Model& model,
                                            const Port& input) {
  return Tracer(model).trace_input(input);
}

std::vector<CompletenessFinding> audit_completeness(const Model& model) {
  std::vector<CompletenessFinding> findings;

  model.for_each_block([&](const Block& block) {
    const bool analysable =
        block.kind() == BlockKind::kBasic || block.is_subsystem();
    if (!analysable) return;

    if (block.kind() == BlockKind::kBasic && block.annotation().rows().empty()) {
      if (!block.outputs().empty()) {
        findings.push_back({CompletenessKind::kUnanalysedComponent,
                            block.path(),
                            "basic component has no hazard-analysis rows"});
      }
      return;
    }

    // Unquantified malfunctions actually used in causes.
    std::unordered_set<Symbol> used;
    for (const AnnotationRow& row : block.annotation().rows()) {
      for (Symbol m : row.cause->malfunctions()) used.insert(m);
    }
    for (const Malfunction& m : block.annotation().malfunctions()) {
      if (m.rate == 0.0 && used.count(m.name) != 0) {
        findings.push_back({CompletenessKind::kUnquantifiedMalfunction,
                            block.path(),
                            "malfunction '" + m.name.str() +
                                "' has no failure rate"});
      }
    }

    // Questions a and b per input. Only basic components consume their
    // inputs directly; a subsystem's inputs are examined by the inner
    // blocks, which this audit visits separately.
    if (block.is_subsystem()) return;
    for (const Port* input : block.inputs()) {
      std::vector<const Port*> producers = upstream_producers(model, *input);
      std::vector<FailureClass> producible;
      for (const Port* producer : producers) {
        for (FailureClass cls : producible_classes(model, *producer)) {
          if (std::find(producible.begin(), producible.end(), cls) ==
              producible.end())
            producible.push_back(cls);
        }
      }
      std::vector<FailureClass> examined = examined_classes(block, *input);
      // Trigger omission is examined implicitly by the synthesiser.
      if (input->is_trigger()) {
        FailureClass omission = model.registry().omission();
        if (std::find(examined.begin(), examined.end(), omission) ==
            examined.end())
          examined.push_back(omission);
      }

      for (FailureClass cls : producible) {
        if (std::find(examined.begin(), examined.end(), cls) ==
            examined.end()) {
          findings.push_back(
              {CompletenessKind::kUnhandledPropagation, block.path(),
               "upstream can propagate " +
                   Deviation{cls, input->name()}.to_string() +
                   " but the hazard analysis never examines it"});
        }
      }
      for (FailureClass cls : examined) {
        if (std::find(producible.begin(), producible.end(), cls) ==
            producible.end()) {
          findings.push_back(
              {CompletenessKind::kUnproducedDeviation, block.path(),
               "hazard analysis examines " +
                   Deviation{cls, input->name()}.to_string() +
                   " but no upstream producer can emit it"});
        }
      }
    }
  });

  std::sort(findings.begin(), findings.end(),
            [](const CompletenessFinding& a, const CompletenessFinding& b) {
              if (a.block_path != b.block_path)
                return a.block_path < b.block_path;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.detail < b.detail;
            });
  return findings;
}

}  // namespace ftsynth
