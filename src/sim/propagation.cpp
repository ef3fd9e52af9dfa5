#include "sim/propagation.h"

#include <algorithm>

#include "core/error.h"

namespace ftsynth {

bool PropagationResult::at(const Port& port, FailureClass cls,
                           int channel) const {
  if (channel >= 0) return true_atoms_.count({&port, channel, cls}) != 0;
  for (int c = 0; c < port.width(); ++c) {
    if (true_atoms_.count({&port, c, cls}) != 0) return true;
  }
  return false;
}

bool PropagationResult::at_system_output(Symbol port_name,
                                         FailureClass cls) const {
  auto it = output_deviations_.find(port_name);
  if (it == output_deviations_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), cls) !=
         it->second.end();
}

std::vector<Deviation> PropagationResult::system_output_deviations() const {
  std::vector<Deviation> out;
  for (const auto& [port, classes] : output_deviations_) {
    for (FailureClass cls : classes) out.push_back(Deviation{cls, port});
  }
  std::sort(out.begin(), out.end());
  return out;
}

PropagationEngine::PropagationEngine(const Model& model,
                                     SynthesisOptions options)
    : model_(model), options_(options) {}

namespace {

/// One Jacobi sweep evaluator: computes new output-port values by reading
/// the previous iteration's state.
class Evaluator {
 public:
  Evaluator(const Model& model, const SynthesisOptions& options,
            const std::unordered_set<Symbol>& active)
      : model_(model),
        options_(options),
        active_(active),
        omission_(model.registry().omission()) {}

  /// Value of (output port, channel, class) for the next iteration.
  bool eval_output(const Port& port, int channel, FailureClass cls) const {
    const Block& block = port.owner();
    switch (block.kind()) {
      case BlockKind::kBasic:
        return eval_basic(block, port, cls);
      case BlockKind::kSubsystem:
        return eval_subsystem_output(block, port, channel, cls);
      case BlockKind::kInport: {
        const Block* subsystem = block.parent();
        check_internal(subsystem != nullptr, "Inport proxy without parent");
        return input_true(subsystem->port(block.name()), channel, cls);
      }
      case BlockKind::kMux: {
        int offset = 0;
        for (const Port* input : block.inputs()) {
          if (channel < offset + input->width())
            return input_true(*input, channel - offset, cls);
          offset += input->width();
        }
        return false;
      }
      case BlockKind::kDemux: {
        int offset = 0;
        for (const Port* output : block.outputs()) {
          if (output == &port) break;
          offset += output->width();
        }
        return input_true(*block.inputs().front(), offset + channel, cls);
      }
      case BlockKind::kDataStoreRead: {
        for (const Block* writer : model_.store_writers(block.store_name())) {
          if (input_true(*writer->inputs().front(), -1, cls)) return true;
        }
        return false;
      }
      case BlockKind::kGround:
        return false;
      case BlockKind::kOutport:
      case BlockKind::kDataStoreWrite:
        break;
    }
    throw Error(ErrorKind::kInternal, "eval_output on block without outputs");
  }

  /// Boundary-output value of subsystem `s` (inner propagation + enclosing
  /// common cause) -- also used for the model root after the fixpoint.
  bool eval_subsystem_output(const Block& s, const Port& port, int channel,
                             FailureClass cls) const {
    const Block* proxy = s.find_child(port.name());
    if (proxy == nullptr || proxy->kind() != BlockKind::kOutport) {
      fail(ErrorKind::kInternal,
           "missing Outport proxy for " + port.qualified_name());
    }
    if (input_true(*proxy->inputs().front(), channel, cls)) return true;
    if (options_.subsystem_common_cause) {
      bool any_row = false;
      return eval_rows(s, Deviation{cls, port.name()}, any_row);
    }
    return false;
  }

  /// Reads the previous-iteration state for the flow feeding `input`.
  bool input_true(const Port& input, int channel, FailureClass cls) const {
    const Block& owner = input.owner();
    const Block* parent = owner.parent();
    if (parent == nullptr) {
      // Model boundary: environment event.
      if (options_.environment == SynthesisOptions::EnvironmentPolicy::kPrune)
        return false;
      return active_.count(Symbol(
                 "env:" + Deviation{cls, input.name()}.to_string())) != 0;
    }
    const Connection* connection = parent->connection_into(input);
    if (connection == nullptr) {
      return active_.count(Symbol("und:" +
                                  Deviation{cls, input.name()}.to_string() +
                                  "@" + owner.path())) != 0;
    }
    const Port& source = *connection->from;
    if (channel >= 0) return state_at(source, channel, cls);
    for (int c = 0; c < source.width(); ++c) {
      if (state_at(source, c, cls)) return true;
    }
    return false;
  }

  void set_state(const detail::PropagationState* state) { state_ = state; }

 private:
  bool state_at(const Port& port, int channel, FailureClass cls) const {
    return state_->count({&port, channel, cls}) != 0;
  }

  /// Mirrors the synthesiser's convert_rows: OR over the matching rows,
  /// conditional rows gated by their condition event being active.
  bool eval_rows(const Block& block, const Deviation& deviation,
                 bool& any_row) const {
    any_row = false;
    bool value = false;
    const std::vector<AnnotationRow>& rows = block.annotation().rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const AnnotationRow& row = rows[i];
      if (!(row.output == deviation)) continue;
      any_row = true;
      if (value) continue;  // already true; keep scanning for any_row only
      if (!eval_expr(*row.cause, block)) continue;
      if (row.condition_probability < 1.0 &&
          active_.count(
              Symbol(condition_event_name(block, deviation, i))) == 0)
        continue;
      value = true;
    }
    return value;
  }

  bool eval_basic(const Block& block, const Port& port,
                  FailureClass cls) const {
    const Deviation deviation{cls, port.name()};
    bool explained = false;
    bool value = eval_rows(block, deviation, explained);

    if (!value && options_.trigger_omission && cls == omission_) {
      if (const Port* trigger = block.trigger()) {
        value = input_true(*trigger, -1, omission_);
        explained = true;
      }
    }
    if (explained) return value;

    switch (options_.unannotated) {
      case SynthesisOptions::UnannotatedPolicy::kPrune:
        return false;
      case SynthesisOptions::UnannotatedPolicy::kError:
        throw Error(ErrorKind::kAnalysis,
                    "component '" + block.path() +
                        "' has no hazard-analysis row for " +
                        deviation.to_string());
      case SynthesisOptions::UnannotatedPolicy::kPropagate: {
        for (const Port* input : block.inputs()) {
          if (input->is_trigger()) continue;
          if (input_true(*input, -1, cls)) return true;
        }
        if (!block.inputs().empty()) return false;
        break;  // a source block: fall through to the undeveloped event
      }
      case SynthesisOptions::UnannotatedPolicy::kUndeveloped:
        break;
    }
    return active_.count(Symbol("und:" + deviation.to_string() + "@" +
                                block.path())) != 0;
  }

  bool eval_expr(const Expr& expr, const Block& block) const {
    return expr.evaluate(
        [&](const Deviation& d) {
          return input_true(block.port(d.port), -1, d.failure_class);
        },
        [&](Symbol malfunction) {
          return active_.count(
                     Symbol(block.path() + "." + malfunction.str())) != 0;
        });
  }

  const Model& model_;
  const SynthesisOptions& options_;
  const std::unordered_set<Symbol>& active_;
  FailureClass omission_;
  const detail::PropagationState* state_ = nullptr;
};

}  // namespace

PropagationResult PropagationEngine::propagate(
    const std::unordered_set<Symbol>& active_events) const {
  // All output ports to iterate over (state atoms live on output ports).
  std::vector<const Port*> outputs;
  model_.for_each_block([&](const Block& block) {
    for (const auto& port : block.ports()) {
      if (port->is_output()) outputs.push_back(port.get());
    }
  });
  const std::vector<FailureClass>& classes = model_.registry().all();

  Evaluator evaluator(model_, options_, active_events);
  PropagationResult result;
  evaluator.set_state(&result.true_atoms_);

  // Jacobi-style iteration to the (monotone) least fixpoint. Each sweep
  // adds at least one atom or terminates, so the loop is bounded by the
  // number of atoms.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<detail::PropagationAtom> discovered;
    for (const Port* port : outputs) {
      for (FailureClass cls : classes) {
        for (int channel = 0; channel < port->width(); ++channel) {
          detail::PropagationAtom atom{port, channel, cls};
          if (result.true_atoms_.count(atom) != 0) continue;
          if (evaluator.eval_output(*port, channel, cls))
            discovered.push_back(atom);
        }
      }
    }
    for (const detail::PropagationAtom& atom : discovered) {
      result.true_atoms_.insert(atom);
      changed = true;
    }
  }

  // Boundary outputs of the model root (incl. root common cause).
  for (const Port* port : model_.root().outputs()) {
    std::vector<FailureClass> observed;
    for (FailureClass cls : classes) {
      bool any = false;
      for (int channel = 0; channel < port->width() && !any; ++channel)
        any = evaluator.eval_subsystem_output(model_.root(), *port, channel,
                                              cls);
      if (any) observed.push_back(cls);
    }
    if (!observed.empty())
      result.output_deviations_.emplace(port->name(), std::move(observed));
  }
  return result;
}

std::vector<PropagationEngine::LeafEvent> PropagationEngine::leaf_events()
    const {
  std::vector<LeafEvent> events;
  model_.for_each_block([&](const Block& block) {
    for (const Malfunction& m : block.annotation().malfunctions()) {
      events.push_back(
          {Symbol(block.path() + "." + m.name.str()), m.rate, -1.0});
    }
    const std::vector<AnnotationRow>& rows = block.annotation().rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].condition_probability < 1.0) {
        events.push_back(
            {Symbol(condition_event_name(block, rows[i].output, i)), 0.0,
             rows[i].condition_probability});
      }
    }
  });
  for (const Port* input : model_.root().inputs()) {
    for (FailureClass cls : model_.registry().all()) {
      events.push_back(
          {Symbol("env:" + Deviation{cls, input->name()}.to_string()), 0.0,
           -1.0});
    }
  }
  return events;
}

}  // namespace ftsynth
