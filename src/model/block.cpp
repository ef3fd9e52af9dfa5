#include "model/block.h"

#include <algorithm>

#include "core/error.h"
#include "core/strings.h"

namespace ftsynth {

std::string_view to_string(BlockKind kind) noexcept {
  switch (kind) {
    case BlockKind::kBasic:
      return "Basic";
    case BlockKind::kSubsystem:
      return "SubSystem";
    case BlockKind::kInport:
      return "Inport";
    case BlockKind::kOutport:
      return "Outport";
    case BlockKind::kMux:
      return "Mux";
    case BlockKind::kDemux:
      return "Demux";
    case BlockKind::kDataStoreWrite:
      return "DataStoreWrite";
    case BlockKind::kDataStoreRead:
      return "DataStoreRead";
    case BlockKind::kGround:
      return "Ground";
  }
  return "Unknown";
}

Block::Block(Symbol name, BlockKind kind, Block* parent)
    : name_(name),
      kind_(kind),
      parent_(parent),
      path_(parent == nullptr ? name.str()
                              : concat({parent->path(), "/", name.view()})) {}

Port& Block::add_port(Symbol name, PortDirection direction, FlowKind flow,
                      int width, bool is_trigger) {
  require(!name.empty(), ErrorKind::kModel, "port needs a name");
  require(width >= 1, ErrorKind::kModel,
          "port '" + name.str() + "' needs width >= 1");
  require(find_port(name) == nullptr, ErrorKind::kModel,
          "duplicate port '" + name.str() + "' on block '" + path() + "'");
  require(!is_trigger || direction == PortDirection::kInput, ErrorKind::kModel,
          "trigger port '" + name.str() + "' must be an input");
  int index = 0;
  for (const auto& p : ports_) {
    if (p->direction() == direction) ++index;
  }
  ports_.push_back(std::make_unique<Port>(*this, name, direction, flow, width,
                                          is_trigger, index));
  port_index_.emplace(name, ports_.back().get());
  return *ports_.back();
}

std::vector<Port*> Block::inputs() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->is_input()) out.push_back(p.get());
  }
  return out;
}

std::vector<Port*> Block::outputs() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->is_output()) out.push_back(p.get());
  }
  return out;
}

Port* Block::trigger() const noexcept {
  for (const auto& p : ports_) {
    if (p->is_trigger()) return p.get();
  }
  return nullptr;
}

Port* Block::find_port(Symbol name) const noexcept {
  auto it = port_index_.find(name);
  return it == port_index_.end() ? nullptr : it->second;
}

Port& Block::port(Symbol name) const {
  Port* p = find_port(name);
  if (p == nullptr) {
    fail(ErrorKind::kLookup,
         "block '" + path() + "' has no port '" + name.str() + "'");
  }
  return *p;
}

Block& Block::add_child(Symbol name, BlockKind kind) {
  require(is_subsystem(), ErrorKind::kModel,
          "cannot add child '" + name.str() + "' to non-subsystem '" + path() +
              "'");
  require(!name.empty(), ErrorKind::kModel, "block needs a name");
  require(find_child(name) == nullptr, ErrorKind::kModel,
          "duplicate block '" + name.str() + "' in subsystem '" + path() +
              "'");
  children_.push_back(std::make_unique<Block>(name, kind, this));
  child_index_.emplace(name, children_.back().get());
  return *children_.back();
}

Block* Block::find_child(Symbol name) const noexcept {
  auto it = child_index_.find(name);
  return it == child_index_.end() ? nullptr : it->second;
}

Block& Block::child(std::string_view name) const {
  Block* c = find_child(Symbol(name));
  if (c == nullptr) {
    fail(ErrorKind::kLookup, "subsystem '" + path() + "' has no child '" +
                                 std::string(name) + "'");
  }
  return *c;
}

const Connection& Block::connect(Port& from, Port& to) {
  require(is_subsystem(), ErrorKind::kModel,
          "connections can only be added to subsystems");
  require(from.is_output(), ErrorKind::kModel,
          "connection source " + from.qualified_name() + " is not an output");
  require(to.is_input(), ErrorKind::kModel,
          "connection destination " + to.qualified_name() +
              " is not an input");
  require(from.owner().parent() == this && to.owner().parent() == this,
          ErrorKind::kModel,
          "connection " + from.qualified_name() + " -> " +
              to.qualified_name() + " must join children of '" + path() + "'");
  require(connection_into(to) == nullptr, ErrorKind::kModel,
          "input " + to.qualified_name() + " is already connected");
  connections_.push_back({&from, &to});
  feed_index_.emplace(&to, connections_.size() - 1);
  return connections_.back();
}

const Connection* Block::connection_into(const Port& input) const noexcept {
  auto it = feed_index_.find(&input);
  return it == feed_index_.end() ? nullptr : &connections_[it->second];
}

std::vector<const Connection*> Block::connections_from(
    const Port& output) const noexcept {
  std::vector<const Connection*> out;
  for (const Connection& c : connections_) {
    if (c.from == &output) out.push_back(&c);
  }
  return out;
}

void Block::for_each_block(const std::function<void(Block&)>& visit) {
  visit(*this);
  for (const auto& c : children_) c->for_each_block(visit);
}

void Block::for_each_block(
    const std::function<void(const Block&)>& visit) const {
  visit(*this);
  for (const auto& c : children_) {
    const Block& child = *c;
    child.for_each_block(visit);
  }
}

}  // namespace ftsynth
