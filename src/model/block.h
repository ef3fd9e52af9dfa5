// Blocks -- the components of a hierarchical Simulink-style model.
//
// A model is a tree of blocks. Subsystems contain child blocks and the
// connections between them; every other kind is a leaf. Inport/Outport
// children act as proxies for a subsystem's own boundary ports (exactly as
// in Simulink), so connections always join ports of sibling blocks.
//
// Both basic blocks and subsystems carry an Annotation. On a basic block it
// is the component's local hazard analysis (paper, Figure 2). On a
// subsystem it is the enclosing-level analysis of Figure 3 -- hardware or
// environmental common-cause failures that affect the subsystem outputs
// directly, OR-ed into every fault tree path that crosses the boundary.

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "failure/annotation.h"
#include "model/connection.h"
#include "model/port.h"

namespace ftsynth {

enum class BlockKind {
  kBasic,           ///< leaf component described by its hazard analysis
  kSubsystem,       ///< composite: children + internal connections
  kInport,          ///< proxy for the parent subsystem's input port
  kOutport,         ///< proxy for the parent subsystem's output port
  kMux,             ///< combines N input flows into one vector flow
  kDemux,           ///< splits one vector flow into N flows
  kDataStoreWrite,  ///< writes a named store (implicit communication)
  kDataStoreRead,   ///< reads a named store written elsewhere in the model
  kGround,          ///< inert source terminating otherwise-unconnected inputs
};

std::string_view to_string(BlockKind kind) noexcept;

/// One block of the model. Blocks are owned by their parent subsystem (the
/// root is owned by the Model) and are address-stable.
class Block {
 public:
  /// `parent` is fully constructed first, so the path is computed here once.
  Block(Symbol name, BlockKind kind, Block* parent);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  Symbol name() const noexcept { return name_; }
  BlockKind kind() const noexcept { return kind_; }
  Block* parent() const noexcept { return parent_; }
  bool is_root() const noexcept { return parent_ == nullptr; }
  bool is_subsystem() const noexcept {
    return kind_ == BlockKind::kSubsystem;
  }

  /// Slash-separated path from the root, e.g. "bbw/pedal_node/filter".
  /// Cached: names and parents never change, and synthesis asks for it on
  /// every event it names.
  const std::string& path() const noexcept { return path_; }

  // -- Ports -----------------------------------------------------------------

  /// Adds a port; `width` >= 1. Throws ErrorKind::kModel on duplicate names.
  Port& add_port(Symbol name, PortDirection direction,
                 FlowKind flow = FlowKind::kData, int width = 1,
                 bool is_trigger = false);

  const std::vector<std::unique_ptr<Port>>& ports() const noexcept {
    return ports_;
  }
  /// Input ports in declaration order (mux channel order).
  std::vector<Port*> inputs() const;
  /// Output ports in declaration order (demux channel order).
  std::vector<Port*> outputs() const;
  /// The trigger input, or nullptr.
  Port* trigger() const noexcept;

  Port* find_port(Symbol name) const noexcept;
  /// Throws ErrorKind::kLookup when absent.
  Port& port(Symbol name) const;
  Port& port(std::string_view name) const { return port(Symbol(name)); }

  // -- Hierarchy (subsystems) --------------------------------------------------

  /// Adds a child block; caller must be a subsystem. Child names must be
  /// unique among siblings.
  Block& add_child(Symbol name, BlockKind kind);

  const std::vector<std::unique_ptr<Block>>& children() const noexcept {
    return children_;
  }
  Block* find_child(Symbol name) const noexcept;
  /// Throws ErrorKind::kLookup when absent.
  Block& child(std::string_view name) const;

  /// Connects an output port to an input port of (possibly the same) child
  /// blocks of this subsystem. Fan-out is modelled as several connections
  /// from the same source.
  const Connection& connect(Port& from, Port& to);

  const std::vector<Connection>& connections() const noexcept {
    return connections_;
  }

  /// The unique connection feeding `input` (which must belong to a child of
  /// this subsystem), or nullptr when the input is unconnected.
  const Connection* connection_into(const Port& input) const noexcept;

  /// All connections leaving `output`.
  std::vector<const Connection*> connections_from(
      const Port& output) const noexcept;

  /// Applies `visit` to this block and every descendant, preorder.
  void for_each_block(const std::function<void(Block&)>& visit);
  void for_each_block(const std::function<void(const Block&)>& visit) const;

  // -- Failure data ------------------------------------------------------------

  Annotation& annotation() noexcept { return annotation_; }
  const Annotation& annotation() const noexcept { return annotation_; }

  // -- Kind-specific attributes -------------------------------------------------

  /// Store name for kDataStoreWrite / kDataStoreRead blocks.
  Symbol store_name() const noexcept { return store_name_; }
  void set_store_name(Symbol name) noexcept { store_name_ = name; }

  /// Free-form description shown in reports.
  const std::string& description() const noexcept { return description_; }
  void set_description(std::string text) { description_ = std::move(text); }

 private:
  Symbol name_;
  BlockKind kind_;
  Block* parent_;
  std::string path_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::unique_ptr<Block>> children_;
  std::vector<Connection> connections_;
  Annotation annotation_;
  Symbol store_name_;
  std::string description_;
  // O(1) lookups; models are build-once, so the indexes only grow.
  std::unordered_map<Symbol, Port*> port_index_;
  std::unordered_map<Symbol, Block*> child_index_;
  std::unordered_map<const Port*, std::size_t> feed_index_;  // input -> conn
};

}  // namespace ftsynth
