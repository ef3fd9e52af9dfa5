// Tests for the model features section 3 claims the tool handles: mux /
// demux of flows (channel-accurate), indirectly relayed triggers, and
// Data-Store implicit communication. (Experiment E3.)

#include <gtest/gtest.h>

#include "analysis/cutsets.h"
#include "core/diagnostics.h"
#include "fta/synthesis.h"
#include "model/builder.h"

namespace ftsynth {
namespace {

std::vector<std::string> cut_set_names(const FaultTree& tree) {
  std::vector<std::string> out;
  for (const CutSet& cs : minimal_cut_sets(tree).cut_sets) {
    std::string set;
    for (const CutLiteral& literal : cs) {
      if (!set.empty()) set += "+";
      set += literal.event->name().view();
    }
    out.push_back(set);
  }
  return out;
}

/// Two sources muxed into one flow and demuxed again: channel k of the
/// demux must trace back to source k only.
TEST(SynthesisFeatures, MuxDemuxKeepsChannelsSeparate) {
  ModelBuilder b("m");
  for (int i = 1; i <= 2; ++i) {
    Block& src = b.basic(b.root(), "src" + std::to_string(i));
    b.out(src, "y");
    b.malfunction(src, "dead", 1e-6);
    b.annotate(src, "Omission-y", "dead");
  }
  b.mux(b.root(), "mx", 2);
  b.demux(b.root(), "dx", 2);
  b.connect(b.root(), "src1.y", "mx.in1");
  b.connect(b.root(), "src2.y", "mx.in2");
  b.connect(b.root(), "mx.out", "dx.in");
  b.outport(b.root(), "o1");
  b.outport(b.root(), "o2");
  b.connect(b.root(), "dx.out1", "o1");
  b.connect(b.root(), "dx.out2", "o2");
  Model model = b.take();

  Synthesiser synthesiser(model);
  EXPECT_EQ(cut_set_names(synthesiser.synthesise("Omission-o1")),
            (std::vector<std::string>{"m/src1.dead"}));
  EXPECT_EQ(cut_set_names(synthesiser.synthesise("Omission-o2")),
            (std::vector<std::string>{"m/src2.dead"}));
}

/// A consumer of the whole muxed flow depends on every constituent.
TEST(SynthesisFeatures, WholeMuxedFlowDependsOnAllChannels) {
  ModelBuilder b("m");
  for (int i = 1; i <= 3; ++i) {
    Block& src = b.basic(b.root(), "src" + std::to_string(i));
    b.out(src, "y");
    b.malfunction(src, "dead", 1e-6);
    b.annotate(src, "Omission-y", "dead");
  }
  b.mux(b.root(), "mx", 3);
  for (int i = 1; i <= 3; ++i) {
    b.connect(b.root(), "src" + std::to_string(i) + ".y",
              "mx.in" + std::to_string(i));
  }
  Block& sink = b.basic(b.root(), "sink");
  b.in(sink, "all", FlowKind::kData, 3);
  b.out(sink, "y");
  b.annotate(sink, "Omission-y", "Omission-all");
  b.connect(b.root(), "mx.out", "sink.all");
  b.outport(b.root(), "out");
  b.connect(b.root(), "sink.y", "out");
  Model model = b.take();

  EXPECT_EQ(cut_set_names(Synthesiser(model).synthesise("Omission-out")),
            (std::vector<std::string>{"m/src1.dead", "m/src2.dead",
                                      "m/src3.dead"}));
}

/// Vector-width mux inputs: a 2-wide and a 1-wide flow muxed to width 3;
/// demux slices land on the right sides of the split.
TEST(SynthesisFeatures, MuxWithVectorWidths) {
  ModelBuilder b("m");
  Block& wide = b.basic(b.root(), "wide");
  b.out(wide, "y", FlowKind::kData, 2);
  b.malfunction(wide, "dead", 1e-6);
  b.annotate(wide, "Omission-y", "dead");
  Block& narrow = b.basic(b.root(), "narrow");
  b.out(narrow, "y");
  b.malfunction(narrow, "dead", 1e-6);
  b.annotate(narrow, "Omission-y", "dead");
  b.mux(b.root(), "mx", std::vector<int>{2, 1});
  b.connect(b.root(), "wide.y", "mx.in1");
  b.connect(b.root(), "narrow.y", "mx.in2");
  b.demux(b.root(), "dx", std::vector<int>{1, 2});
  b.connect(b.root(), "mx.out", "dx.in");
  b.outport(b.root(), "front");              // channel 0 -> wide only
  b.outport(b.root(), "back", FlowKind::kData, 2);  // channels 1,2 -> both
  b.connect(b.root(), "dx.out1", "front");
  b.connect(b.root(), "dx.out2", "back");
  Model model = b.take();

  Synthesiser synthesiser(model);
  EXPECT_EQ(cut_set_names(synthesiser.synthesise("Omission-front")),
            (std::vector<std::string>{"m/wide.dead"}));
  // The back slice overlaps channel 1 (wide) and channel 2 (narrow).
  EXPECT_EQ(cut_set_names(synthesiser.synthesise("Omission-back")),
            (std::vector<std::string>{"m/narrow.dead", "m/wide.dead"}));
}

/// Data-Store pairs communicate without explicit lines; a read depends on
/// every writer of the store, across subsystem boundaries.
TEST(SynthesisFeatures, DataStoreReadTracesAllWriters) {
  ModelBuilder b("m");
  for (int i = 1; i <= 2; ++i) {
    Block& node = b.subsystem(b.root(), "node" + std::to_string(i));
    Block& task = b.basic(node, "task");
    b.out(task, "status");
    b.malfunction(task, "crash", 1e-6);
    b.annotate(task, "Omission-status", "crash");
    b.store_write(node, "w", "health");
    b.connect(node, "task.status", "w");
  }
  b.store_read(b.root(), "r", "health");
  Block& monitor = b.basic(b.root(), "monitor");
  b.in(monitor, "s");
  b.out(monitor, "lamp");
  b.annotate(monitor, "Omission-lamp", "Omission-s");
  b.connect(b.root(), "r", "monitor.s");
  b.outport(b.root(), "lamp");
  b.connect(b.root(), "monitor.lamp", "lamp");
  Model model = b.take();

  // Omission of the read is the OR over the writers.
  EXPECT_EQ(cut_set_names(Synthesiser(model).synthesise("Omission-lamp")),
            (std::vector<std::string>{"m/node1/task.crash",
                                      "m/node2/task.crash"}));
}

TEST(SynthesisFeatures, UnwrittenStoreBecomesUndeveloped) {
  ModelBuilder b("m");
  b.store_read(b.root(), "r", "ghost");
  Block& sink = b.basic(b.root(), "sink");
  b.in(sink, "s");
  b.out(sink, "y");
  b.annotate(sink, "Omission-y", "Omission-s");
  b.connect(b.root(), "r", "sink.s");
  b.outport(b.root(), "out");
  b.connect(b.root(), "sink.y", "out");
  Model model = b.take_unchecked();  // warning-level issue only

  FaultTree tree = Synthesiser(model).synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->kind(), NodeKind::kUndeveloped);
}

// -- Degraded mode: the leaves of inputs and stores nothing feeds ------------

/// Traced through Block::connection_into: an input no line feeds becomes a
/// marked undeveloped leaf instead of aborting the traversal.
TEST(SynthesisFeatures, DegradedUnconnectedInputLeaf) {
  ModelBuilder b("m");
  Block& stage = b.basic(b.root(), "a");
  b.in(stage, "x");
  b.out(stage, "y");
  b.annotate(stage, "Omission-y", "Omission-x");
  b.outport(b.root(), "out");
  b.connect(b.root(), "a.y", "out");
  Model model = b.take_unchecked();

  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  FaultTree tree = Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->kind(), NodeKind::kUndeveloped);
  EXPECT_EQ(tree.top()->name().view(), "und:Omission-x@m/a");
  EXPECT_EQ(tree.top()->description(), "Omission-x on unconnected input");
  EXPECT_EQ(tree.top()->origin(), "m/a");
}

/// The writers of a store are OR-ed in model preorder (insertion order),
/// not name order: "zeta" is added before "alpha".
TEST(SynthesisFeatures, DegradedStoreReadOrsWritersInModelPreorder) {
  ModelBuilder b("m");
  for (const char* name : {"zeta", "alpha"}) {
    Block& node = b.subsystem(b.root(), name);
    Block& task = b.basic(node, "task");
    b.out(task, "status");
    b.malfunction(task, "crash", 1e-6);
    b.annotate(task, "Omission-status", "crash");
    b.store_write(node, "w", "health");
    b.connect(node, "task.status", "w");
  }
  b.store_read(b.root(), "r", "health");
  Block& monitor = b.basic(b.root(), "monitor");
  b.in(monitor, "s");
  b.out(monitor, "lamp");
  b.annotate(monitor, "Omission-lamp", "Omission-s");
  b.connect(b.root(), "r", "monitor.s");
  b.outport(b.root(), "lamp");
  b.connect(b.root(), "monitor.lamp", "lamp");
  Model model = b.take();

  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  FaultTree tree = Synthesiser(model, options).synthesise("Omission-lamp");
  ASSERT_NE(tree.top(), nullptr);
  ASSERT_EQ(tree.top()->kind(), NodeKind::kGate);
  EXPECT_EQ(tree.top()->gate(), GateKind::kOr);
  EXPECT_EQ(tree.top()->description(), "Omission of data store 'health'");
  std::vector<std::string> children;
  for (const FtNode* child : tree.top()->children())
    children.emplace_back(child->name().view());
  EXPECT_EQ(children, (std::vector<std::string>{"m/zeta/task.crash",
                                                "m/alpha/task.crash"}));
  EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(SynthesisFeatures, DegradedUnwrittenStoreLeaf) {
  ModelBuilder b("m");
  b.store_read(b.root(), "r", "ghost");
  Block& sink_block = b.basic(b.root(), "sink");
  b.in(sink_block, "s");
  b.out(sink_block, "y");
  b.annotate(sink_block, "Omission-y", "Omission-s");
  b.connect(b.root(), "r", "sink.s");
  b.outport(b.root(), "out");
  b.connect(b.root(), "sink.y", "out");
  Model model = b.take_unchecked();

  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  FaultTree tree = Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->kind(), NodeKind::kUndeveloped);
  EXPECT_EQ(tree.top()->name().view(), "und:store:ghost:Omission-out");
  EXPECT_EQ(tree.top()->description(),
            "store 'ghost' read by m/r is never written");
  EXPECT_EQ(tree.top()->origin(), "m/r");
}

/// Ground sources never deviate: the branch is pruned.
TEST(SynthesisFeatures, GroundedInputContributesNothing) {
  ModelBuilder b("m");
  b.ground(b.root(), "gnd");
  Block& stage = b.basic(b.root(), "s");
  b.in(stage, "x");
  b.out(stage, "y");
  b.malfunction(stage, "dead", 1e-6);
  b.annotate(stage, "Omission-y", "dead OR Omission-x");
  b.connect(b.root(), "gnd", "s.x");
  b.outport(b.root(), "out");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();

  EXPECT_EQ(cut_set_names(Synthesiser(model).synthesise("Omission-out")),
            (std::vector<std::string>{"m/s.dead"}));
}

/// Nested subsystems three levels deep, with common cause at each level.
TEST(SynthesisFeatures, DeepHierarchyAccumulatesCommonCauses) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block* parent = &b.root();
  std::string in_ep = "in";
  for (int level = 1; level <= 3; ++level) {
    Block& sub = b.subsystem(*parent, "l" + std::to_string(level));
    b.inport(sub, "in");
    b.outport(sub, "out");
    b.malfunction(sub, "hw", 1e-6 * level);
    b.annotate(sub, "Omission-out", "hw");
    b.connect(*parent, in_ep, "l" + std::to_string(level) + ".in");
    parent = &sub;
    in_ep = "in";
  }
  Block& task = b.basic(*parent, "task");
  b.in(task, "x");
  b.out(task, "y");
  b.malfunction(task, "bug", 1e-7);
  b.annotate(task, "Omission-y", "bug OR Omission-x");
  b.connect(*parent, "in", "task.x");
  b.connect(*parent, "task.y", "out");
  // Bubble the result back up.
  Block* up = parent;
  while (up->parent() != nullptr) {
    Block* grandparent = up->parent();
    if (grandparent->parent() == nullptr) break;
    b.connect(*grandparent, up->name().str() + ".out", "out");
    up = grandparent;
  }
  b.outport(b.root(), "out");
  b.connect(b.root(), "l1.out", "out");
  Model model = b.take();

  std::vector<std::string> sets =
      cut_set_names(Synthesiser(model).synthesise("Omission-out"));
  EXPECT_EQ(sets, (std::vector<std::string>{
                      "env:Omission-in", "m/l1.hw", "m/l1/l2.hw",
                      "m/l1/l2/l3.hw", "m/l1/l2/l3/task.bug"}));
}

}  // namespace
}  // namespace ftsynth
