// Unit tests for the hierarchical model: blocks, ports, connections,
// hierarchy, builder conveniences.

#include <gtest/gtest.h>

#include "core/error.h"
#include "model/builder.h"
#include "model/model.h"

namespace ftsynth {
namespace {

TEST(Model, RootIsASubsystemNamedAfterTheModel) {
  Model model("plant");
  EXPECT_EQ(model.name(), "plant");
  EXPECT_TRUE(model.root().is_subsystem());
  EXPECT_TRUE(model.root().is_root());
  EXPECT_EQ(model.root().path(), "plant");
  EXPECT_EQ(model.block_count(), 1u);
}

TEST(Model, RejectsNonIdentifierNames) {
  EXPECT_THROW(Model("has space"), Error);
  EXPECT_THROW(Model(""), Error);
}

TEST(Model, PathLookupWithAndWithoutRootPrefix) {
  ModelBuilder b("plant");
  Block& sub = b.subsystem(b.root(), "unit");
  Block& inner = b.basic(sub, "pump");
  Model model = b.take_unchecked();

  EXPECT_EQ(model.find_block(""), &model.root());
  EXPECT_EQ(model.find_block("plant"), &model.root());
  EXPECT_EQ(model.find_block("unit/pump"), &inner);
  EXPECT_EQ(model.find_block("plant/unit/pump"), &inner);
  EXPECT_EQ(model.find_block("plant/unit/none"), nullptr);
  EXPECT_THROW(model.block("missing"), Error);
  EXPECT_EQ(inner.path(), "plant/unit/pump");
}

TEST(Model, BlockAndPortUniquenessEnforced) {
  ModelBuilder b("m");
  Block& block = b.basic(b.root(), "x");
  EXPECT_THROW(b.basic(b.root(), "x"), Error);
  b.in(block, "p");
  EXPECT_THROW(b.in(block, "p"), Error);
  EXPECT_THROW(b.out(block, "p"), Error);  // names shared across directions
}

TEST(Model, PortsKeepDirectionOrderAndIndices) {
  ModelBuilder b("m");
  Block& block = b.basic(b.root(), "x");
  b.in(block, "i1");
  b.out(block, "o1");
  b.in(block, "i2");
  b.out(block, "o2");
  std::vector<Port*> ins = block.inputs();
  std::vector<Port*> outs = block.outputs();
  ASSERT_EQ(ins.size(), 2u);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(ins[0]->name(), Symbol("i1"));
  EXPECT_EQ(ins[0]->index(), 0);
  EXPECT_EQ(ins[1]->index(), 1);
  EXPECT_EQ(outs[1]->name(), Symbol("o2"));
  EXPECT_EQ(outs[1]->index(), 1);
  EXPECT_EQ(ins[0]->qualified_name(), "m/x.i1");
}

TEST(Model, TriggerPortRules) {
  ModelBuilder b("m");
  Block& block = b.basic(b.root(), "x");
  Port& t = b.trigger(block, "wakeup");
  EXPECT_TRUE(t.is_trigger());
  EXPECT_TRUE(t.is_input());
  EXPECT_EQ(block.trigger(), &t);
  EXPECT_THROW(b.trigger(block, "second"), Error);  // one trigger per block
  // Triggers must be inputs.
  EXPECT_THROW(block.add_port(Symbol("bad"), PortDirection::kOutput,
                              FlowKind::kData, 1, /*is_trigger=*/true),
               Error);
}

TEST(Model, ConnectionsValidateDirectionAndScope) {
  ModelBuilder b("m");
  Block& a = b.basic(b.root(), "a");
  Block& c = b.basic(b.root(), "c");
  Port& out = b.out(a, "out");
  Port& in = b.in(c, "in");
  b.root().connect(out, in);
  EXPECT_EQ(b.root().connection_into(in)->from, &out);
  EXPECT_EQ(b.root().connections_from(out).size(), 1u);

  // A second driver for the same input is rejected.
  Block& d = b.basic(b.root(), "d");
  Port& out2 = b.out(d, "out");
  EXPECT_THROW(b.root().connect(out2, in), Error);
  // Reversed endpoints are rejected.
  Port& in2 = b.in(d, "in");
  EXPECT_THROW(b.root().connect(in2, out), Error);
}

TEST(Model, ConnectionAcrossHierarchyLevelsRejected) {
  ModelBuilder b("m");
  Block& sub = b.subsystem(b.root(), "sub");
  Block& inner = b.basic(sub, "inner");
  Port& inner_out = b.out(inner, "out");
  Block& outer = b.basic(b.root(), "outer");
  Port& outer_in = b.in(outer, "in");
  EXPECT_THROW(b.root().connect(inner_out, outer_in), Error);
}

TEST(Model, FanOutIsAllowed) {
  ModelBuilder b("m");
  Block& src = b.basic(b.root(), "src");
  Port& out = b.out(src, "out");
  for (int i = 0; i < 3; ++i) {
    Block& sink = b.basic(b.root(), "sink" + std::to_string(i));
    b.root().connect(out, b.in(sink, "in"));
  }
  EXPECT_EQ(b.root().connections_from(out).size(), 3u);
}

TEST(Builder, InportOutportCreateProxiesAndBoundaryPorts) {
  ModelBuilder b("m");
  Block& sub = b.subsystem(b.root(), "sub");
  Block& proxy_in = b.inport(sub, "sig", FlowKind::kMaterial, 2);
  Block& proxy_out = b.outport(sub, "res");

  EXPECT_EQ(proxy_in.kind(), BlockKind::kInport);
  EXPECT_EQ(proxy_out.kind(), BlockKind::kOutport);
  Port& boundary = sub.port("sig");
  EXPECT_TRUE(boundary.is_input());
  EXPECT_EQ(boundary.flow(), FlowKind::kMaterial);
  EXPECT_EQ(boundary.width(), 2);
  EXPECT_TRUE(sub.port("res").is_output());
  EXPECT_EQ(proxy_in.outputs().front()->width(), 2);
}

TEST(Builder, MuxDemuxWidthArithmetic) {
  ModelBuilder b("m");
  Block& mux = b.mux(b.root(), "mx", {1, 2, 3});
  EXPECT_EQ(mux.inputs().size(), 3u);
  EXPECT_EQ(mux.outputs().front()->width(), 6);

  Block& demux = b.demux(b.root(), "dx", {2, 4});
  EXPECT_EQ(demux.inputs().front()->width(), 6);
  EXPECT_EQ(demux.outputs().size(), 2u);
  EXPECT_EQ(demux.outputs()[1]->width(), 4);
}

TEST(Builder, DataStoreBlocksCarryStoreNames) {
  ModelBuilder b("m");
  Block& w = b.store_write(b.root(), "w", "shared");
  Block& r = b.store_read(b.root(), "r", "shared");
  EXPECT_EQ(w.store_name(), Symbol("shared"));
  EXPECT_EQ(r.store_name(), Symbol("shared"));
  Model model = b.take_unchecked();
  EXPECT_EQ(model.store_writers(Symbol("shared")).size(), 1u);
  EXPECT_TRUE(model.store_writers(Symbol("other")).empty());
  EXPECT_THROW(
      ModelBuilder("x").store_read(ModelBuilder("x").root(), "r", "bad name"),
      Error);
}

TEST(Builder, ConnectResolvesBareAndDottedEndpoints) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& stage = b.basic(b.root(), "stage");
  b.in(stage, "a");
  b.in(stage, "b");
  b.out(stage, "out");
  b.outport(b.root(), "res");

  b.connect(b.root(), "in", "stage.a");        // bare inport source
  b.connect(b.root(), "in", "stage.b");
  b.connect(b.root(), "stage.out", "res");     // bare outport destination
  // Ambiguous bare endpoint (stage has two inputs) is rejected.
  Block& stage2 = b.basic(b.root(), "stage2");
  b.in(stage2, "x");
  b.in(stage2, "y");
  EXPECT_THROW(b.connect(b.root(), "in", "stage2"), Error);
  // Unknown child or port.
  EXPECT_THROW(b.connect(b.root(), "ghost.out", "stage2.x"), Error);
  EXPECT_THROW(b.connect(b.root(), "stage.nope", "stage2.x"), Error);
}

TEST(Builder, AddChildOnlyOnSubsystems) {
  ModelBuilder b("m");
  Block& basic = b.basic(b.root(), "leaf");
  EXPECT_THROW(basic.add_child(Symbol("x"), BlockKind::kBasic), Error);
}

TEST(Model, ForEachBlockVisitsPreorder) {
  ModelBuilder b("m");
  Block& sub = b.subsystem(b.root(), "s");
  b.basic(sub, "inner");
  b.basic(b.root(), "leaf");
  Model model = b.take_unchecked();
  std::vector<std::string> paths;
  model.for_each_block(
      [&](const Block& block) { paths.push_back(block.path()); });
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0], "m");
  EXPECT_EQ(paths[1], "m/s");
  EXPECT_EQ(paths[2], "m/s/inner");
  EXPECT_EQ(paths[3], "m/leaf");
}

TEST(Model, BlockPathIsCachedAndSurvivesMove) {
  ModelBuilder b("m");
  Block& outer = b.subsystem(b.root(), "outer");
  Block& inner = b.subsystem(outer, "inner");
  Block& leaf = b.basic(inner, "leaf");
  Model m1 = b.take_unchecked();
  const std::string* cached = &leaf.path();
  EXPECT_EQ(leaf.path(), "m/outer/inner/leaf");
  EXPECT_EQ(&leaf.path(), cached);  // one string, not rebuilt per call

  Model m2 = std::move(m1);
  std::vector<std::string> expected;
  m2.for_each_block([&](const Block& block) {
    // Each path is its parent's plus "/" plus its own name.
    std::string joined(block.name().view());
    for (const Block* up = block.parent(); up != nullptr; up = up->parent())
      joined = std::string(up->name().view()) + "/" + joined;
    EXPECT_EQ(block.path(), joined);
    expected.push_back(joined);
  });
  EXPECT_EQ(expected, (std::vector<std::string>{"m", "m/outer", "m/outer/inner",
                                                "m/outer/inner/leaf"}));
  const Block& moved = m2.block("outer/inner/leaf");
  EXPECT_EQ(&moved, &leaf);  // blocks are address-stable across the move
  EXPECT_EQ(moved.path(), "m/outer/inner/leaf");
  EXPECT_EQ(&moved.path(), cached);
}

}  // namespace
}  // namespace ftsynth
