// Unit tests for the fault tree synthesis algorithm: expression conversion,
// boundary crossing, common cause, policies, loops, memoisation.

#include <gtest/gtest.h>

#include "analysis/cutsets.h"
#include "casestudy/setta.h"
#include "core/diagnostics.h"
#include "core/error.h"
#include "fta/synthesis.h"
#include "model/builder.h"

namespace ftsynth {
namespace {

/// in -> a -> b -> out, each stage one malfunction + omission propagation.
Model two_stage_chain() {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  for (const char* name : {"a", "b"}) {
    Block& stage = b.basic(b.root(), name);
    b.in(stage, "x");
    b.out(stage, "y");
    b.malfunction(stage, "dead", 1e-6);
    b.annotate(stage, "Omission-y", "dead OR Omission-x");
  }
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "a.x");
  b.connect(b.root(), "a.y", "b.x");
  b.connect(b.root(), "b.y", "out");
  return b.take();
}

std::vector<std::string> cut_set_names(const FaultTree& tree) {
  std::vector<std::string> out;
  for (const CutSet& cs : minimal_cut_sets(tree).cut_sets) {
    std::string set;
    for (const CutLiteral& literal : cs) {
      if (!set.empty()) set += "+";
      if (literal.negated) set += "!";
      set += literal.event->name().view();
    }
    out.push_back(set);
  }
  return out;
}

TEST(Synthesis, ChainProducesLinearOrTree) {
  Model model = two_stage_chain();
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top_description(), "Omission-out at m");
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"env:Omission-in", "m/a.dead",
                                      "m/b.dead"}));
  // Rates travel onto the basic events.
  EXPECT_DOUBLE_EQ(tree.find_event(Symbol("m/a.dead"))->rate(), 1e-6);
}

TEST(Synthesis, UnknownTopEventThrows) {
  Model model = two_stage_chain();
  Synthesiser synthesiser(model);
  EXPECT_THROW(synthesiser.synthesise("Omission-nonexistent"), Error);
  // An input port is not a valid top event either.
  EXPECT_THROW(synthesiser.synthesise("Omission-in"), Error);
}

TEST(Synthesis, AndCausesBecomeAndGates) {
  ModelBuilder b("m");
  b.inport(b.root(), "p");
  b.inport(b.root(), "q");
  Block& stage = b.basic(b.root(), "s");
  b.in(stage, "p");
  b.in(stage, "q");
  b.out(stage, "y");
  b.annotate(stage, "Omission-y", "Omission-p AND Omission-q");
  b.outport(b.root(), "out");
  b.connect(b.root(), "p", "s.p");
  b.connect(b.root(), "q", "s.q");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();

  FaultTree tree = Synthesiser(model).synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->gate(), GateKind::kAnd);
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"env:Omission-p+env:Omission-q"}));
}

TEST(Synthesis, SubsystemCommonCauseIsOredAtTheBoundary) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& node = b.subsystem(b.root(), "node");
  b.inport(node, "in");
  Block& task = b.basic(node, "task");
  b.in(task, "x");
  b.out(task, "y");
  b.malfunction(task, "bug", 1e-7);
  b.annotate(task, "Omission-y", "bug OR Omission-x");
  b.outport(node, "out");
  b.connect(node, "in", "task.x");
  b.connect(node, "task.y", "out");
  b.malfunction(node, "cpu", 1e-6, "processor dead");
  b.annotate(node, "Omission-out", "cpu");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "node.in");
  b.connect(b.root(), "node.out", "out");
  Model model = b.take();

  FaultTree with = Synthesiser(model).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(with),
            (std::vector<std::string>{"env:Omission-in", "m/node.cpu",
                                      "m/node/task.bug"}));

  // Disabling the Figure 3 mechanism drops the hardware cause.
  SynthesisOptions options;
  options.subsystem_common_cause = false;
  FaultTree without = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(without),
            (std::vector<std::string>{"env:Omission-in", "m/node/task.bug"}));
}

TEST(Synthesis, UnannotatedPolicies) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& stage = b.basic(b.root(), "mystery");
  b.in(stage, "x");
  b.out(stage, "y");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "mystery.x");
  b.connect(b.root(), "mystery.y", "out");
  Model model = b.take();

  SynthesisOptions options;
  options.unannotated = SynthesisOptions::UnannotatedPolicy::kUndeveloped;
  FaultTree undeveloped = Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(undeveloped.top(), nullptr);
  EXPECT_EQ(undeveloped.top()->kind(), NodeKind::kUndeveloped);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  EXPECT_EQ(Synthesiser(model, options).synthesise("Omission-out").top(),
            nullptr);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kError;
  Synthesiser erroring(model, options);
  EXPECT_THROW(erroring.synthesise("Omission-out"), Error);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPropagate;
  FaultTree propagated =
      Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(propagated.top(), nullptr);
  EXPECT_EQ(propagated.top()->kind(), NodeKind::kBasic);
  EXPECT_EQ(propagated.top()->name(), Symbol("env:Omission-in"));
}

TEST(Synthesis, EnvironmentPolicyPrune) {
  Model model = two_stage_chain();
  SynthesisOptions options;
  options.environment = SynthesisOptions::EnvironmentPolicy::kPrune;
  FaultTree tree = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"m/a.dead", "m/b.dead"}));
}

TEST(Synthesis, TriggerOmissionIsAutomatic) {
  ModelBuilder b("m");
  Block& clock = b.basic(b.root(), "clock");
  b.out(clock, "tick");
  b.malfunction(clock, "hung", 1e-7);
  b.annotate(clock, "Omission-tick", "hung");
  Block& task = b.basic(b.root(), "task");
  b.trigger(task, "go");
  b.out(task, "y");
  b.malfunction(task, "bug", 1e-7);
  b.annotate(task, "Omission-y", "bug");
  b.outport(b.root(), "out");
  b.connect(b.root(), "clock.tick", "task.go");
  b.connect(b.root(), "task.y", "out");
  Model model = b.take();

  FaultTree automatic = Synthesiser(model).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(automatic),
            (std::vector<std::string>{"m/clock.hung", "m/task.bug"}));

  SynthesisOptions options;
  options.trigger_omission = false;
  FaultTree manual = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(manual),
            (std::vector<std::string>{"m/task.bug"}));
}

TEST(Synthesis, FeedbackLoopIsCutToLeastFixpoint) {
  // a.y = dead_a OR Omission-x where x is fed by b; b.y = dead_b OR a.y:
  // a classic two-block loop.
  ModelBuilder b("m");
  Block& a = b.basic(b.root(), "a");
  b.in(a, "x");
  b.out(a, "y");
  b.malfunction(a, "dead_a", 1e-6);
  b.annotate(a, "Omission-y", "dead_a OR Omission-x");
  Block& c = b.basic(b.root(), "c");
  b.in(c, "x");
  b.out(c, "y");
  b.malfunction(c, "dead_c", 1e-6);
  b.annotate(c, "Omission-y", "dead_c OR Omission-x");
  b.outport(b.root(), "out");
  b.connect(b.root(), "a.y", "c.x");
  b.connect(b.root(), "c.y", "a.x");
  b.connect(b.root(), "c.y", "out");
  Model model = b.take();

  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-out");
  EXPECT_GE(synthesiser.stats().loops_cut, 1u);
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"m/a.dead_a", "m/c.dead_c"}));

  // With LoopPolicy::kEvent the cut point is a visible leaf.
  SynthesisOptions options;
  options.loops = SynthesisOptions::LoopPolicy::kEvent;
  FaultTree visible = Synthesiser(model, options).synthesise("Omission-out");
  bool loop_leaf = false;
  visible.for_each_reachable([&](const FtNode& node) {
    if (node.kind() == NodeKind::kLoop) loop_leaf = true;
  });
  EXPECT_TRUE(loop_leaf);
}

TEST(Synthesis, MemoisationSharesSubtreesAndCountsHits) {
  // Diamond: both inputs of `join` come from the same upstream chain.
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& src = b.basic(b.root(), "src");
  b.in(src, "x");
  b.out(src, "y");
  b.malfunction(src, "dead", 1e-6);
  b.annotate(src, "Omission-y", "dead OR Omission-x");
  Block& join = b.basic(b.root(), "join");
  b.in(join, "l");
  b.in(join, "r");
  b.out(join, "y");
  b.annotate(join, "Omission-y", "Omission-l AND Omission-r");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "src.x");
  b.connect(b.root(), "src.y", "join.l");
  b.connect(b.root(), "src.y", "join.r");
  b.connect(b.root(), "join.y", "out");
  Model model = b.take();

  Synthesiser shared(model);
  FaultTree tree = shared.synthesise("Omission-out");
  EXPECT_GE(shared.stats().cache_hits, 1u);
  // AND(x, x) collapses: the top is the shared OR itself.
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->gate(), GateKind::kOr);

  SynthesisOptions options;
  options.memoise = false;
  options.deduplicate = false;  // observe the raw expansion
  Synthesiser unshared(model, options);
  FaultTree expanded = unshared.synthesise("Omission-out");
  EXPECT_EQ(unshared.stats().cache_hits, 0u);
  // Without sharing the two branches are distinct nodes, so the AND stays.
  EXPECT_EQ(expanded.top()->gate(), GateKind::kAnd);
  // ... but the cut sets are semantically identical.
  EXPECT_EQ(cut_set_names(tree), cut_set_names(expanded));

  // The post-pass alone recovers the sharing: with dedupe on (default),
  // even the unmemoised run collapses to the same compact DAG.
  options.deduplicate = true;
  FaultTree recompacted =
      Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(recompacted.stats().node_count, tree.stats().node_count);
}

/// Two nested feedback loops (a <-> c, and c -> d -> a) observed through a
/// join that reads the loop region three times, so it is resolved in
/// several stack contexts. `c` names a port it does not have when `broken`.
Model nested_loops(bool broken) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& a = b.basic(b.root(), "a");
  for (const char* input : {"x", "v", "u", "z", "w"}) b.in(a, input);
  b.out(a, "y");
  b.malfunction(a, "dead", 1e-6);
  b.annotate(a, "Omission-y", "dead OR Omission-x OR Omission-z OR Omission-w");
  b.annotate(a, "Value-y",
             "Value-x OR Value-v OR Value-u OR (dead AND Omission-z)");
  Block& c = b.basic(b.root(), "c");
  b.in(c, "x");
  b.out(c, "y");
  b.malfunction(c, "dead", 1e-6);
  b.annotate(c, "Omission-y", "dead OR Omission-x");
  b.annotate(c, "Value-y", broken ? "Value-x OR Omission-x OR Value-ghost"
                                  : "Value-x OR Omission-x");
  Block& d = b.basic(b.root(), "d");
  b.in(d, "x");
  b.out(d, "y");
  b.malfunction(d, "dead", 1e-6);
  b.annotate(d, "Omission-y", "dead OR Omission-x");
  Block& join = b.basic(b.root(), "join");
  for (const char* input : {"l", "r", "s"}) b.in(join, input);
  b.out(join, "y");
  b.annotate(join, "Omission-y", "Omission-l AND Omission-r AND Omission-s");
  b.annotate(join, "Value-y", "Value-l OR Value-r OR Value-s OR Omission-l");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "a.w");
  b.connect(b.root(), "a.y", "c.x");
  b.connect(b.root(), "c.y", "a.x");
  b.connect(b.root(), "c.y", "a.v");
  b.connect(b.root(), "c.y", "a.u");
  b.connect(b.root(), "c.y", "d.x");
  b.connect(b.root(), "d.y", "a.z");
  b.connect(b.root(), "a.y", "join.l");
  b.connect(b.root(), "d.y", "join.r");
  b.connect(b.root(), "c.y", "join.s");
  b.connect(b.root(), "join.y", "out");
  return b.take_unchecked();
}

TEST(Synthesis, LoopRegionsAreNotReExpandedOnBbw) {
  // Loop-tainted resolutions are replayed instead of re-expanded: across
  // BBW's 70 (output x class) candidates full re-expansion made 386,329
  // resolutions, replay 6,342. The 4,068 loop cuts are replayed too. The
  // counters are pinned exactly under both policies the product runs (the
  // default tree and the kPrune top-derivation probe), which walk alike:
  // a change of traversal bookkeeping that keeps the trees must keep the
  // walk too.
  Model model = setta::build_bbw();
  for (SynthesisOptions::UnannotatedPolicy policy :
       {SynthesisOptions::UnannotatedPolicy::kUndeveloped,
        SynthesisOptions::UnannotatedPolicy::kPrune}) {
    SynthesisOptions options;
    options.unannotated = policy;
    std::size_t candidates = 0;
    SynthesisStats total;
    for (const Port* port : model.root().outputs()) {
      for (FailureClass cls : model.registry().all()) {
        Synthesiser synthesiser(model, options);
        synthesiser.synthesise(Deviation{cls, port->name()});
        ++candidates;
        total.resolutions += synthesiser.stats().resolutions;
        total.cache_hits += synthesiser.stats().cache_hits;
        total.loops_cut += synthesiser.stats().loops_cut;
      }
    }
    EXPECT_EQ(candidates, 70u);
    EXPECT_EQ(total.resolutions, 6342u);
    EXPECT_EQ(total.cache_hits, 1383u);
    EXPECT_EQ(total.loops_cut, 4068u);
  }
}

TEST(Synthesis, ReplayNeverSwallowsDegradedWarnings) {
  // Every expansion that reaches the broken cause warns again. A replayed
  // resolution would skip that warning, so such results are never stored:
  // the diagnostics are exactly those of full re-expansion.
  Model model = nested_loops(/*broken=*/true);
  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  Synthesiser synthesiser(model, options);
  FaultTree tree = synthesiser.synthesise("Value-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(synthesiser.stats().degraded, 4u);
  ASSERT_EQ(sink.diagnostics().size(), 4u);
  for (const Diagnostic& diagnostic : sink.diagnostics()) {
    EXPECT_EQ(diagnostic.message,
              "Value-ghost left undeveloped: cause expression references "
              "unknown port 'ghost'");
  }
}

TEST(Synthesis, UnmemoisedAblationExpandsAPlainTree) {
  // memoise = false turns every cache off, replay included: the raw tree
  // is the full expansion (26 nodes; replay would share down to 22).
  Model model = nested_loops(/*broken=*/false);
  SynthesisOptions options;
  options.memoise = false;
  options.deduplicate = false;
  Synthesiser synthesiser(model, options);
  FaultTree tree = synthesiser.synthesise("Value-out");
  EXPECT_EQ(synthesiser.stats().cache_hits, 0u);
  EXPECT_EQ(synthesiser.stats().resolutions, 61u);
  EXPECT_EQ(tree.nodes().size(), 26u);
}

TEST(Synthesis, SharedGatesAreNeverExtendedInPlace) {
  // Subsystem s fails by its own hardware only (hw1 OR hw2); two triggered
  // blocks pass its omission on, each also losing its own trigger clock.
  // Extending s's shared OR gate with x1's trigger used to leak clk1 into
  // x2's causes, so {clk1} alone became a cut set of x1 AND x2.
  for (bool s_resolved_first : {false, true}) {
    ModelBuilder b("m");
    Block& root = b.root();
    b.inport(root, "clk1");
    b.inport(root, "clk2");
    Block& s = b.subsystem(root, "s");
    b.ground(s, "g");
    b.outport(s, "out");
    b.connect(s, "g", "out");
    b.malfunction(s, "hw1", 1e-6);
    b.malfunction(s, "hw2", 1e-6);
    b.annotate(s, "Omission-out", "hw1 OR hw2");
    for (const char* name : {"x1", "x2"}) {
      Block& x = b.basic(root, name);
      b.in(x, "x");
      b.trigger(x);
      b.out(x, "y");
      b.annotate(x, "Omission-y", "Omission-x");
      b.connect(root, "s.out", std::string(name) + ".x");
    }
    b.connect(root, "clk1", "x1.trigger");
    b.connect(root, "clk2", "x2.trigger");
    Block& join = b.basic(root, "join");
    for (const char* input : {"c", "a", "b"}) b.in(join, input);
    b.out(join, "y");
    b.annotate(join, "Omission-y",
               s_resolved_first ? "(Omission-c OR Omission-a) AND Omission-b"
                                : "Omission-a AND Omission-b");
    b.connect(root, "s.out", "join.c");
    b.connect(root, "x1.y", "join.a");
    b.connect(root, "x2.y", "join.b");
    b.outport(root, "out");
    b.connect(root, "join.y", "out");
    Model model = b.take();

    FaultTree tree = Synthesiser(model).synthesise("Omission-out");
    EXPECT_EQ(cut_set_names(tree),
              (std::vector<std::string>{"m/s.hw1", "m/s.hw2",
                                        "env:Omission-clk1+env:Omission-clk2"}))
        << "s resolved first: " << s_resolved_first;
  }
}

TEST(Synthesis, SharedGateFeedingItsOwnTriggerMakesNoCycle) {
  // s's memoised OR gate reaches x twice, as data and as trigger. Extending
  // it in place with its own trigger loss used to make it its own child,
  // and deduplication then threw on the cyclic tree.
  ModelBuilder b("m");
  Block& root = b.root();
  Block& s = b.subsystem(root, "s");
  b.ground(s, "g");
  b.outport(s, "out");
  b.connect(s, "g", "out");
  b.malfunction(s, "hw1", 1e-6);
  b.malfunction(s, "hw2", 1e-6);
  b.annotate(s, "Omission-out", "hw1 OR hw2");
  Block& x = b.basic(root, "x");
  b.in(x, "x");
  b.trigger(x);
  b.out(x, "y");
  b.annotate(x, "Omission-y", "Omission-x");
  b.connect(root, "s.out", "x.x");
  b.connect(root, "s.out", "x.trigger");
  b.outport(root, "out");
  b.connect(root, "x.y", "out");
  Model model = b.take();

  FaultTree tree = Synthesiser(model).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"m/s.hw1", "m/s.hw2"}));
}

TEST(Synthesis, ConstantTrueCauseBecomesHouseEvent) {
  ModelBuilder b("m");
  Block& stage = b.basic(b.root(), "s");
  b.out(stage, "y");
  b.annotate(stage, "Commission-y", "true");
  b.outport(b.root(), "out");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();
  FaultTree tree = Synthesiser(model).synthesise("Commission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->kind(), NodeKind::kHouse);
}

TEST(Synthesis, SynthesiseAllCoversOutputsTimesClasses) {
  Model model = two_stage_chain();
  // Under the default (undeveloped) policy every class yields a tree --
  // the unexplained ones rooted at undeveloped events.
  EXPECT_EQ(Synthesiser(model).synthesise_all().size(),
            model.registry().all().size());

  // Pruning unannotated deviations leaves only the derivable top event.
  SynthesisOptions options;
  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  Synthesiser pruning(model, options);
  std::vector<FaultTree> trees = pruning.synthesise_all();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees.front().top_description(), "Omission-out at m");
}

TEST(Synthesis, NotCauseSurvivesToAnalysis) {
  ModelBuilder b("m");
  Block& stage = b.basic(b.root(), "s");
  b.out(stage, "y");
  b.malfunction(stage, "fault", 1e-6);
  b.malfunction(stage, "detector_ok", 1e-6);
  b.annotate(stage, "Value-y", "fault AND NOT detector_ok");
  b.outport(b.root(), "out");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();
  FaultTree tree = Synthesiser(model).synthesise("Value-out");
  ASSERT_NE(tree.top(), nullptr);
  auto analysis = minimal_cut_sets(tree);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_EQ(analysis.cut_sets.front().size(), 2u);
  EXPECT_TRUE(analysis.cut_sets.front()[0].negated ||
              analysis.cut_sets.front()[1].negated);
}

}  // namespace
}  // namespace ftsynth
