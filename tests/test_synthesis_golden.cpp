// Golden byte-identity corpus for fault tree synthesis.
//
// Every output x failure-class candidate of a fixed model corpus is
// synthesised under four option combinations (UnannotatedPolicy
// {kUndeveloped, kPrune} x LoopPolicy {kPrune, kEvent}) with a diagnostic
// sink attached; the densely looped families are also run under a small
// traversal-depth budget. The XML of each tree plus the diagnostics it
// raised are folded into FNV-1a digests and compared with
// tests/golden/synthesis_digests.txt. The committed digests were produced
// by the traversal that re-expanded every loop-tainted resolution, so they
// pin the exact bytes that any sharing, caching or replay of work must
// keep. That traversal already applied resolve_basic's rule that only an
// unshared gate may be extended in place, which the nested family
// exercises.
//
// On a mismatch the computed corpus is written to
// synthesis_digests.actual.txt in the test's working directory; copy it
// over the committed file only when an output change is intended. The
// build_random family draws through std::uniform_*_distribution, whose
// algorithms the standard leaves to the library: the committed digests
// come from libstdc++.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "casestudy/fuel.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "core/diagnostics.h"
#include "fta/synthesis.h"
#include "ftp/xml_writer.h"
#include "mdl/parser.h"
#include "mdl/writer.h"
#include "model/builder.h"

namespace ftsynth {
namespace {

constexpr unsigned kRandomModels = 240;
constexpr unsigned kTangledModels = 2100;
constexpr unsigned kNestedModels = 600;
constexpr unsigned kPerLine = 100;

using Unannotated = SynthesisOptions::UnannotatedPolicy;
using Loops = SynthesisOptions::LoopPolicy;

struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;
  void feed(std::string_view bytes) {
    for (unsigned char c : bytes) {
      state ^= c;
      state *= 1099511628211ull;
    }
    state ^= 0xff;  // field separator
    state *= 1099511628211ull;
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(state));
    return out;
  }
};

struct NamedModel {
  std::string name;
  Model model;
};

/// Breaks every deviation named in the causes of the first block called
/// `block` so it references a port the block does not have: synthesis must
/// take the degraded-mode path (an undeveloped leaf plus a warning) on
/// every expansion that reaches it.
std::string degrade(std::string text, const std::string& block) {
  std::size_t at = text.find("Name \"" + block + "\"");
  const std::size_t end = text.find("Block {", at);
  while ((at = text.find("Cause \"", at)) < end) {
    const std::size_t close = text.find('"', at + 7);
    for (std::size_t dash = text.find('-', at); dash < close;
         dash = text.find('-', dash + 7)) {
      text.replace(dash, 1, "-ghost_");
    }
    at = close;
  }
  return text;
}

/// A flat model whose block inputs are wired to any block's output,
/// itself included, so feedback loops nest and overlap (build_random has
/// exactly one). Some blocks carry a trigger input; two outports observe it.
Model tangled_model(unsigned seed) {
  // mt19937's output is fixed by the standard; the std distributions are
  // not, so draws reduce it directly.
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  ModelBuilder b("tangled");
  Block& root = b.root();
  b.inport(root, "env");
  const int blocks = 6 + pick(8);
  std::vector<std::vector<std::string>> inputs(blocks);
  for (int i = 0; i < blocks; ++i) {
    Block& block = b.basic(root, "b" + std::to_string(i));
    for (int k = 2 + pick(3); k > 0; --k) {
      inputs[i].push_back("i" + std::to_string(inputs[i].size()));
      b.in(block, inputs[i].back());
    }
    if (pick(5) == 0) b.trigger(block);
    b.out(block, "out");
    b.malfunction(block, "fail", 1e-4 * (1 + i));
    for (const char* cls : {"Omission", "Value"}) {
      // Every draw is its own statement: operands of one `+` chain are
      // unsequenced, and the model must not depend on the compiler.
      auto atom = [&]() -> std::string {
        if (pick(4) == 0) return "fail";
        const std::string kind = pick(2) == 0 ? "Omission-" : "Value-";
        return kind + inputs[i][pick(static_cast<int>(inputs[i].size()))];
      };
      std::string cause = atom();
      for (int t = pick(3); t > 0; --t) {
        if (pick(3) == 0) {
          const std::string left = atom();
          cause += " OR (" + left + " AND " + atom() + ")";
        } else {
          cause += " OR " + atom();
        }
      }
      b.annotate(block, std::string(cls) + "-out", cause);
    }
  }
  for (int i = 0; i < blocks; ++i) {
    const std::string name = "b" + std::to_string(i);
    std::vector<std::string> ports = inputs[i];
    if (root.child(name).trigger() != nullptr) ports.push_back("trigger");
    for (const std::string& port : ports) {
      const std::string source =
          pick(6) == 0 ? "env" : "b" + std::to_string(pick(blocks)) + ".out";
      b.connect(root, source, name + "." + port);
    }
  }
  for (const char* outport : {"o1", "o2"}) {
    b.outport(root, outport);
    b.connect(root, "b" + std::to_string(pick(blocks)) + ".out", outport);
  }
  return b.take_unchecked();
}

/// A tangled model in which some units are subsystems with common-cause
/// rows over their own hardware (one to three terms). A subsystem's inner
/// path is grounded, passes its input straight through, or runs through an
/// inner block, so it is often cut by a loop or empty and the subsystem's
/// result is its common-cause gate itself. Those gates then feed triggered
/// and plain blocks from inside feedback loops, fresh or memoised.
Model nested_model(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  ModelBuilder b("nested");
  Block& root = b.root();
  b.inport(root, "env");
  const int units = 5 + pick(7);
  std::vector<std::vector<std::string>> inputs(units);
  for (int i = 0; i < units; ++i) {
    const std::string name = "u" + std::to_string(i);
    if (pick(5) < 2) {
      Block& s = b.subsystem(root, name);
      b.inport(s, "i0");
      b.outport(s, "out");
      inputs[i].push_back("i0");
      switch (pick(3)) {
        case 0:
          b.ground(s, "g");
          b.connect(s, "g", "out");
          break;
        case 1:
          b.connect(s, "i0", "out");
          break;
        default: {
          Block& core = b.basic(s, "core");
          b.in(core, "x");
          b.out(core, "y");
          b.malfunction(core, "f", 1e-5);
          b.annotate(core, "Omission-y",
                     pick(2) == 0 ? "Omission-x" : "Omission-x OR f");
          b.annotate(core, "Value-y", "Value-x");
          b.connect(s, "i0", "core.x");
          b.connect(s, "core.y", "out");
        }
      }
      for (const char* hw : {"hw1", "hw2", "hw3"})
        b.malfunction(s, hw, 1e-6 * (1 + i));
      static const char* const kCommon[] = {
          "hw1", "hw1 OR hw2", "hw1 AND hw2", "hw1 OR (hw2 AND hw3)",
          "hw2 OR hw3 OR hw1"};
      for (const char* cls : {"Omission", "Value"}) {
        const int row = pick(6);  // 5: no common-cause row for this class
        if (row < 5) b.annotate(s, std::string(cls) + "-out", kCommon[row]);
      }
      continue;
    }
    Block& block = b.basic(root, name);
    for (int k = 1 + pick(3); k > 0; --k) {
      inputs[i].push_back("i" + std::to_string(inputs[i].size()));
      b.in(block, inputs[i].back());
    }
    if (pick(2) == 0) b.trigger(block);
    b.out(block, "out");
    b.malfunction(block, "fail", 1e-4 * (1 + i));
    for (const char* cls : {"Omission", "Value"}) {
      // A lone input deviation, the common case, passes its source's
      // result through this block.
      auto atom = [&]() -> std::string {
        if (pick(5) == 0) return "fail";
        const std::string kind = pick(3) == 0 ? "Value-" : "Omission-";
        return kind + inputs[i][pick(static_cast<int>(inputs[i].size()))];
      };
      std::string cause = atom();
      for (int t = pick(4) - 1; t > 0; --t) {
        const std::string next = atom();
        cause = "(" + cause + (pick(2) == 0 ? ") OR " : ") AND ") + next;
      }
      b.annotate(block, std::string(cls) + "-out", cause);
    }
  }
  for (int i = 0; i < units; ++i) {
    const std::string name = "u" + std::to_string(i);
    std::vector<std::string> ports = inputs[i];
    if (root.child(name).trigger() != nullptr) ports.push_back("trigger");
    for (const std::string& port : ports) {
      const std::string source =
          pick(7) == 0 ? "env" : "u" + std::to_string(pick(units)) + ".out";
      b.connect(root, source, name + "." + port);
    }
  }
  for (const char* outport : {"o1", "o2"}) {
    b.outport(root, outport);
    b.connect(root, "u" + std::to_string(pick(units)) + ".out", outport);
  }
  return b.take_unchecked();
}

/// The models digested one line each: the case studies, the examples and
/// the seeded build_random models with feedback loops.
std::vector<NamedModel> corpus() {
  std::vector<NamedModel> models;
  models.push_back({"bbw", setta::build_bbw()});
  setta::BbwConfig no_acc;
  no_acc.with_acc = false;
  models.push_back({"bbw_no_acc", setta::build_bbw(no_acc)});
  models.push_back({"bbw_single_channel", setta::build_bbw_single_channel()});
  // The first wheel's brake controller sits inside a distributed control
  // loop and the bus receiver feeds several of them.
  for (const char* block : {"brake_ctrl", "com_rx"}) {
    models.push_back(
        {std::string("bbw_degraded_") + block,
         parse_mdl(degrade(write_mdl(setta::build_bbw()), block),
                   /*validated=*/false)});
  }
  models.push_back({"fuel", fuel::build_fuel_system()});
  for (const char* file : {"adversarial_product.mdl",
                           "adversarial_product_small.mdl",
                           "adversarial_voters.mdl", "duplex.mdl"}) {
    models.push_back({file, parse_mdl_file(std::string(FTSYNTH_EXAMPLES_DIR) +
                                           "/" + file)});
  }
  for (unsigned seed = 0; seed < kRandomModels; ++seed) {
    synthetic::RandomModelConfig config;
    config.seed = 7000u + seed;
    config.blocks = 4 + static_cast<int>(seed % 23);
    config.inports = 1 + static_cast<int>(seed % 3);
    config.max_fanin = 1 + static_cast<int>(seed % 4);
    config.with_loops = true;
    if (seed % 4 == 1) {
      config.condition_chance = 0.3;
      config.vote_chance = 0.3;
    }
    Model model = synthetic::build_random(config);
    std::string name = "random_" + std::to_string(config.seed);
    if (seed % 3 == 2) {
      // Alternate between the block feeding the sink and one inside the
      // loop region, which is resolved in many stack contexts.
      const int block = seed % 2 == 0 ? config.blocks : 1 + config.blocks / 2;
      model = parse_mdl(degrade(write_mdl(model), "b" + std::to_string(block)),
                        /*validated=*/false);
      name += "_degraded";
    }
    models.push_back({std::move(name), std::move(model)});
  }
  return models;
}

/// Folds every candidate top event of `model` under `options` into `hash`.
void fold(Fnv1a& hash, const Model& model, SynthesisOptions options) {
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all()) {
      const Deviation top{cls, port->name()};
      DiagnosticSink sink;
      options.sink = &sink;
      FaultTree tree = Synthesiser(model, options).synthesise(top);
      hash.feed(top.to_string());
      hash.feed(tree.top() == nullptr ? std::string("<empty>")
                                      : write_xml(tree));
      hash.feed(std::to_string(sink.diagnostics().size()));
      for (const Diagnostic& diagnostic : sink.diagnostics())
        hash.feed(diagnostic.to_string());
    }
  }
}

struct Combination {
  std::string name;
  SynthesisOptions options;
};

std::vector<Combination> combinations() {
  std::vector<Combination> out;
  for (Unannotated unannotated : {Unannotated::kUndeveloped,
                                  Unannotated::kPrune}) {
    for (Loops loops : {Loops::kPrune, Loops::kEvent}) {
      SynthesisOptions options;
      options.unannotated = unannotated;
      options.loops = loops;
      out.push_back(
          {std::string(unannotated == Unannotated::kPrune ? "prune"
                                                          : "undeveloped") +
               (loops == Loops::kEvent ? " loop-event" : " loop-prune"),
           options});
    }
  }
  return out;
}

/// Digests a densely looped family, kPerLine models to a line.
void digest_family(std::ostream& out, const char* family,
                   Model (*build)(unsigned seed), unsigned first_seed,
                   unsigned count) {
  for (unsigned first = 0; first < count; first += kPerLine) {
    std::vector<Model> models;
    for (unsigned seed = first; seed < first + kPerLine; ++seed)
      models.push_back(build(first_seed + seed));
    char range[32];
    std::snprintf(range, sizeof range, "%s_%04u-%04u", family, first,
                  first + kPerLine - 1);
    for (const Combination& combination : combinations()) {
      Fnv1a hash;
      for (const Model& model : models)
        fold(hash, model, combination.options);
      out << range << ' ' << combination.name << ' ' << hash.hex() << '\n';
    }
    // A depth budget that cuts inside the loops: replay must not hide a
    // cut that re-expansion at a deeper stack slot would make.
    Fnv1a hash;
    for (std::size_t i = 0; i < models.size(); ++i) {
      SynthesisOptions options;
      options.budget.max_depth = 3 + i % 5;
      fold(hash, models[i], options);
    }
    out << range << " depth-budget " << hash.hex() << '\n';
  }
}

std::string corpus_digests() {
  std::ostringstream out;
  for (const NamedModel& entry : corpus()) {
    for (const Combination& combination : combinations()) {
      Fnv1a hash;
      fold(hash, entry.model, combination.options);
      out << entry.name << ' ' << combination.name << ' ' << hash.hex()
          << '\n';
    }
  }
  digest_family(out, "tangled", tangled_model, 9000u, kTangledModels);
  digest_family(out, "nested", nested_model, 20000u, kNestedModels);
  return out.str();
}

TEST(SynthesisGolden, CorpusIsByteIdentical) {
  const std::string actual = corpus_digests();
  std::ifstream file(std::string(FTSYNTH_GOLDEN_DIR) +
                     "/synthesis_digests.txt");
  ASSERT_TRUE(file) << "missing tests/golden/synthesis_digests.txt";
  std::stringstream expected;
  expected << file.rdbuf();
  if (actual != expected.str()) {
    std::ofstream("synthesis_digests.actual.txt") << actual;
    // Name the first differing line rather than dumping the whole corpus.
    std::istringstream want(expected.str());
    std::istringstream got(actual);
    std::string want_line;
    std::string got_line;
    while (true) {
      const bool more_want = static_cast<bool>(std::getline(want, want_line));
      const bool more_got = static_cast<bool>(std::getline(got, got_line));
      if (!more_want) want_line = "<end of file>";
      if (!more_got) got_line = "<end of corpus>";
      if (want_line != got_line || (!more_want && !more_got)) break;
    }
    FAIL() << "synthesis output changed; first difference:\n  expected: "
           << want_line << "\n  actual:   " << got_line
           << "\n(full corpus written to synthesis_digests.actual.txt)";
  }
}

TEST(SynthesisGolden, CorpusCoversDegradedLoopedModels) {
  // The oracle only guards the sink path if corpus models exercise it.
  std::size_t degraded_models = 0;
  for (const NamedModel& entry : corpus()) {
    if (entry.name.find("degraded") == std::string::npos) continue;
    DiagnosticSink sink;
    SynthesisOptions options;
    options.sink = &sink;
    Synthesiser synthesiser(entry.model, options);
    for (const Port* port : entry.model.root().outputs()) {
      for (FailureClass cls : entry.model.registry().all())
        synthesiser.synthesise(Deviation{cls, port->name()});
    }
    if (sink.warning_count() > 0) ++degraded_models;
  }
  EXPECT_GE(degraded_models, 40u);
}

}  // namespace
}  // namespace ftsynth
