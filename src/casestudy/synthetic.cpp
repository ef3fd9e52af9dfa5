#include "casestudy/synthetic.h"

#include <random>
#include <string>
#include <vector>

#include "core/error.h"
#include "model/builder.h"

namespace ftsynth::synthetic {

namespace {

/// Standard stage annotation: one malfunction, Omission/Value propagation
/// from every input.
void annotate_stage(ModelBuilder& b, Block& block, double rate) {
  b.malfunction(block, "fail", rate, "internal failure of " +
                                         std::string(block.name().view()));
  std::vector<Port*> inputs = block.inputs();
  for (const char* cls : {"Omission", "Value"}) {
    std::string cause = "fail";
    for (const Port* input : inputs)
      cause += " OR " + std::string(cls) + "-" + input->name().str();
    for (const Port* output : block.outputs())
      b.annotate(block, std::string(cls) + "-" + output->name().str(), cause);
  }
}

}  // namespace

Model build_chain(int length) {
  require(length >= 1, ErrorKind::kModel, "chain length must be >= 1");
  ModelBuilder b("chain");
  Block& root = b.root();
  b.inport(root, "source");
  std::string previous = "source";
  for (int i = 1; i <= length; ++i) {
    const std::string name = "stage_" + std::to_string(i);
    Block& stage = b.basic(root, name);
    b.in(stage, "in");
    b.out(stage, "out");
    annotate_stage(b, stage, 1e-6);
    b.connect(root, previous, name + ".in");
    previous = name + ".out";
  }
  b.outport(root, "sink");
  b.connect(root, previous, "sink");
  return b.take();
}

namespace {

/// Builds a `width`-stage chain inside `parent` from its inport "in" to
/// its outport "out", then recurses one level deeper in the middle.
void build_deep_level(ModelBuilder& b, Block& parent, int remaining_depth,
                      int width) {
  std::string previous = "in";
  for (int i = 1; i <= width; ++i) {
    const std::string name = "stage_" + std::to_string(i);
    Block& stage = b.basic(parent, name);
    b.in(stage, "in");
    b.out(stage, "out");
    annotate_stage(b, stage, 1e-6);
    b.connect(parent, previous, name + ".in");
    previous = name + ".out";
  }
  if (remaining_depth > 0) {
    Block& nested = b.subsystem(parent, "nested");
    b.inport(nested, "in");
    b.outport(nested, "out");
    // Figure 3 common cause at every level.
    b.malfunction(nested, "level_hw", 1e-7, "shared hardware of this level");
    b.annotate(nested, "Omission-out", "level_hw");
    build_deep_level(b, nested, remaining_depth - 1, width);
    b.connect(parent, previous, "nested.in");
    previous = "nested.out";
  }
  b.connect(parent, previous, "out");
}

}  // namespace

Model build_deep(int depth, int width) {
  require(depth >= 0 && width >= 1, ErrorKind::kModel,
          "build_deep needs depth >= 0, width >= 1");
  ModelBuilder b("deep");
  Block& root = b.root();
  b.inport(root, "in");
  b.outport(root, "out");
  build_deep_level(b, root, depth, width);
  return b.take();
}

Model build_diamond(int depth) {
  require(depth >= 1, ErrorKind::kModel, "diamond depth must be >= 1");
  ModelBuilder b("diamond");
  Block& root = b.root();
  b.inport(root, "source");
  std::string previous = "source";
  for (int i = 1; i <= depth; ++i) {
    const std::string name = "stage_" + std::to_string(i);
    Block& stage = b.basic(root, name);
    b.in(stage, "left");
    b.in(stage, "right");
    b.out(stage, "out");
    b.malfunction(stage, "fail", 1e-6, "stage failure");
    b.annotate(stage, "Omission-out",
               "fail OR Omission-left OR Omission-right");
    b.annotate(stage, "Value-out", "fail OR Value-left OR Value-right");
    b.connect(root, previous, name + ".left");
    b.connect(root, previous, name + ".right");
    previous = name + ".out";
  }
  b.outport(root, "sink");
  b.connect(root, previous, "sink");
  return b.take();
}

Model build_replicated(const ReplicatedConfig& config) {
  require(config.channels >= 1 && config.stages >= 1, ErrorKind::kModel,
          "replicated model needs channels >= 1, stages >= 1");
  ModelBuilder b("replicated");
  Block& root = b.root();
  b.inport(root, "source");

  // Shared source conditioning block: the common cause every lane shares.
  Block& shared = b.basic(root, "shared_input");
  b.in(shared, "in");
  b.out(shared, "out");
  annotate_stage(b, shared, 1e-6);
  b.connect(root, "source", "shared_input.in");

  if (config.shared_power) {
    Block& power = b.basic(root, "power");
    b.out(power, "rail", FlowKind::kEnergy);
    b.malfunction(power, "supply_dead", 5e-7, "shared power supply loss");
    b.annotate(power, "Omission-rail", "supply_dead");
  }

  // Voter: omission only if every lane is lost.
  Block& voter = b.basic(root, "voter");
  std::string omission_cause = "voter_fail";
  std::string value_cause = "voter_fail";
  b.malfunction(voter, "voter_fail", 1e-8, "voter failure");

  for (int c = 1; c <= config.channels; ++c) {
    const std::string lane = "lane" + std::to_string(c);
    std::string previous = "shared_input.out";
    for (int s = 1; s <= config.stages; ++s) {
      const std::string name = lane + "_stage" + std::to_string(s);
      Block& stage = b.basic(root, name);
      b.in(stage, "in");
      if (config.shared_power && s == 1) {
        b.in(stage, "pwr", FlowKind::kEnergy);
        b.connect(root, "power.rail", name + ".pwr");
        b.malfunction(stage, "fail", 1e-6, "stage failure");
        b.out(stage, "out");
        b.annotate(stage, "Omission-out",
                   "fail OR Omission-in OR Omission-pwr");
        b.annotate(stage, "Value-out", "fail OR Value-in");
      } else {
        b.out(stage, "out");
        annotate_stage(b, stage, 1e-6);
      }
      b.connect(root, previous, name + ".in");
      previous = name + ".out";
    }
    b.in(voter, lane);
    b.connect(root, previous, "voter." + lane);
    omission_cause += (c == 1 ? " OR (" : " AND ") + ("Omission-" + lane);
    value_cause += " OR Value-" + lane;
  }
  omission_cause += ")";
  b.out(voter, "out");
  b.annotate(voter, "Omission-out", omission_cause,
             "all lanes must fail for the voted output to be lost");
  b.annotate(voter, "Value-out", value_cause);

  b.outport(root, "sink");
  b.connect(root, "voter.out", "sink");
  return b.take();
}

Model build_random(const RandomModelConfig& config) {
  require(config.blocks >= 1 && config.inports >= 1 && config.max_fanin >= 1,
          ErrorKind::kModel, "invalid RandomModelConfig");
  std::mt19937 rng(config.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };

  ModelBuilder b("random_model");
  Block& root = b.root();

  // Source endpoints usable by block i: root inports and earlier blocks.
  std::vector<std::string> sources;
  for (int i = 1; i <= config.inports; ++i) {
    const std::string name = "env" + std::to_string(i);
    b.inport(root, name);
    sources.push_back(name);
  }

  const std::vector<std::string> classes{"Omission", "Value"};
  std::vector<std::string> block_names;
  for (int i = 1; i <= config.blocks; ++i) {
    const std::string name = "b" + std::to_string(i);
    Block& block = b.basic(root, name);
    const int fanin = 1 + pick(config.max_fanin);
    std::vector<std::string> input_names;
    for (int k = 1; k <= fanin; ++k) {
      const std::string input = "in" + std::to_string(k);
      b.in(block, input);
      input_names.push_back(input);
    }
    b.out(block, "out");

    const double rate =
        config.rate_min +
        uniform(rng) * (config.rate_max - config.rate_min);
    b.malfunction(block, "fail", rate, "random malfunction");

    // A random monotone cause per class: OR of 1..3 terms, each a single
    // atom or (with and_probability) an AND of two atoms. The draws are
    // sequenced explicitly (operands of one `+` chain are not), so a seed
    // builds the same model under every compiler. They run last operand
    // first: tests/golden/synthesis_digests.txt was built in that order.
    auto atom = [&]() -> std::string {
      if (uniform(rng) < 0.35) return "fail";
      const int input = pick(static_cast<int>(input_names.size()));
      const int cls = pick(2);
      return classes[static_cast<std::size_t>(cls)] + "-" +
             input_names[static_cast<std::size_t>(input)];
    };
    for (const std::string& cls : classes) {
      const int terms = 1 + pick(3);
      std::string cause;
      for (int t = 0; t < terms; ++t) {
        std::string term;
        if (uniform(rng) < config.vote_chance) {
          const std::string third = atom();
          const std::string second = atom();
          const std::string first = atom();
          term = "VOTE(2: " + first + ", " + second + ", " + third + ")";
        } else if (uniform(rng) < config.and_probability) {
          const std::string right = atom();
          const std::string left = atom();
          term = "(" + left + " AND " + right + ")";
        } else {
          term = atom();
        }
        cause += (t == 0 ? "" : " OR ") + term;
      }
      // Guarantee the malfunction matters somewhere.
      if (cls == "Omission") cause += " OR fail";
      const bool conditional = uniform(rng) < config.condition_chance;
      b.annotate(block, cls + "-out", cause, /*description=*/"",
                 conditional ? 0.5 : 1.0);
    }

    // Wire the inputs from earlier sources (or, with loops enabled, from a
    // later block -- patched below once every block exists).
    for (const std::string& input : input_names) {
      const std::string& source =
          sources[static_cast<std::size_t>(pick(static_cast<int>(sources.size())))];
      const bool endpoint_is_inport =
          source.rfind("env", 0) == 0;
      b.connect(root, endpoint_is_inport ? source : source + ".out",
                name + "." + input);
    }
    sources.push_back(name);
    block_names.push_back(name);
  }

  // Optional feedback: an extra block whose input comes from the last
  // block and whose output feeds an extra input of an early block.
  if (config.with_loops && config.blocks >= 2) {
    Block& feedback = b.basic(root, "fb");
    b.in(feedback, "in");
    b.out(feedback, "out");
    annotate_stage(b, feedback, config.rate_min);
    b.connect(root, block_names.back() + ".out", "fb.in");
    Block& early = root.child(block_names.front());
    b.in(early, "loopback");
    b.connect(root, "fb.out", block_names.front() + ".loopback");
    // Make the loopback matter for the early block's omission.
    b.annotate(early, "Omission-out", "Omission-loopback AND fail");
  }

  b.outport(root, "sink");
  b.connect(root, block_names.back() + ".out", "sink");
  return b.take();
}

Model build_adversarial_product(int pairs) {
  require(pairs >= 1 && pairs <= 30, ErrorKind::kModel,
          "adversarial product needs 1..30 pairs");
  ModelBuilder b("adversarial_product");
  Block& root = b.root();
  Block& core = b.basic(root, "core");
  b.out(core, "out");
  // The spine (all a's) is a superset of the transversal {a1..an}, so
  // minimisation absorbs it -- it exists only to make depth-first
  // occurrence rank every a before every b.
  std::string spine;
  std::string product;
  for (int i = 1; i <= pairs; ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string bn = "b" + std::to_string(i);
    b.malfunction(core, a, 1e-5, "primary failure " + std::to_string(i));
    b.malfunction(core, bn, 1e-5, "backup failure " + std::to_string(i));
    spine += (i == 1 ? "" : " AND ") + a;
    product += (i == 1 ? "(" : " AND (") + a + " OR " + bn + ")";
  }
  b.annotate(core, "Omission-out", "(" + spine + ") OR (" + product + ")");
  b.outport(root, "sink");
  b.connect(root, "core.out", "sink");
  return b.take();
}

Model build_adversarial_voters(int stages) {
  require(stages >= 1 && stages <= 12, ErrorKind::kModel,
          "adversarial voters need 1..12 stages");
  ModelBuilder b("adversarial_voters");
  Block& root = b.root();
  Block& core = b.basic(root, "core");
  b.out(core, "out");
  const char* roles[3] = {"x", "y", "z"};
  for (int i = 1; i <= stages; ++i)
    for (const char* role : roles)
      b.malfunction(core, role + std::to_string(i), 1e-5,
                    std::string("lane ") + role + " of stage " +
                        std::to_string(i));
  // Role-grouped spine (x1..xk y1..yk z1..zk): absorbed by any per-stage
  // pair set, but it pins the pathological occurrence order.
  std::string spine;
  for (const char* role : roles)
    for (int i = 1; i <= stages; ++i)
      spine += (spine.empty() ? "" : " AND ") + std::string(role) +
               std::to_string(i);
  std::string product;
  for (int i = 1; i <= stages; ++i) {
    const std::string x = "x" + std::to_string(i);
    const std::string y = "y" + std::to_string(i);
    const std::string z = "z" + std::to_string(i);
    product += (i == 1 ? "((" : " AND ((") + x + " AND " + y + ") OR (" + x +
               " AND " + z + ") OR (" + y + " AND " + z + "))";
  }
  b.annotate(core, "Omission-out", "(" + spine + ") OR (" + product + ")");
  b.outport(root, "sink");
  b.connect(root, "core.out", "sink");
  return b.take();
}

}  // namespace ftsynth::synthetic
