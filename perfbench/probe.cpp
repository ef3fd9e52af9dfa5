// Benchmark probe: input generation and the traced in-process replay.
//
//   perfbench_probe gen-bbw OUT.mdl
//       writes the SETTA brake-by-wire model (setta::build_bbw()).
//   perfbench_probe gen-replicated OUT.mdl CHANNELS STAGES
//       writes synthetic::build_replicated({CHANNELS, STAGES}).
//   perfbench_probe trace cold|warm
//       reads one JSON request per stdin line and answers one JSON line per
//       request on stdout (protocol below), then exits on EOF.
//
// The traced replay does the work `ftsynth analyse` does, call for call,
// through the public functions of each layer, and records a span around
// every call: parse_mdl_file / read_openpsa_file, the kPrune probe
// Synthesiser::synthesise, the real Synthesiser::synthesise,
// compute_cut_sets, analyse_common_cause, analyse_reliability, render,
// and in warm mode ServiceRunner::execute and acquire_model. It runs
// serially (one top after another, no pool) so that span self times add
// up to the request time. `cold` builds everything per request, like one
// CLI process; `warm` keeps one ServiceRunner in daemon mode across the
// requests, like `ftsynth serve`. The benchmark compares the replay's
// rendered output with the product's output for the same request, and its
// request time with the product's serial time for the same request (cold:
// `ftsynth analyse --jobs 1`; warm: ServiceRunner::execute on a second,
// single-threaded daemon-mode runner that sees the same requests), so the
// spans time the same work the product did.
//
// Request line: {"id": N, "model": PATH, "tops": [..], "time_hours": T,
//                "replay": bool, "edit": bool}
//   empty `tops` derives the tops as the CLI does (the kPrune probe);
//   warm mode serves `replay` requests through ServiceRunner::execute
//   (the response memo) and names the acquire_model span of an `edit`
//   request mdl.parse (the content changed, so acquire_model parses).
//   Warm extras carry `product_ms`, the second runner's execute time.
// Answer line: {"id": N, "output": TEXT, "spans": [[name, start_us,
//   end_us, parent], ..], "counts": {..}, "extras": {..}}
//   span 0 is the request; parent is an index into the same list.

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/batch.h"
#include "analysis/cache.h"
#include "analysis/common_cause.h"
#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/probability.h"
#include "analysis/report.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "core/diagnostics.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "fta/synthesis.h"
#include "mdl/parser.h"
#include "mdl/writer.h"
#include "openpsa/mef_reader.h"
#include "service/json.h"
#include "service/runner.h"

namespace {

using namespace ftsynth;
using service::Json;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

/// In-memory span list of one request; span 0 is the request itself.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  Spans() { spans_.push_back({"request", now_us(), 0, -1}); }

  /// Times `fn` as a child of the request span.
  template <class Fn>
  auto time(const char* name, Fn&& fn) {
    const std::size_t index = spans_.size();
    spans_.push_back({name, now_us(), 0, 0});
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_[index].end = now_us();
    } else {
      auto result = fn();
      spans_[index].end = now_us();
      return result;
    }
  }

  void close() { spans_[0].end = now_us(); }

  Json to_json() const {
    Json out = Json::array();
    for (const Span& span : spans_) {
      Json row = Json::array();
      row.push_back(Json::string(span.name));
      row.push_back(Json::number(span.start));
      row.push_back(Json::number(span.end));
      row.push_back(Json::number(span.parent));
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// The analyse options `ftsynth analyse` uses with default flags.
AnalysisOptions default_analysis(double time_hours) {
  AnalysisOptions analysis;
  analysis.probability.mission_time_hours = time_hours;
  return analysis;
}

/// analyse_tree + render, one span per stage (report.cpp's analyse_tree).
std::string analyse_traced(const FaultTree& tree,
                           const AnalysisOptions& options, ConeCache* cones,
                           Spans& spans, Json& counts) {
  CutSetOptions cut_options = options.cut_sets;
  cut_options.cone_cache = cones;
  const bool want_diagram = options.prob_mode != ProbMode::kCutSets &&
                            cut_options.engine == CutSetEngine::kZbdd;
  cut_options.keep_diagram = want_diagram;
  cut_options.bound_mission_time_hours = options.probability.mission_time_hours;
  cut_options.bound_default_probability =
      options.probability.default_event_probability;
  TreeAnalysis analysis;
  analysis.top_event = tree.top_description();
  analysis.tree_stats = tree.stats();
  analysis.cut_sets = spans.time("analysis.cutsets", [&] {
    return compute_cut_sets(tree, cut_options);
  });
  analysis.common_cause = spans.time("analysis.common_cause", [&] {
    return analyse_common_cause(tree, analysis.cut_sets);
  });
  ReliabilitySummary reliability = spans.time("analysis.reliability", [&] {
    return analyse_reliability(
        tree, analysis.cut_sets, options.probability,
        want_diagram ? ProbMode::kDiagram : ProbMode::kCutSets);
  });
  analysis.importance = std::move(reliability.importance);
  analysis.p_rare_event = reliability.p_rare_event;
  analysis.p_esary_proschan = reliability.p_esary_proschan;
  analysis.p_mcub = reliability.p_mcub;
  analysis.p_exact = reliability.p_exact;
  analysis.diagram_native = reliability.diagram_native;
  analysis.cut_sets.diagram.reset();
  analysis.p_lower = analysis.cut_sets.p_lower;
  analysis.p_upper = analysis.cut_sets.p_upper;
  analysis.bound_converged = analysis.cut_sets.converged;
  analysis.frontier_stats = analysis.cut_sets.frontier_stats;
  std::string text = spans.time("analysis.render", [&] {
    return render(tree, analysis, options) + "\n";
  });
  const auto add = [&](const char* key, double value) {
    const Json* old = counts.find(key);
    counts.set(key, Json::number((old ? old->as_number() : 0.0) + value));
  };
  add("fta.tree_nodes", static_cast<double>(analysis.tree_stats.node_count));
  add("analysis.cut_sets",
      static_cast<double>(analysis.cut_sets.cut_sets.size()));
  add("analysis.output_bytes", static_cast<double>(text.size()));
  return text;
}

/// Imports an Open-PSA file and keeps the requested tops in request order.
std::vector<FaultTree> read_mef_tops(const std::string& path,
                                     const std::vector<std::string>& tops,
                                     DiagnosticSink& sink) {
  openpsa::MefModel mef = openpsa::read_openpsa_file(path, sink);
  std::vector<FaultTree> trees;
  if (tops.empty()) {
    for (openpsa::MefTop& top : mef.tops) trees.push_back(std::move(top.tree));
    return trees;
  }
  for (const std::string& name : tops) {
    for (openpsa::MefTop& top : mef.tops)
      if (top.name == name) trees.push_back(std::move(top.tree));
  }
  return trees;
}

bool is_xml(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".xml") == 0;
}

/// The tops `ftsynth analyse` derives when none are given (runner.cpp's
/// resolve_tops), one fta.probe span per candidate.
std::vector<Deviation> derive_tops(const Model& model, Spans& spans) {
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  DiagnosticSink probe_sink;
  prune.sink = &probe_sink;
  std::vector<Deviation> tops;
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all()) {
      const Deviation candidate{cls, port->name()};
      const bool derivable = spans.time("fta.probe", [&] {
        Synthesiser probe(model, prune);
        return probe.synthesise(candidate).top() != nullptr;
      });
      if (derivable) tops.push_back(candidate);
    }
  }
  return tops;
}

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::string> string_list(const Json* json) {
  std::vector<std::string> out;
  if (json == nullptr || !json->is_array()) return out;
  for (const Json& item : json->as_array()) out.push_back(item.as_string());
  return out;
}

/// One cold request: a fresh model, a request-local cone cache shared by
/// its tops (analyse_batch's share_cones), nothing kept afterwards. The
/// extras re-run the cut-set stage on the pool and the whole batch through
/// analyse_batch/analyse_trees, outside the request span.
Json cold_request(const Json& request, ThreadPool& pool) {
  const std::string path = request.find("model")->as_string();
  const std::vector<std::string> top_names = string_list(request.find("tops"));
  const AnalysisOptions options =
      default_analysis(request.find("time_hours")->as_number());
  Spans spans;
  Json counts = Json::object();
  DiagnosticSink sink;
  std::vector<FaultTree> trees;
  std::optional<Model> model;
  std::vector<Deviation> tops;
  if (is_xml(path)) {
    trees = spans.time("openpsa.read",
                       [&] { return read_mef_tops(path, top_names, sink); });
  } else {
    model.emplace(spans.time("mdl.parse",
                             [&] { return parse_mdl_file(path, sink); }));
    if (top_names.empty()) {
      tops = derive_tops(*model, spans);
    } else {
      for (const std::string& name : top_names)
        tops.push_back(parse_deviation(name, model->registry()));
    }
    SynthesisOptions synthesis;
    synthesis.sink = &sink;
    for (const Deviation& top : tops) {
      trees.push_back(spans.time("fta.synthesise", [&] {
        Synthesiser synthesiser(*model, synthesis);
        return synthesiser.synthesise(top);
      }));
    }
  }
  ConeCache cones(cone_keyspace(options.cut_sets));
  std::string output;
  for (const FaultTree& tree : trees)
    output += analyse_traced(tree, options, &cones, spans, counts);
  spans.close();
  const ConeCacheStats cone_stats = cones.stats();
  counts.set("cone_lookups",
             Json::number(static_cast<double>(cone_stats.lookups)));
  counts.set("cone_hits", Json::number(static_cast<double>(cone_stats.hits)));

  // Counts and parallel comparisons, untraced.
  double bdd_nodes = 0;
  for (const FaultTree& tree : trees) {
    BddEncoding encoding = encode_bdd(tree);
    bdd_nodes += static_cast<double>(encoding.bdd.node_count(encoding.root));
  }
  counts.set("bdd.nodes", Json::number(bdd_nodes));
  ConeCache pooled_cones(cone_keyspace(options.cut_sets));
  CutSetOptions pooled = options.cut_sets;
  pooled.pool = &pool;
  pooled.cone_cache = &pooled_cones;
  const auto cut_start = Clock::now();
  for (const FaultTree& tree : trees) compute_cut_sets(tree, pooled);
  const double pooled_cutsets_ms = elapsed_ms(cut_start);
  BatchOptions batch;
  batch.synthesis.sink = &sink;
  batch.analysis = options;
  const auto batch_start = Clock::now();
  if (model) {
    analyse_batch(*model, tops, batch, &pool);
  } else {
    std::vector<FaultTree> fresh = read_mef_tops(path, top_names, sink);
    analyse_trees(std::move(fresh), {}, batch, &pool);
  }
  Json extras = Json::object();
  extras.set("pooled_cutsets_ms", Json::number(pooled_cutsets_ms));
  extras.set("batch_wall_ms", Json::number(elapsed_ms(batch_start)));
  extras.set("jobs", Json::number(static_cast<double>(pool.size())));

  Json answer = Json::object();
  answer.set("id", *request.find("id"));
  answer.set("output", Json::string(std::move(output)));
  answer.set("spans", spans.to_json());
  answer.set("counts", std::move(counts));
  answer.set("extras", std::move(extras));
  return answer;
}

/// One warm request against the daemon-mode runner. Misses are replayed
/// stage by stage on the runner's warm state (model cache, resident cone
/// cache); afterwards ServiceRunner::execute runs the same request outside
/// the request span, which stores it in the response memo exactly as the
/// daemon would and times execute for a miss. `shadow` serves every
/// request through execute alone, serially, on the same request history:
/// its time is the product's own for the replayed work.
Json warm_request(const Json& request, service::ServiceRunner& runner,
                  service::ServiceRunner& shadow) {
  service::ServiceRequest req;
  req.command = "analyse";
  req.model_path = request.find("model")->as_string();
  req.tops = string_list(request.find("tops"));
  req.mission_time_hours = request.find("time_hours")->as_number();
  const AnalysisOptions options = default_analysis(req.mission_time_hours);
  ConeCache* cones = runner.warm_cone_cache(options.cut_sets, nullptr);
  const ConeCacheStats before = cones->stats();
  Spans spans;
  Json counts = Json::object();
  Json extras = Json::object();
  std::string output;
  const Json* replay = request.find("replay");
  if (replay != nullptr && replay->as_bool()) {
    const auto start = Clock::now();
    service::ServiceResult result =
        spans.time("service.execute", [&] { return runner.execute(req); });
    extras.set("execute_ms", Json::number(elapsed_ms(start)));
    output = result.output;
    spans.close();
  } else {
    DiagnosticSink sink;
    std::vector<FaultTree> trees;
    if (is_xml(req.model_path)) {
      trees = spans.time("openpsa.read", [&] {
        return read_mef_tops(req.model_path, req.tops, sink);
      });
    } else {
      const Json* edit = request.find("edit");
      const bool edited = edit != nullptr && edit->as_bool();
      std::shared_ptr<const Model> model =
          spans.time(edited ? "mdl.parse" : "service.acquire_model", [&] {
            return runner.acquire_model(req.model_path, req, true, &sink);
          });
      SynthesisOptions synthesis;
      synthesis.sink = &sink;
      for (const std::string& name : req.tops) {
        const Deviation top = parse_deviation(name, model->registry());
        trees.push_back(spans.time("fta.synthesise", [&] {
          Synthesiser synthesiser(*model, synthesis);
          return synthesiser.synthesise(top);
        }));
      }
    }
    for (const FaultTree& tree : trees)
      output += analyse_traced(tree, options, cones, spans, counts);
    spans.close();
    double bdd_nodes = 0;
    for (const FaultTree& tree : trees) {
      BddEncoding encoding = encode_bdd(tree);
      bdd_nodes += static_cast<double>(encoding.bdd.node_count(encoding.root));
    }
    counts.set("bdd.nodes", Json::number(bdd_nodes));
  }
  const ConeCacheStats after = cones->stats();
  const auto shadow_start = Clock::now();
  shadow.execute(req);
  extras.set("product_ms", Json::number(elapsed_ms(shadow_start)));
  counts.set("cone_lookups",
             Json::number(static_cast<double>(after.lookups - before.lookups)));
  counts.set("cone_hits",
             Json::number(static_cast<double>(after.hits - before.hits)));
  if (replay == nullptr || !replay->as_bool()) {
    // Memo fill: a miss, on the runner's warm model and cone caches.
    const auto start = Clock::now();
    service::ServiceResult result = runner.execute(req);
    extras.set("execute_ms", Json::number(elapsed_ms(start)));
    extras.set("execute_matches",
               Json::boolean(result.output == output && result.exit_code == 0));
  }
  // A memo hit touches no cone: lookups stay flat.
  extras.set("memo_hit",
             Json::boolean(replay != nullptr && replay->as_bool() &&
                           after.lookups == before.lookups));

  Json answer = Json::object();
  answer.set("id", *request.find("id"));
  answer.set("output", Json::string(std::move(output)));
  answer.set("spans", spans.to_json());
  answer.set("counts", std::move(counts));
  answer.set("extras", std::move(extras));
  return answer;
}

/// Cost of recording one span, for the tracing-overhead estimate.
double span_cost_us() {
  constexpr int kSpans = 200000;
  Spans spans;
  const double start = now_us();
  for (int i = 0; i < kSpans; ++i) spans.time("x", [] {});
  return (now_us() - start) / kSpans;
}

int trace(const std::string& mode) {
  const bool warm = mode == "warm";
  if (!warm && mode != "cold") {
    std::cerr << "trace mode must be cold or warm\n";
    return 2;
  }
  // Cold mode's pooled comparisons use `pool`; warm mode has none.
  std::optional<ThreadPool> pool;
  std::unique_ptr<service::ServiceRunner> runner;
  std::unique_ptr<service::ServiceRunner> shadow;
  if (warm) {
    // Single-threaded, like the benchmark's `ftsynth serve --jobs 1`.
    service::ServiceRunner::Options runner_options;
    runner_options.warm = true;
    runner_options.jobs = 1;
    runner = std::make_unique<service::ServiceRunner>(runner_options);
    shadow = std::make_unique<service::ServiceRunner>(runner_options);
  } else {
    pool.emplace(static_cast<int>(ThreadPool::hardware_threads()));
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    std::optional<Json> request = Json::parse(line);
    if (!request || request->find("id") == nullptr ||
        request->find("model") == nullptr ||
        request->find("time_hours") == nullptr) {
      std::cerr << "bad request line\n";
      return 2;
    }
    Json answer;
    try {
      answer = warm ? warm_request(*request, *runner, *shadow)
                    : cold_request(*request, *pool);
    } catch (const std::exception& error) {
      answer = Json::object();
      answer.set("id", *request->find("id"));
      answer.set("error", Json::string(error.what()));
    }
    std::cout << answer.dump() << "\n" << std::flush;
  }
  Json footer = Json::object();
  footer.set("span_cost_us", Json::number(span_cost_us()));
  std::cout << footer.dump() << "\n" << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "gen-bbw") {
      write_mdl_file(setta::build_bbw(), args[1]);
      return 0;
    }
    if (args.size() == 4 && args[0] == "gen-replicated") {
      synthetic::ReplicatedConfig config;
      config.channels = std::stoi(args[2]);
      config.stages = std::stoi(args[3]);
      write_mdl_file(synthetic::build_replicated(config), args[1]);
      return 0;
    }
    if (args.size() == 2 && args[0] == "trace") return trace(args[1]);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_probe gen-bbw OUT | gen-replicated OUT C S | "
               "trace cold|warm\n";
  return 2;
}
