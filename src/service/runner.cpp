#include "service/runner.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/batch.h"
#include "analysis/completeness.h"
#include "analysis/fmea.h"
#include "analysis/markdown_report.h"
#include "analysis/report.h"
#include "analysis/sensitivity.h"
#include "core/error.h"
#include "core/parallel.h"
#include "core/strings.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "fta/synthesis.h"
#include "ftp/dot_writer.h"
#include "ftp/ftp_writer.h"
#include "ftp/json_writer.h"
#include "ftp/openpsa_writer.h"
#include "ftp/xml_writer.h"
#include "mdl/parser.h"
#include "model/diff.h"
#include "model/validate.h"
#include "openpsa/mef_reader.h"

namespace ftsynth::service {

namespace {

using openpsa::MefModel;
using openpsa::MefTop;

/// FNV-1a 64 over the model file bytes: the warm model-cache key. Content
/// addressing (not mtime) so an edit-and-undo round trip still hits and a
/// changed file can never serve stale state.
std::uint64_t content_hash(std::string_view content) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char byte : content) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::optional<std::string> read_file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Hard-failure exit code for an error category (see tools/cli.h).
int exit_code_for(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kParse:
      return 2;
    case ErrorKind::kModel:
      return 3;
    case ErrorKind::kLookup:
      return 4;
    case ErrorKind::kAnalysis:
      return 5;
    case ErrorKind::kInternal:
      break;
  }
  return 6;
}

/// True when `path` goes to the Open-PSA front-end: the extension is
/// .xml, or the file's leading non-whitespace byte is '<'. An unreadable
/// non-.xml path returns false so the mdl parser reports its canonical
/// "cannot read" error.
bool openpsa_model(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::string head;
  if (file.good()) {
    head.resize(256);
    file.read(head.data(), static_cast<std::streamsize>(head.size()));
    head.resize(static_cast<std::size_t>(file.gcount()));
  }
  return openpsa::looks_like_openpsa(path, head);
}

/// Per-request execution state threaded through the command handlers.
/// `budget` is the run's single armed budget: every stage copies it, so
/// all of them share one deadline latch (and the daemon's
/// disconnect/shutdown force_expire reaches every worker).
struct Exec {
  const ServiceRequest& request;
  ServiceRunner& runner;
  DiagnosticSink& sink;
  std::ostream& out;
  std::ostream& err;
  ThreadPool* pool = nullptr;
  Budget budget;
  /// Event-tree rows of an analyse/report run (ServiceResult::sequences).
  std::vector<SequenceSummary> sequences;
};

/// One request's model as the command set sees it, whichever front-end
/// read it. `mdl` or `mef` is set, never both: only the parts that
/// describe the source model -- info, validate, audit, diff and the
/// report's model summary -- look at them; every other command works on
/// the tops the tree source yields.
struct LoadedModel {
  std::string name;
  std::shared_ptr<const Model> mdl;
  std::optional<MefModel> mef;
  /// The selected .mdl tops (--top, else every derivable one); the tree
  /// source synthesises them. Open-PSA tops are already trees in `mef`.
  std::vector<Deviation> deviations;
  /// Per selected top, in tree-source order: an event-tree sequence?
  std::vector<bool> sequence;

  std::size_t top_count() const { return sequence.size(); }
};

/// Sends `text` to the request's --output file or to the result output.
int emit(const std::string& text, Exec& exec) {
  if (exec.request.output.empty()) {
    exec.out << text;
    return 0;
  }
  std::ofstream file(exec.request.output);
  if (!file.good()) {
    exec.err << "error: cannot write '" << exec.request.output << "'\n";
    return 2;
  }
  file << text;
  return 0;
}

/// Exit for a command that found nothing to work on: diagnostics explain
/// it when present, otherwise the front-end's no-tops usage error.
int no_tops(const LoadedModel& loaded, Exec& exec,
            const char* mdl_message =
                "no top events (give --top or annotate the model)") {
  if (exec.sink.has_errors())
    return exit_code_for(exec.sink.first_error_kind());
  exec.err << "error: "
           << (loaded.mdl ? mdl_message
                          : "no importable top events in this model")
           << "\n";
  return 2;
}

// --verbose printers. Everything goes to the log so `output` stays
// byte-identical across order/jobs variants (the acceptance bar).

void report_reorder_stats(Exec& exec, const std::string& top,
                          const std::optional<ReorderReport>& reorder) {
  if (!exec.request.verbose || !reorder) return;
  exec.err << "variable order [" << top << "]: policy " << reorder->policy
           << ", passes " << reorder->passes << ", swaps " << reorder->swaps
           << ", nodes " << reorder->nodes_before << " -> "
           << reorder->nodes_after << " (root " << reorder->root_nodes
           << ")\n";
  if (!reorder->final_order.empty()) {
    exec.err << "  final order: ";
    for (std::size_t i = 0; i < reorder->final_order.size(); ++i) {
      if (i != 0) exec.err << ", ";
      exec.err << reorder->final_order[i];
    }
    exec.err << "\n";
  }
}

/// The per-top block of an analysed item: variable order, bound-engine
/// frontier counters, and whether probabilities came off the diagram.
void report_analysis_stats(Exec& exec, const std::string& top,
                           const TreeAnalysis& analysis) {
  report_reorder_stats(exec, top, analysis.cut_sets.reorder);
  if (!exec.request.verbose) return;
  if (const std::optional<FrontierStats>& frontier = analysis.frontier_stats) {
    exec.err << "bound frontier [" << top << "]: rounds " << frontier->rounds
             << ", expansions " << frontier->expansions << ", emitted "
             << frontier->emitted << ", peak frontier "
             << frontier->peak_frontier << ", subsumed " << frontier->subsumed
             << ", deferred " << frontier->deferred << "\n";
  }
  if (analysis.diagram_native) {
    exec.err << "probability [" << top
             << "]: diagram-native (exact despite truncated extraction)\n";
  }
}

/// Replays one batch item's diagnostics and error into the shared sink in
/// the order a serial loop would have produced them. Returns false when
/// the item failed (strict mode rethrows instead; non-Error exceptions
/// always propagate, as they would from a serial loop body).
bool replay_item(BatchItem& item, Exec& exec) {
  for (const Diagnostic& diagnostic : item.diagnostics)
    exec.sink.report(diagnostic);
  if (!item.error) return true;
  if (exec.request.strict) std::rethrow_exception(item.error);
  try {
    std::rethrow_exception(item.error);
  } catch (const Error& error) {
    exec.sink.error_from(error, item.display_name());
  }
  return false;
}

/// The request's analysis knobs: the one mapping from request fields to
/// AnalysisOptions that every analysing command shares.
AnalysisOptions analysis_options(const Exec& exec) {
  AnalysisOptions analysis;
  analysis.probability.mission_time_hours = exec.request.mission_time_hours;
  analysis.probability.budget = exec.budget;
  analysis.render_tree = exec.request.render_tree;
  analysis.cut_sets.engine = exec.request.engine;
  analysis.cut_sets.bound_epsilon = exec.request.bound_epsilon;
  analysis.cut_sets.order = exec.request.order;
  analysis.cut_sets.budget = exec.budget;
  return analysis;
}

/// Synthesis options for a command run: resource budget always, degraded
/// mode (diagnostics instead of aborts) unless --strict.
SynthesisOptions synthesis_options(Exec& exec) {
  SynthesisOptions synthesis;
  synthesis.budget = exec.budget;
  if (!exec.request.strict) synthesis.sink = &exec.sink;
  return synthesis;
}

std::vector<Deviation> resolve_tops(const Model& model, Exec& exec) {
  std::vector<Deviation> tops;
  if (!exec.request.tops.empty()) {
    for (const std::string& top : exec.request.tops)
      tops.push_back(parse_deviation(top, model.registry()));
    return tops;
  }
  // Default: every derivable top event (prune undeveloped roots so only
  // genuinely explained deviations appear). The probe synthesises every
  // (output port x class) candidate, so it parallelises like the real run;
  // the candidate list and its order are independent of the pool.
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  prune.budget = exec.budget;
  // The probe only decides which candidates are worth synthesising; its
  // degraded-mode diagnostics would duplicate the real run's, so they go
  // to a throwaway sink (thread-safe: probe workers share it).
  DiagnosticSink probe_sink;
  if (!exec.request.strict) prune.sink = &probe_sink;
  std::vector<Deviation> candidates;
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all())
      candidates.push_back(Deviation{cls, port->name()});
  }
  std::vector<char> derivable(candidates.size(), 0);
  parallel_for(exec.pool, candidates.size(), [&](std::size_t i) {
    Synthesiser probe(model, prune);
    derivable[i] = probe.synthesise(candidates[i]).top() != nullptr ? 1 : 0;
  });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (derivable[i] != 0) tops.push_back(candidates[i]);
  }
  return tops;
}

/// Imports an Open-PSA document (strict: throw on the first semantic
/// problem; default: recover through the sink) and applies the --top
/// selection. An unknown --top name is a lookup error, like the mdl path.
MefModel import_openpsa(Exec& exec) {
  MefModel mef =
      exec.request.strict
          ? openpsa::read_openpsa_file(exec.request.model_path)
          : openpsa::read_openpsa_file(exec.request.model_path, exec.sink);
  if (exec.request.tops.empty()) return mef;
  std::vector<MefTop> selected;
  for (const std::string& name : exec.request.tops) {
    auto it = std::find_if(
        mef.tops.begin(), mef.tops.end(),
        [&](const MefTop& top) { return top.name == name; });
    require(it != mef.tops.end(), ErrorKind::kLookup,
            "no top event '" + name +
                "' in this model (Open-PSA tops are named "
                "\"fault-tree\", \"fault-tree.gate\" or "
                "\"event-tree/sequence\")");
    selected.push_back(std::move(*it));
    // Leave a non-matching shell behind so a repeated --top NAME fails
    // the lookup above instead of analysing a moved-from tree.
    it->name.clear();
  }
  mef.tops = std::move(selected);
  return mef;
}

/// The one loader: sniffs the front-end, reads the model and selects its
/// tops. .mdl tops are resolved only for commands that work on trees
/// (`wants_tops`): deriving them synthesises every candidate once.
LoadedModel load_model(Exec& exec, bool openpsa, bool wants_tops) {
  LoadedModel loaded;
  if (openpsa) {
    loaded.mef = import_openpsa(exec);
    loaded.name = loaded.mef->name;
    for (const MefTop& top : loaded.mef->tops)
      loaded.sequence.push_back(top.kind == MefTop::Kind::kSequence);
    return loaded;
  }
  // `validate` parses without the implicit validation so it can report
  // the issues itself instead of dying on the first one; the recovering
  // parser (default) reports syntax AND validation problems to the sink
  // and returns the best-effort model.
  const ServiceRequest& request = exec.request;
  loaded.mdl = exec.runner.acquire_model(
      request.model_path, request,
      /*implicit_validation=*/request.command != "validate",
      request.strict ? nullptr : &exec.sink);
  loaded.name = loaded.mdl->name();
  if (wants_tops) {
    loaded.deviations = resolve_tops(*loaded.mdl, exec);
    loaded.sequence.assign(loaded.deviations.size(), false);
  }
  return loaded;
}

/// The tree source: the selected tops as labelled trees in selection
/// order, analysed too when options.analyse is set. .mdl tops are
/// synthesised inside the same per-top batch task that analyses them, so
/// each item's synthesis diagnostics and analysis error replay together,
/// exactly as a serial loop would report them; Open-PSA tops move in as
/// imported (their diagnostics were reported at import).
BatchResult run_tops(LoadedModel& loaded, Exec& exec, BatchOptions options) {
  if (loaded.mdl) {
    options.synthesis = synthesis_options(exec);
    return analyse_batch(*loaded.mdl, loaded.deviations, options, exec.pool);
  }
  std::vector<FaultTree> trees;
  std::vector<std::string> labels;
  for (MefTop& top : loaded.mef->tops) {
    labels.push_back(top.name);
    trees.push_back(std::move(top.tree));
  }
  return analyse_trees(std::move(trees), labels, options, exec.pool);
}

// ---- Source-model descriptions: the only per-front-end rendering. ----

std::string mdl_info(const Model& model) {
  std::string text = "model: " + model.name() + "\n";
  text += "blocks: " + std::to_string(model.block_count()) + "\n";
  std::size_t annotated = 0;
  std::size_t malfunctions = 0;
  model.for_each_block([&](const Block& block) {
    if (!block.annotation().rows().empty()) ++annotated;
    malfunctions += block.annotation().malfunctions().size();
  });
  text += "annotated blocks: " + std::to_string(annotated) + "\n";
  text += "malfunctions: " + std::to_string(malfunctions) + "\n";
  text += "boundary inputs:";
  for (const Port* port : model.root().inputs())
    text += " " + port->name().str();
  text += "\nboundary outputs:";
  for (const Port* port : model.root().outputs())
    text += " " + port->name().str();
  text += "\nhierarchy:\n";
  model.for_each_block([&](const Block& block) {
    std::size_t depth = 0;
    for (const Block* b = &block; b->parent() != nullptr; b = b->parent())
      ++depth;
    text += std::string(depth * 2, ' ') + block.name().str() + " [" +
            std::string(to_string(block.kind())) + "]\n";
  });
  return text;
}

std::string mef_info(const MefModel& mef) {
  std::string text = "model: " + mef.name + "\n";
  text += "fault trees: " + std::to_string(mef.fault_tree_count) + "\n";
  text += "event trees: " + std::to_string(mef.event_tree_count) + "\n";
  text += "gates: " + std::to_string(mef.gate_count) + "\n";
  text += "basic events: " + std::to_string(mef.basic_event_count) + "\n";
  text += "house events: " + std::to_string(mef.house_event_count) + "\n";
  text += "sequences: " + std::to_string(mef.sequence_count) + "\n";
  text += "top events:\n";
  for (const MefTop& top : mef.tops) {
    text += "  " + top.name + " [" +
            (top.kind == MefTop::Kind::kSequence ? "sequence" : "fault-tree") +
            "]\n";
  }
  return text;
}

/// The .mdl validate report: the structural issues, then a count line.
/// The recovering parser already forwarded the issues to the sink; in
/// --strict mode they are forwarded here so the exit-code logic is
/// uniform.
std::string mdl_validate(const Model& model, Exec& exec) {
  std::vector<Issue> issues = validate(model);
  std::string text;
  int errors = 0;
  for (const Issue& issue : issues) {
    text += issue.to_string() + "\n";
    if (issue.severity == Severity::kError) ++errors;
  }
  text += std::to_string(errors) + " error(s), " +
          std::to_string(issues.size() - static_cast<std::size_t>(errors)) +
          " warning(s)\n";
  if (exec.request.strict) {
    for (const Issue& issue : issues) {
      exec.sink.report({issue.severity, ErrorKind::kModel, {}, issue.block_path,
                        issue.message});
    }
  }
  return text;
}

/// The Open-PSA validate summary. The import itself is the validation
/// pass: semantic problems are already in the sink (rendered into the
/// log; they drive the exit code).
std::string mef_validate(const MefModel& mef, const Exec& exec) {
  std::string text = "model: " + mef.name + "\n";
  text += "top events: " + std::to_string(mef.tops.size()) + "\n";
  text += std::to_string(exec.sink.error_count()) + " error(s), " +
          std::to_string(exec.sink.warning_count()) + " warning(s)\n";
  return text;
}

/// The Open-PSA report: a model summary from the import counters, one
/// section per analysed top, then the sequence table. Caps match
/// MarkdownReportOptions' defaults, so the two reports read alike.
std::string mef_report(const MefModel& mef,
                       const std::vector<const BatchItem*>& items,
                       const std::vector<SequenceSummary>& rows) {
  const MarkdownReportOptions caps;
  std::string text = "# Safety analysis report: " + mef.name + "\n\n";
  text += "## Model summary\n\n";
  text += "| item | count |\n|---|---|\n";
  text += "| fault trees | " + std::to_string(mef.fault_tree_count) + " |\n";
  text += "| event trees | " + std::to_string(mef.event_tree_count) + " |\n";
  text += "| gates | " + std::to_string(mef.gate_count) + " |\n";
  text += "| basic events | " + std::to_string(mef.basic_event_count) + " |\n";
  text +=
      "| house events | " + std::to_string(mef.house_event_count) + " |\n";
  text += "| sequences | " + std::to_string(mef.sequence_count) + " |\n\n";
  for (const BatchItem* item : items) {
    const TreeAnalysis& analysis = *item->analysis;
    text += "## Top event: " + item->display_name() + "\n\n";
    if (!item->tree->top_description().empty())
      text += item->tree->top_description() + "\n\n";
    if (analysis.p_lower && analysis.p_upper) {
      text += "Probability bound: [" + format_double(*analysis.p_lower) +
              ", " + format_double(*analysis.p_upper) + "]" +
              (analysis.bound_converged ? "" : " (not converged)") + "\n\n";
    } else {
      text += "| measure | value |\n|---|---|\n";
      text += "| exact (BDD) | " + format_double(analysis.p_exact) + " |\n";
      text += "| rare event | " + format_double(analysis.p_rare_event) + " |\n";
      text += "| Esary-Proschan | " +
              format_double(analysis.p_esary_proschan) + " |\n";
      text += "| MCUB | " + format_double(analysis.p_mcub) + " |\n\n";
    }
    const std::vector<CutSet>& cut_sets = analysis.cut_sets.cut_sets;
    text += "Minimal cut sets: " + std::to_string(cut_sets.size()) +
            (analysis.cut_sets.truncated ? " (truncated)" : "") + "\n\n";
    const std::size_t shown = std::min(cut_sets.size(), caps.max_cut_sets);
    for (std::size_t i = 0; i < shown; ++i) {
      text += "- {";
      for (std::size_t j = 0; j < cut_sets[i].size(); ++j) {
        if (j != 0) text += ", ";
        if (cut_sets[i][j].negated) text += "!";
        text += std::string(cut_sets[i][j].event->name().view());
      }
      text += "}\n";
    }
    if (shown < cut_sets.size()) {
      text += "- ... " + std::to_string(cut_sets.size() - shown) + " more\n";
    }
    if (shown != 0) text += "\n";
    if (!analysis.importance.empty()) {
      text += "| event | Fussell-Vesely | Birnbaum |\n|---|---|---|\n";
      const std::size_t importance_shown =
          std::min(analysis.importance.size(), caps.max_importance_rows);
      for (std::size_t i = 0; i < importance_shown; ++i) {
        const ImportanceEntry& entry = analysis.importance[i];
        text += "| " + std::string(entry.event->name().view()) + " | " +
                format_double(entry.fussell_vesely) + " | " +
                format_double(entry.birnbaum) + " |\n";
      }
      text += "\n";
    }
  }
  return text + render_sequence_markdown(rows);
}

// ---- The command set: one handler per command, both front-ends. ----

int cmd_info(LoadedModel& loaded, Exec& exec) {
  return emit(loaded.mdl ? mdl_info(*loaded.mdl) : mef_info(*loaded.mef),
              exec);
}

int cmd_validate(LoadedModel& loaded, Exec& exec) {
  return emit(loaded.mdl ? mdl_validate(*loaded.mdl, exec)
                         : mef_validate(*loaded.mef, exec),
              exec);
}

int cmd_synthesise(LoadedModel& loaded, Exec& exec) {
  if (loaded.top_count() == 0) return no_tops(loaded, exec);
  BatchOptions batch_options;
  batch_options.analyse = false;
  BatchResult batch = run_tops(loaded, exec, batch_options);
  std::vector<const FaultTree*> trees;
  for (BatchItem& item : batch.items) {
    if (replay_item(item, exec)) trees.push_back(&*item.tree);
  }
  if (trees.empty()) return no_tops(loaded, exec);
  std::string text;
  const std::string& format = exec.request.format;
  if (format == "text") {
    for (const FaultTree* tree : trees) text += tree->to_text() + "\n";
  } else if (format == "dot") {
    for (const FaultTree* tree : trees) text += write_dot(*tree);
  } else if (format == "xml") {
    text = write_xml(trees);
  } else if (format == "json") {
    for (const FaultTree* tree : trees) text += write_json(*tree);
  } else if (format == "ftp") {
    text = write_ftp_project(loaded.name, trees);
  } else if (format == "openpsa") {
    text = write_openpsa(trees);
  } else {
    exec.err << "error: unknown --format '" << format << "'\n";
    return 2;
  }
  return emit(text, exec);
}

int cmd_analyse(LoadedModel& loaded, Exec& exec) {
  if (loaded.top_count() == 0) return no_tops(loaded, exec);
  const std::string& format = exec.request.format;
  if (format != "text" && format != "xml" && format != "json") {
    exec.err << "error: unknown --format '" << format
             << "' (analyse supports text|xml|json)\n";
    return 2;
  }
  BatchOptions batch_options;
  batch_options.analysis = analysis_options(exec);
  BatchResult batch = run_tops(loaded, exec, batch_options);
  std::string text;
  std::vector<const FaultTree*> trees;
  std::vector<const TreeAnalysis*> analyses;
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    BatchItem& item = batch.items[i];
    if (!replay_item(item, exec)) continue;
    report_analysis_stats(exec, item.display_name(), *item.analysis);
    if (!exec.request.strict && item.analysis->cut_sets.deadline_exceeded) {
      exec.sink.warning(ErrorKind::kAnalysis,
                        "cut-set analysis stopped at the deadline; "
                        "results are partial",
                        {}, item.display_name());
    }
    if (format == "text")
      text += render(*item.tree, *item.analysis, batch_options.analysis) + "\n";
    trees.push_back(&*item.tree);
    analyses.push_back(&*item.analysis);
    if (loaded.sequence[i])
      exec.sequences.push_back(
          summarise_sequence(item.display_name(), *item.analysis));
  }
  if (trees.empty()) return no_tops(loaded, exec);
  if (format == "text") {
    text += render_sequence_table(exec.sequences);
  } else if (format == "xml") {
    text = write_xml(trees, analyses, exec.sequences);
  } else {
    text = write_json(trees, analyses, exec.sequences);
  }
  return emit(text, exec);
}

int cmd_report(LoadedModel& loaded, Exec& exec) {
  if (loaded.top_count() == 0) return no_tops(loaded, exec);
  MarkdownReportOptions report_options;
  report_options.analysis = analysis_options(exec);
  BatchOptions batch_options;
  batch_options.analysis = report_options.analysis;
  BatchResult batch = run_tops(loaded, exec, batch_options);
  std::vector<const BatchItem*> items;
  std::vector<const FaultTree*> trees;
  std::vector<const TreeAnalysis*> analyses;
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    BatchItem& item = batch.items[i];
    if (!replay_item(item, exec)) continue;
    items.push_back(&item);
    trees.push_back(&*item.tree);
    analyses.push_back(&*item.analysis);
    if (loaded.sequence[i])
      exec.sequences.push_back(
          summarise_sequence(item.display_name(), *item.analysis));
  }
  if (items.empty()) return no_tops(loaded, exec);
  return emit(loaded.mdl ? markdown_report(*loaded.mdl, trees, analyses,
                                           report_options)
                         : mef_report(*loaded.mef, items, exec.sequences),
              exec);
}

int cmd_sensitivity(LoadedModel& loaded, Exec& exec) {
  if (loaded.top_count() == 0) return no_tops(loaded, exec);
  BatchOptions batch_options;
  batch_options.analyse = false;
  BatchResult batch = run_tops(loaded, exec, batch_options);
  SensitivityOptions sensitivity;
  sensitivity.probability.mission_time_hours = exec.request.mission_time_hours;
  std::string text;
  for (BatchItem& item : batch.items) {
    if (!replay_item(item, exec)) continue;
    const std::string& description = item.tree->top_description();
    text += "=== " + (description.empty() ? item.display_name() : description) +
            " ===\n";
    try {
      text += render_sensitivity(rate_sensitivity(*item.tree, sensitivity));
    } catch (const Error& error) {
      if (exec.request.strict) throw;
      exec.sink.error_from(error, item.display_name());
    }
  }
  if (text.empty()) return no_tops(loaded, exec);
  return emit(text, exec);
}

int cmd_fmea(LoadedModel& loaded, Exec& exec) {
  constexpr const char* kNoTops = "no derivable top events in this model";
  if (loaded.top_count() == 0) return no_tops(loaded, exec, kNoTops);
  const AnalysisOptions analysis = analysis_options(exec);
  CutSetOptions cut_set_options = analysis.cut_sets;
  // FMEA calls compute_cut_sets directly (no analyse_tree to copy the
  // probability inputs over), so hand the bound engine its inputs here.
  cut_set_options.bound_mission_time_hours = exec.request.mission_time_hours;
  cut_set_options.bound_default_probability =
      analysis.probability.default_event_probability;
  // Diagram-native FMEA columns need the ZBDD engine's retained diagram.
  cut_set_options.keep_diagram = exec.request.engine == CutSetEngine::kZbdd;
  BatchOptions batch_options;
  batch_options.analyse = false;
  BatchResult batch = run_tops(loaded, exec, batch_options);
  std::vector<const BatchItem*> items;
  std::vector<const FaultTree*> trees;
  for (BatchItem& item : batch.items) {
    if (!replay_item(item, exec)) continue;
    items.push_back(&item);
    trees.push_back(&*item.tree);
  }
  if (trees.empty()) return no_tops(loaded, exec, kNoTops);
  std::vector<CutSetAnalysis> cut_sets =
      parallel_map(exec.pool, trees.size(), [&](std::size_t i) {
        return compute_cut_sets(*trees[i], cut_set_options);
      });
  for (std::size_t i = 0; i < trees.size(); ++i) {
    report_reorder_stats(exec,
                         loaded.mdl ? trees[i]->top_description()
                                    : items[i]->display_name(),
                         cut_sets[i].reorder);
  }
  std::vector<const CutSetAnalysis*> analyses;
  for (const CutSetAnalysis& analysis : cut_sets) analyses.push_back(&analysis);
  return emit(
      render_fmea(synthesise_fmea(trees, analyses, analysis.probability)),
      exec);
}

int cmd_audit(LoadedModel& loaded, Exec& exec) {
  std::vector<CompletenessFinding> findings = audit_completeness(*loaded.mdl);
  std::string text;
  for (const CompletenessFinding& finding : findings)
    text += finding.to_string() + "\n";
  text += std::to_string(findings.size()) + " finding(s)\n";
  int rc = emit(text, exec);
  return rc != 0 ? rc : (findings.empty() ? 0 : 1);
}

/// Structural + annotation diff against a second model revision
/// (`against_path`). Both revisions parse under the request's error
/// discipline; the diff itself is cheap -- this is the daemon's
/// editor-loop primitive ("what changed since my last analyse?").
int cmd_diff(LoadedModel& loaded, Exec& exec) {
  if (exec.request.against_path.empty()) {
    exec.err << "error: diff needs --against FILE (the revised model)\n";
    return 2;
  }
  std::shared_ptr<const Model> after = exec.runner.acquire_model(
      exec.request.against_path, exec.request,
      /*implicit_validation=*/true, exec.request.strict ? nullptr : &exec.sink);
  return emit(diff_models(*loaded.mdl, *after).to_string(), exec);
}

struct Command {
  const char* name;
  int (*run)(LoadedModel&, Exec&);
  /// Works on the tree source (.mdl tops must be resolved).
  bool trees = false;
  /// Needs the block structure only an .mdl architecture model has.
  bool mdl_only = false;
};

// `load` is the daemon's warm-up verb: the loader already pinned the
// parsed model; the info summary doubles as confirmation.
constexpr Command kCommands[] = {
    {"info", cmd_info},
    {"load", cmd_info},
    {"validate", cmd_validate},
    {"synthesise", cmd_synthesise, true},
    {"synthesize", cmd_synthesise, true},
    {"analyse", cmd_analyse, true},
    {"analyze", cmd_analyse, true},
    {"report", cmd_report, true},
    {"fmea", cmd_fmea, true},
    {"sensitivity", cmd_sensitivity, true},
    {"audit", cmd_audit, false, true},
    {"diff", cmd_diff, false, true},
};

const Command* find_command(const std::string& name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

ServiceRunner::ServiceRunner(Options options) : options_(std::move(options)) {
  if (options_.warm) {
    const int jobs = options_.jobs == 0
                         ? static_cast<int>(ThreadPool::hardware_threads())
                         : options_.jobs;
    if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
  }
  if (options_.max_models == 0) options_.max_models = 1;
}

ServiceRunner::~ServiceRunner() = default;

ThreadPool* ServiceRunner::pool() const noexcept { return pool_.get(); }

std::shared_ptr<const Model> ServiceRunner::acquire_model(
    const std::string& path, const ServiceRequest& request,
    bool implicit_validation, DiagnosticSink* sink) {
  const auto parse_fresh = [&](DiagnosticSink* parse_sink) {
    if (request.strict || parse_sink == nullptr)
      return std::make_shared<const Model>(
          parse_mdl_file(path, implicit_validation));
    return std::make_shared<const Model>(parse_mdl_file(path, *parse_sink));
  };

  if (!options_.warm) return parse_fresh(sink);

  // Warm mode: key by file content + parse flavour. An unreadable file
  // falls through to the parser for its canonical error.
  const std::optional<std::string> content = read_file_bytes(path);
  if (!content) return parse_fresh(sink);
  std::ostringstream key_stream;
  key_stream << path << '|' << content->size() << '|'
             << content_hash(*content) << '|' << (request.strict ? 's' : 'r')
             << (implicit_validation ? 'v' : 'n') << '|' << request.max_errors;
  const std::string key = key_stream.str();

  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    if (auto it = models_.find(key); it != models_.end()) {
      // Replay the stored parse diagnostics so a warm hit reports exactly
      // what a cold parse would have (they also drive the exit code).
      if (sink != nullptr) {
        for (const Diagnostic& diagnostic : it->second.diagnostics)
          sink->report(diagnostic);
      }
      model_lru_.remove(key);
      model_lru_.push_front(key);
      return it->second.model;
    }
  }

  // Parse outside the lock (it can be slow); the parse diagnostics are
  // captured in a private sink so they can be stored for later replay.
  ModelEntry entry;
  if (request.strict) {
    entry.model = parse_fresh(nullptr);  // throws on the first error
  } else {
    DiagnosticSink parse_sink(request.max_errors);
    entry.model = parse_fresh(&parse_sink);
    entry.diagnostics = parse_sink.diagnostics();
    if (sink != nullptr) {
      for (const Diagnostic& diagnostic : entry.diagnostics)
        sink->report(diagnostic);
    }
  }

  std::lock_guard<std::mutex> lock(models_mutex_);
  auto [it, inserted] = models_.emplace(key, entry);
  if (inserted) {
    model_lru_.push_front(key);
    while (models_.size() > options_.max_models) {
      models_.erase(model_lru_.back());
      model_lru_.pop_back();
    }
  }
  return entry.model;
}

std::optional<std::string> ServiceRunner::response_key(
    const ServiceRequest& request) const {
  if (!options_.warm || options_.max_results == 0) return std::nullopt;
  // --output writes a file per run: replaying a stored result would skip
  // the side effect. --verbose asks for the statistics of a run, so it
  // always makes one. `load` exists to pin the parsed model, which a
  // replay would skip.
  if (!request.output.empty() || request.verbose) return std::nullopt;
  if (request.command == "load") return std::nullopt;
  const std::optional<std::string> content = read_file_bytes(request.model_path);
  if (!content) return std::nullopt;
  std::ostringstream key;
  key.precision(17);
  key << request.command << '\x1f' << request.model_path << '\x1f'
      << content->size() << ':' << content_hash(*content) << '\x1f';
  if (!request.against_path.empty()) {
    const std::optional<std::string> against =
        read_file_bytes(request.against_path);
    if (!against) return std::nullopt;
    key << request.against_path << '\x1f' << against->size() << ':'
        << content_hash(*against);
  }
  key << '\x1f';
  for (const std::string& top : request.tops) key << top << '\x1e';
  key << '\x1f' << request.format << '\x1f' << request.mission_time_hours
      << '\x1f' << request.render_tree << request.strict
      << '\x1f' << request.max_errors << '\x1f' << request.max_depth << '\x1f'
      << request.max_nodes << '\x1f' << static_cast<int>(request.engine)
      << '\x1f' << request.bound_epsilon << '\x1f'
      << static_cast<int>(request.order);
  return key.str();
}

std::string ServiceRunner::stats_text() const {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    out << "models resident: " << models_.size() << "\n";
  }
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    out << "results memoised: " << results_.size() << "\n";
  }
  return out.str();
}

ServiceResult ServiceRunner::execute(const ServiceRequest& request) {
  // Response memo, warm mode only. A request whose deadline already fired
  // (shed late, or force_expired on disconnect) must take the degraded
  // partial-results path, never be satisfied from the memo.
  std::optional<std::string> memo_key;
  if (!request.budget || !request.budget->expired())
    memo_key = response_key(request);
  if (memo_key) {
    std::lock_guard<std::mutex> lock(results_mutex_);
    if (auto it = results_.find(*memo_key); it != results_.end()) {
      result_lru_.remove(*memo_key);
      result_lru_.push_front(*memo_key);
      return it->second;
    }
  }

  ServiceResult result;
  std::ostringstream out;
  std::ostringstream err;
  DiagnosticSink sink(request.max_errors);
  Exec exec{request, *this, sink, out, err, nullptr, Budget{}, {}};
  int rc = 0;
  bool failed = false;
  bool deadline_fired = false;
  try {
    // One budget, armed once: every stage and worker copies it, so they
    // all share a single deadline latch. The daemon pre-arms it at
    // admission (queue wait counts, and disconnect can force_expire it);
    // the CLI arms it here, after the un-budgeted parse, exactly as
    // before the refactor.
    if (request.budget) {
      exec.budget = *request.budget;
    } else if (request.deadline_ms > 0) {
      exec.budget.set_deadline_ms(request.deadline_ms);
    }
    if (request.max_depth != 0) exec.budget.max_depth = request.max_depth;
    if (request.max_nodes != 0) exec.budget.max_nodes = request.max_nodes;

    // Cold mode sizes a pool per request (the CLI's --jobs); warm mode
    // shares the runner's pool across requests (output is byte-identical
    // for every worker count, so the daemon ignores the request's jobs).
    std::optional<ThreadPool> owned_pool;
    if (options_.warm) {
      exec.pool = pool_.get();
    } else {
      const int jobs = request.jobs == 0
                           ? static_cast<int>(ThreadPool::hardware_threads())
                           : request.jobs;
      if (jobs > 1) owned_pool.emplace(jobs);
      exec.pool = owned_pool ? &*owned_pool : nullptr;
    }

    // Open-PSA models are re-imported per request rather than held in the
    // model cache: importing is cheap next to analysis, and the response
    // memo already gives warm replays. An Open-PSA request for an unknown
    // or .mdl-only command fails before the import; an .mdl one after the
    // parse, whose diagnostics then accompany the error.
    const Command* command = find_command(request.command);
    const bool openpsa = openpsa_model(request.model_path);
    if (openpsa && command != nullptr && command->mdl_only) {
      err << "error: '" << request.command
          << "' needs a .mdl architecture model (an Open-PSA document has "
             "no block structure)\n";
      rc = 2;
    } else if (openpsa && command == nullptr) {
      err << "error: unknown command '" << request.command << "'\n";
      rc = 2;
    } else {
      LoadedModel loaded =
          load_model(exec, openpsa, command != nullptr && command->trees);
      if (command != nullptr) {
        rc = command->run(loaded, exec);
      } else {
        err << "error: unknown command '" << request.command << "'\n";
        rc = 2;
      }
    }
    deadline_fired = exec.budget.expired();
  } catch (const Error& error) {
    err << "error: " << error.what() << "\n";
    rc = exit_code_for(error.kind());
    failed = true;
  } catch (const std::exception& error) {
    // Request isolation: a non-Error exception (bad_alloc, a library bug)
    // must degrade into this one request's result, never escape into the
    // daemon. The CLI maps it to the internal-error exit code.
    err << "error: internal: " << error.what() << "\n";
    rc = exit_code_for(ErrorKind::kInternal);
    failed = true;
  }
  if (!sink.empty()) err << sink.render_table();
  result.exit_code = rc != 0 ? rc : (sink.has_errors() ? 1 : 0);
  result.output = out.str();
  result.log = err.str();
  if (failed) return result;
  result.sequences = std::move(exec.sequences);
  // Clean-run-only stores: a result whose deadline fired may be partial
  // (wall-clock nondeterminism), so only complete runs are replayable --
  // and a complete run satisfies any deadline.
  if (memo_key && !deadline_fired) {
    std::lock_guard<std::mutex> lock(results_mutex_);
    auto [it, inserted] = results_.emplace(*memo_key, result);
    if (inserted) {
      result_lru_.push_front(*memo_key);
      while (results_.size() > options_.max_results) {
        results_.erase(result_lru_.back());
        result_lru_.pop_back();
      }
    }
  }
  return result;
}

}  // namespace ftsynth::service
