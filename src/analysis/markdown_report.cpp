#include "analysis/markdown_report.h"

#include <algorithm>

#include "analysis/completeness.h"
#include "analysis/fmea.h"
#include "core/strings.h"

namespace ftsynth {

namespace {

std::string md_escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '|') out += "\\|";
    else out += c;
  }
  return out;
}

void heading(std::string& out, int level, std::string_view text) {
  out += "\n" + std::string(static_cast<std::size_t>(level), '#') + " " +
         std::string(text) + "\n\n";
}

std::string md_row(const std::vector<std::string>& cells) {
  std::string out = "|";
  for (const std::string& cell : cells) out += " " + md_escape(cell) + " |";
  return out + "\n";
}

std::string md_header(const std::vector<std::string>& cells) {
  std::string out = md_row(cells) + "|";
  for (std::size_t i = 0; i < cells.size(); ++i) out += "---|";
  return out + "\n";
}

void render_inventory(const Model& model, std::string& out) {
  heading(out, 2, "Model inventory");
  out += "- model: `" + model.name() + "` (" +
         std::to_string(model.block_count()) + " blocks)\n";
  std::size_t annotated = 0;
  std::size_t malfunctions = 0;
  std::size_t subsystems = 0;
  model.for_each_block([&](const Block& block) {
    if (!block.annotation().rows().empty()) ++annotated;
    malfunctions += block.annotation().malfunctions().size();
    if (block.is_subsystem() && !block.is_root()) ++subsystems;
  });
  out += "- subsystems: " + std::to_string(subsystems) +
         ", annotated components: " + std::to_string(annotated) +
         ", quantified malfunctions: " + std::to_string(malfunctions) + "\n";
  out += "- boundary inputs:";
  for (const Port* port : model.root().inputs())
    out += " `" + port->name().str() + "`";
  out += "\n- boundary outputs:";
  for (const Port* port : model.root().outputs())
    out += " `" + port->name().str() + "`";
  out += "\n";
}

void render_annotations(const Model& model, std::string& out) {
  heading(out, 2, "Component hazard analyses");
  model.for_each_block([&](const Block& block) {
    if (block.annotation().rows().empty()) return;
    heading(out, 3, "`" + block.path() + "`" +
                        (block.description().empty()
                             ? ""
                             : " — " + block.description()));
    out += md_header({"Output failure mode", "Causes", "Condition"});
    for (const AnnotationRow& row : block.annotation().rows()) {
      out += md_row({row.output.to_string(), row.cause->to_string(),
                     row.condition_probability < 1.0
                         ? "p=" + format_double(row.condition_probability)
                         : ""});
    }
    if (!block.annotation().malfunctions().empty()) {
      out += "\n";
      out += md_header({"Malfunction", "lambda (f/h)", "Description"});
      for (const Malfunction& m : block.annotation().malfunctions()) {
        out += md_row({m.name.str(),
                       m.rate > 0.0 ? format_double(m.rate) : "-",
                       m.description});
      }
    }
  });
}

void render_top_event(const TreeAnalysis& analysis,
                      const MarkdownReportOptions& options,
                      std::string& out) {
  heading(out, 2, "Top event: " + analysis.top_event);
  const FaultTreeStats& stats = analysis.tree_stats;
  out += "- tree: " + std::to_string(stats.node_count) + " nodes, " +
         std::to_string(stats.basic_event_count) + " basic events, depth " +
         std::to_string(stats.depth) + "\n";
  if (analysis.p_lower && analysis.p_upper) {
    // Bound-engine run: the certified interval stands in for the exact
    // number (see render() in report.cpp for the rationale).
    out += "- P(top): certified [" + format_double(*analysis.p_lower) +
           ", " + format_double(*analysis.p_upper) + "], width " +
           format_double(*analysis.p_upper - *analysis.p_lower) +
           (analysis.bound_converged ? ", converged" : ", open frontier") +
           " (t = " +
           format_double(options.analysis.probability.mission_time_hours) +
           " h)\n";
  } else {
    out += "- P(top): rare-event " + format_double(analysis.p_rare_event) +
           ", Esary-Proschan " + format_double(analysis.p_esary_proschan) +
           ", MCUB " + format_double(analysis.p_mcub) +
           ", exact " + format_double(analysis.p_exact) + " (t = " +
           format_double(options.analysis.probability.mission_time_hours) +
           " h)\n";
  }
  out += "- minimal cut sets: " +
         std::to_string(analysis.cut_sets.cut_sets.size()) +
         (analysis.cut_sets.truncated ? " (truncated)" : "") +
         ", smallest order " +
         std::to_string(analysis.cut_sets.min_order()) + "\n";
  out += "- single points of failure: " +
         std::to_string(analysis.common_cause.single_points_of_failure.size()) +
         "\n\n";

  std::size_t shown = analysis.cut_sets.cut_sets.size();
  if (options.max_cut_sets != 0)
    shown = std::min(shown, options.max_cut_sets);
  out += md_header({"#", "Minimal cut set", "Order"});
  for (std::size_t i = 0; i < shown; ++i) {
    const CutSet cs = analysis.cut_sets.cut_sets[i];
    std::string cells;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (j != 0) cells += ", ";
      if (cs[j].negated) cells += "NOT ";
      cells += "`" + cs[j].event->name().str() + "`";
    }
    out += md_row({std::to_string(i + 1), cells, std::to_string(cs.size())});
  }
  if (shown < analysis.cut_sets.cut_sets.size()) {
    out += "\n_... and " +
           std::to_string(analysis.cut_sets.cut_sets.size() - shown) +
           " more_\n";
  }

  std::size_t rows = analysis.importance.size();
  if (options.max_importance_rows != 0)
    rows = std::min(rows, options.max_importance_rows);
  if (rows > 0) {
    out += "\n";
    out += md_header({"Basic event", "FV", "Birnbaum", "RAW", "RRW"});
    for (std::size_t i = 0; i < rows; ++i) {
      const ImportanceEntry& entry = analysis.importance[i];
      out += md_row({"`" + entry.event->name().str() + "`",
                     format_double(entry.fussell_vesely),
                     format_double(entry.birnbaum), format_double(entry.raw),
                     format_double(entry.rrw)});
    }
  }
}

}  // namespace

std::string markdown_report(const Model& model,
                            const std::vector<const FaultTree*>& trees,
                            const std::vector<const TreeAnalysis*>& analyses,
                            const MarkdownReportOptions& options) {
  std::string out = "# Safety analysis report: `" + model.name() + "`\n";
  out += "\n_Mechanically synthesised fault trees (ftsynth); mission time " +
         format_double(options.analysis.probability.mission_time_hours) +
         " h._\n";

  render_inventory(model, out);
  if (options.include_annotations) render_annotations(model, out);
  for (const TreeAnalysis* analysis : analyses)
    render_top_event(*analysis, options, out);

  if (trees.size() > 1) {
    heading(out, 2, "Dependencies between top events");
    out += "Shared basic events couple nominally independent hazards:\n\n";
    out += md_header({"pair", "shared events"});
    for (std::size_t i = 0; i < trees.size(); ++i) {
      for (std::size_t j = i + 1; j < trees.size(); ++j) {
        std::vector<Symbol> shared = shared_between(*trees[i], *trees[j]);
        if (shared.empty()) continue;
        out += md_row({trees[i]->top_description() + " / " +
                           trees[j]->top_description(),
                       std::to_string(shared.size())});
      }
    }
  }

  if (options.include_fmea && !trees.empty()) {
    heading(out, 2, "System-level FMEA");
    std::vector<const CutSetAnalysis*> cut_sets;
    for (const TreeAnalysis* analysis : analyses)
      cut_sets.push_back(&analysis->cut_sets);
    std::vector<FmeaRow> fmea =
        synthesise_fmea(trees, cut_sets, options.analysis.probability);
    out += md_header({"Component", "Failure mode", "lambda", "Effect",
                      "Direct", "Min order"});
    for (const FmeaRow& row : fmea) {
      for (const FmeaEffect& effect : row.effects) {
        out += md_row({row.origin, "`" + row.event->name().str() + "`",
                       row.rate > 0.0 ? format_double(row.rate) : "-",
                       effect.top_event, effect.direct ? "**yes**" : "no",
                       std::to_string(effect.smallest_order)});
      }
    }
  }

  if (options.include_audit) {
    heading(out, 2, "HAZOP completeness findings");
    std::vector<CompletenessFinding> findings = audit_completeness(model);
    if (findings.empty()) {
      out += "No findings: every propagated deviation is examined.\n";
    } else {
      out += md_header({"Kind", "Block", "Detail"});
      for (const CompletenessFinding& finding : findings) {
        out += md_row({std::string(to_string(finding.kind)),
                       finding.block_path, finding.detail});
      }
    }
  }
  return out;
}

}  // namespace ftsynth
