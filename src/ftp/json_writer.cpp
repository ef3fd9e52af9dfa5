#include "ftp/json_writer.h"

#include <fstream>

#include "core/error.h"
#include "core/strings.h"

namespace ftsynth {

namespace {

std::string quote(std::string_view text) {
  return "\"" + escape_quoted(text) + "\"";
}

void write_nodes(const FaultTree& tree, std::string& out) {
  out += "  \"nodes\": [\n";
  bool first = true;
  tree.for_each_reachable([&](const FtNode& node) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(node.id()) +
           ", \"name\": " + quote(node.name().view()) +
           ", \"kind\": " + quote(to_string(node.kind()));
    if (node.kind() == NodeKind::kGate) {
      out += ", \"gate\": " + quote(to_string(node.gate())) +
             ", \"children\": [";
      for (std::size_t i = 0; i < node.children().size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(node.children()[i]->id());
      }
      out += "]";
    }
    if (node.rate() > 0.0) out += ", \"rate\": " + format_double(node.rate());
    if (node.has_fixed_probability())
      out += ", \"probability\": " + format_double(node.fixed_probability());
    if (!node.description().empty())
      out += ", \"description\": " + quote(node.description());
    out += "}";
  });
  out += "\n  ]";
}

}  // namespace

std::string write_json(const FaultTree& tree) {
  std::string out = "{\n";
  out += "  \"name\": " + quote(tree.name()) + ",\n";
  out += "  \"top_event\": " + quote(tree.top_description()) + ",\n";
  out += "  \"top\": " +
         (tree.top() != nullptr ? std::to_string(tree.top()->id())
                                : std::string("null")) +
         ",\n";
  write_nodes(tree, out);
  out += "\n}\n";
  return out;
}

std::string write_json(const FaultTree& tree, const TreeAnalysis& analysis) {
  std::string out = "{\n";
  out += "  \"name\": " + quote(tree.name()) + ",\n";
  out += "  \"top_event\": " + quote(tree.top_description()) + ",\n";
  out += "  \"top\": " +
         (tree.top() != nullptr ? std::to_string(tree.top()->id())
                                : std::string("null")) +
         ",\n";
  write_nodes(tree, out);
  out += ",\n  \"probability\": {\"rare_event\": " +
         format_double(analysis.p_rare_event) +
         ", \"esary_proschan\": " + format_double(analysis.p_esary_proschan) +
         ", \"mcub\": " + format_double(analysis.p_mcub) +
         ", \"exact\": " + format_double(analysis.p_exact);
  if (analysis.p_lower && analysis.p_upper) {
    // Bound-engine runs: the certified interval; "exact" above stays 0 on
    // this path (no whole-tree BDD is built). Exact-engine JSON is
    // unchanged -- these keys only appear for --engine bound.
    out += ", \"p_lower\": " + format_double(*analysis.p_lower) +
           ", \"p_upper\": " + format_double(*analysis.p_upper) +
           ", \"converged\": " +
           (analysis.bound_converged ? "true" : "false");
  }
  out += "},\n";

  out += "  \"cut_sets\": [\n";
  for (std::size_t i = 0; i < analysis.cut_sets.cut_sets.size(); ++i) {
    const CutSet cs = analysis.cut_sets.cut_sets[i];
    out += "    [";
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (j != 0) out += ", ";
      std::string name = std::string(cs[j].event->name().view());
      out += quote(cs[j].negated ? "!" + name : name);
    }
    out += "]";
    if (i + 1 != analysis.cut_sets.cut_sets.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"cut_sets_truncated\": " +
         std::string(analysis.cut_sets.truncated ? "true" : "false") + ",\n";

  out += "  \"importance\": [\n";
  for (std::size_t i = 0; i < analysis.importance.size(); ++i) {
    const ImportanceEntry& entry = analysis.importance[i];
    out += "    {\"event\": " + quote(entry.event->name().view()) +
           ", \"fussell_vesely\": " + format_double(entry.fussell_vesely) +
           ", \"birnbaum\": " + format_double(entry.birnbaum) + "}";
    if (i + 1 != analysis.importance.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string write_json(const std::vector<const FaultTree*>& trees,
                       const std::vector<const TreeAnalysis*>& analyses,
                       const std::vector<SequenceSummary>& sequences) {
  std::string out = "{\n\"trees\": [\n";
  for (std::size_t i = 0; i < trees.size(); ++i) {
    // Each element is the single-tree document verbatim (sans trailing
    // newline), so downstream consumers parse one schema either way.
    std::string doc = i < analyses.size() ? write_json(*trees[i], *analyses[i])
                                          : write_json(*trees[i]);
    if (!doc.empty() && doc.back() == '\n') doc.pop_back();
    out += doc;
    out += i + 1 != trees.size() ? ",\n" : "\n";
  }
  out += "],\n\"sequences\": [\n";
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const SequenceSummary& row = sequences[i];
    out += "  {\"name\": " + quote(row.name) +
           ", \"probability\": " + format_double(row.probability);
    if (row.p_lower && row.p_upper) {
      out += ", \"p_lower\": " + format_double(*row.p_lower) +
             ", \"p_upper\": " + format_double(*row.p_upper);
    }
    out += ", \"cut_sets\": " + std::to_string(row.cut_set_count) +
           ", \"min_order\": " + std::to_string(row.min_order) +
           ", \"truncated\": " + (row.truncated ? "true" : "false") + "}";
    if (i + 1 != sequences.size()) out += ",";
    out += "\n";
  }
  out += "]\n}\n";
  return out;
}

void write_json_file(const FaultTree& tree, const std::string& path) {
  std::ofstream file(path);
  require(file.good(), ErrorKind::kParse,
          "cannot open '" + path + "' for writing");
  file << write_json(tree);
  require(file.good(), ErrorKind::kParse, "failed writing '" + path + "'");
}

}  // namespace ftsynth
