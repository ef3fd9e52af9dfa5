#include "ftp/xml_writer.h"

#include <fstream>

#include "core/error.h"
#include "core/strings.h"

namespace ftsynth {

namespace {

std::string leaf_kind(const FtNode& node) {
  switch (node.kind()) {
    case NodeKind::kBasic:
      return "basic";
    case NodeKind::kHouse:
      return "house";
    case NodeKind::kUndeveloped:
      return "undeveloped";
    case NodeKind::kLoop:
      return "loop";
    case NodeKind::kGate:
      break;
  }
  throw Error(ErrorKind::kInternal, "leaf_kind on a gate");
}

void write_tree_body(const FaultTree& tree, std::string& out) {
  out += "  <fault-tree name=\"" + escape_xml(tree.name()) + "\">\n";
  out += "    <top description=\"" + escape_xml(tree.top_description()) +
         "\"";
  if (tree.top() == nullptr) {
    out += " empty=\"true\"/>\n  </fault-tree>\n";
    return;
  }
  out += " ref=\"" + escape_xml(std::string(tree.top()->name().view())) +
         "\"/>\n";
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.is_leaf()) {
      out += "    <define-event name=\"" +
             escape_xml(std::string(node.name().view())) + "\" kind=\"" +
             leaf_kind(node) + "\"";
      if (node.rate() > 0.0)
        out += " rate=\"" + format_double(node.rate()) + "\"";
      if (node.has_fixed_probability()) {
        out += " probability=\"" + format_double(node.fixed_probability()) +
               "\"";
      }
      if (!node.description().empty())
        out += " description=\"" + escape_xml(node.description()) + "\"";
      out += "/>\n";
      return;
    }
    out += "    <define-gate name=\"" +
           escape_xml(std::string(node.name().view())) + "\" type=\"" +
           to_lower(to_string(node.gate())) + "\"";
    if (!node.description().empty())
      out += " description=\"" + escape_xml(node.description()) + "\"";
    out += ">\n";
    for (const FtNode* child : node.children()) {
      const char* tag = child->is_leaf() ? "event" : "gate";
      out += std::string("      <") + tag + " ref=\"" +
             escape_xml(std::string(child->name().view())) + "\"/>\n";
    }
    out += "    </define-gate>\n";
  });
  out += "  </fault-tree>\n";
}

void write_analysis_body(const TreeAnalysis& analysis, std::string& out) {
  out += "  <analysis top-event=\"" + escape_xml(analysis.top_event) +
         "\">\n";
  if (analysis.p_lower && analysis.p_upper) {
    // Bound-engine run: the certified interval is the probability result.
    out += "    <probability p-lower=\"" +
           format_double(*analysis.p_lower) + "\" p-upper=\"" +
           format_double(*analysis.p_upper) + "\" converged=\"" +
           (analysis.bound_converged ? "true" : "false") + "\"/>\n";
  } else {
    out += "    <probability rare-event=\"" +
           format_double(analysis.p_rare_event) + "\" esary-proschan=\"" +
           format_double(analysis.p_esary_proschan) + "\" mcub=\"" +
           format_double(analysis.p_mcub) + "\" exact=\"" +
           format_double(analysis.p_exact) + "\"/>\n";
  }
  out += "    <cut-sets count=\"" +
         std::to_string(analysis.cut_sets.cut_sets.size()) +
         "\" truncated=\"" +
         (analysis.cut_sets.truncated ? "true" : "false") + "\">\n";
  for (const CutSet cs : analysis.cut_sets.cut_sets) {
    out += "      <cut-set order=\"" + std::to_string(cs.size()) + "\">\n";
    for (const CutLiteral& literal : cs) {
      out += "        <literal ref=\"" +
             escape_xml(std::string(literal.event->name().view())) + "\"";
      if (literal.negated) out += " negated=\"true\"";
      out += "/>\n";
    }
    out += "      </cut-set>\n";
  }
  out += "    </cut-sets>\n";
  out += "  </analysis>\n";
}

}  // namespace

std::string write_xml(const std::vector<const FaultTree*>& trees) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += "<fault-tree-set generator=\"ftsynth\">\n";
  for (const FaultTree* tree : trees) write_tree_body(*tree, out);
  out += "</fault-tree-set>\n";
  return out;
}

std::string write_xml(const FaultTree& tree) {
  return write_xml(std::vector<const FaultTree*>{&tree});
}

std::string write_xml(const FaultTree& tree, const TreeAnalysis& analysis) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += "<fault-tree-set generator=\"ftsynth\">\n";
  write_tree_body(tree, out);
  write_analysis_body(analysis, out);
  out += "</fault-tree-set>\n";
  return out;
}

std::string write_xml(const std::vector<const FaultTree*>& trees,
                      const std::vector<const TreeAnalysis*>& analyses,
                      const std::vector<SequenceSummary>& sequences) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += "<fault-tree-set generator=\"ftsynth\">\n";
  for (std::size_t i = 0; i < trees.size(); ++i) {
    write_tree_body(*trees[i], out);
    if (i < analyses.size()) write_analysis_body(*analyses[i], out);
  }
  if (!sequences.empty()) {
    out += "  <sequences>\n";
    for (const SequenceSummary& row : sequences) {
      out += "    <sequence name=\"" + escape_xml(row.name) + "\"";
      if (row.p_lower && row.p_upper) {
        out += " p-lower=\"" + format_double(*row.p_lower) + "\" p-upper=\"" +
               format_double(*row.p_upper) + "\"";
      } else {
        out += " probability=\"" + format_double(row.probability) + "\"";
      }
      out += " cut-sets=\"" + std::to_string(row.cut_set_count) +
             "\" min-order=\"" + std::to_string(row.min_order) +
             "\" truncated=\"" + (row.truncated ? "true" : "false") +
             "\"/>\n";
    }
    out += "  </sequences>\n";
  }
  out += "</fault-tree-set>\n";
  return out;
}

void write_xml_file(const FaultTree& tree, const std::string& path) {
  std::ofstream file(path);
  require(file.good(), ErrorKind::kParse,
          "cannot open '" + path + "' for writing");
  file << write_xml(tree);
  require(file.good(), ErrorKind::kParse, "failed writing '" + path + "'");
}

}  // namespace ftsynth
