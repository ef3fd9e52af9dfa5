// Open-PSA Model Exchange Format importer.
//
// Reads the MEF subset documented in docs/FORMATS.md section 6:
// `define-fault-tree` / `define-gate` with and, or, not, xor, nand, nor
// and atleast (vote) connectives, `define-basic-event` probabilities
// (constant <float> or <exponential> rate), `define-house-event`
// constants, and `define-event-tree` accident sequences. Every importable
// top event -- each fault tree's root gate(s) and each event-tree
// sequence -- becomes one SELF-CONTAINED FaultTree: shared definitions
// are rebuilt per top into that top's arena, and each top is analysed on
// its own.
//
// Connectives beyond AND/OR/NOT/PAND have no GateKind, so they are
// desugared at import: nand -> NOT AND, nor -> NOT OR, xor folded
// pairwise into OR(AND(a, NOT b), AND(NOT a, b)), atleast(k of n) into
// the O(n*k) shared take/skip expansion. House events fold into the
// formulas as constants (a MEF house event carries an explicit boolean).
// The engines normalise trees internally, so NOT over composite gates is
// fine.
//
// Error discipline (mirrors mdl/parser.h): XML well-formedness violations
// always throw ParseError. Semantic problems -- undefined references,
// probabilities outside [0,1], cyclic gate definitions, unsupported
// constructs -- throw from the sink-less overloads, but with a
// DiagnosticSink they are reported and recovered from (undeveloped
// placeholder leaves, clamped probabilities), so one pass surfaces every
// problem and still yields the healthy parts.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/diagnostics.h"
#include "fta/fault_tree.h"

namespace ftsynth::openpsa {

/// One importable top event of a MEF document.
struct MefTop {
  enum class Kind {
    kFaultTree,  ///< a root gate of a define-fault-tree
    kSequence,   ///< one define-event-tree accident sequence
  };
  Kind kind = Kind::kFaultTree;
  /// "fault-tree" (single root), "fault-tree.gate" (several roots) or
  /// "event-tree/sequence".
  std::string name;
  FaultTree tree;

  MefTop(Kind k, std::string n, FaultTree t)
      : kind(k), name(std::move(n)), tree(std::move(t)) {}
};

/// A parsed MEF document: its name and its top events, fault-tree roots
/// first (definition order), then event-tree sequences (walk order).
struct MefModel {
  std::string name;
  std::vector<MefTop> tops;

  /// Counters for `info` output.
  std::size_t fault_tree_count = 0;
  std::size_t event_tree_count = 0;
  std::size_t gate_count = 0;
  std::size_t basic_event_count = 0;
  std::size_t house_event_count = 0;
  std::size_t sequence_count = 0;
};

/// Parses MEF XML text. Throws ParseError on malformed XML and Error on
/// the first semantic problem.
MefModel read_openpsa(std::string_view text);

/// Error-recovering parse: malformed XML still throws ParseError (there
/// is no meaningful partial DOM), but semantic problems are reported to
/// `sink` and repaired -- undefined references become `und:` undeveloped
/// leaves, out-of-range probabilities are clamped, cyclic definitions are
/// cut with a diagnostic -- so the healthy tops still come back.
MefModel read_openpsa(std::string_view text, DiagnosticSink& sink);

/// File variants; throw ErrorKind::kParse when `path` is unreadable.
MefModel read_openpsa_file(const std::string& path);
MefModel read_openpsa_file(const std::string& path, DiagnosticSink& sink);

/// Format sniffing for CLI/service dispatch: true when the path or the
/// leading content bytes say "XML" (extension .xml, or the first
/// non-whitespace byte is '<').
bool looks_like_openpsa(std::string_view path, std::string_view content);

}  // namespace ftsynth::openpsa
