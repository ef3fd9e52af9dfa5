// The ftsynth command-line driver (testable core).
//
// The paper's tool is an interactive pipeline (Simulink -> text file ->
// parser -> synthesis -> Fault Tree Plus). This CLI is the batch
// equivalent over the same text format:
//
//   ftsynth info       <model.mdl>                    model summary
//   ftsynth validate   <model.mdl>                    structural checks
//   ftsynth synthesise <model.mdl> --top <Class-port> [--format text|dot|
//                      xml|json|ftp] [--output FILE]  fault tree synthesis
//   ftsynth analyse    <model.mdl> --top <Class-port> [--time HOURS]
//                      [--tree] [--format text|xml|json]
//                                                      cut sets/reliability
//   ftsynth audit      <model.mdl>                    HAZOP completeness
//   ftsynth fmea       <model.mdl> [--time HOURS]     system-level FMEA
//   ftsynth sensitivity <model.mdl> [--top ...] [--time HOURS]
//                                                      rate sensitivity
//   ftsynth report     <model.mdl> [--top ...] [--time HOURS]
//                      [--output FILE]                 Markdown safety report
//   ftsynth diff       <model.mdl> --against FILE     structural model diff
//   ftsynth serve      --socket PATH                  analysis daemon
//   ftsynth call       <command> [model.mdl] --socket PATH
//                                                      one daemon request
//
// --top may repeat; `analyse` and `fmea` default to every derivable top
// event (boundary outputs x registered classes with a non-empty tree).
//
// The command logic itself lives in src/service/runner.h (shared with the
// `serve` daemon); this module is the argv front end. `serve` answers
// line-delimited JSON requests over a local socket with warm state --
// parsed models and memoised results -- kept across requests; nothing is
// persisted (docs/FORMATS.md documents the protocol).
//
// By default the driver runs resiliently: the parser recovers from syntax
// errors, synthesis degrades unresolvable propagations to marked
// undeveloped events, and every problem is collected as a structured
// diagnostic (rendered as a table on stderr at the end of the run).
// --strict restores fail-fast behaviour; --max-errors caps collection;
// --deadline-ms puts a wall-clock budget on synthesis and analysis.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ftsynth::cli {

/// Runs the driver. `args` excludes the program name. Returns the process
/// exit code:
///   0  clean run, no diagnostics
///   1  run completed but produced error diagnostics (including validation
///      errors and audit findings)
///   2  parse failure or bad usage       3  structurally invalid model
///   4  missing entity (lookup)          5  analysis failure
///   6  internal error
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace ftsynth::cli
