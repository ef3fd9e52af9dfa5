// Library-first execution of ftsynth commands.
//
// The CLI used to own the whole pipeline -- argv parsing, model loading,
// command dispatch and rendering -- writing straight to stdout/stderr.
// That shape throws away, the moment the process exits, the parsed models
// and finished results a safety engineer's edit-analyse loop wants to
// keep. This module is the testable core both front ends share:
//
//   * `ServiceRequest` is one command in structured form (the CLI builds
//     it from argv, the daemon from a wire JSON line);
//   * `ServiceResult` is the full observable outcome: exit code, the
//     exact bytes a serial CLI run would have written to stdout, and the
//     log/diagnostic bytes it would have written to stderr;
//   * `ServiceRunner` executes requests. In cold mode (the CLI) each
//     request parses and analyses from scratch -- byte-for-byte the
//     pre-refactor behaviour. In warm mode (the daemon) the runner keeps
//     parsed models and finished results resident across requests, and
//     `execute` may be called from many threads at once.
//
// Both model front-ends feed one command set. `execute` loads the model
// through one loader, which sniffs an annotated .mdl architecture model
// or an Open-PSA MEF document, into one loaded-model shape: the model
// name, the selected tops as labelled fault trees (synthesised from the
// .mdl model, imported from the MEF document) with an event-tree sequence
// bit each, and the front-end's own description. Each command is one
// handler over that shape, so analyse, report, fmea, sensitivity and
// synthesise behave the same whichever front-end read the model; only
// info, validate and the report's model summary describe the source
// model, and audit/diff need the .mdl block structure.
//
// The warm state is two layers, each correctness-neutral by construction.
// Model entries are keyed by content hash (an edited file re-parses), and
// replayed parse diagnostics reproduce the cold diagnostic stream. The
// response memo replays a full ServiceResult for a repeated request whose
// model bytes and output-affecting fields are unchanged: the key is
// content-addressed, only runs whose deadline never fired are stored, and
// requests with filesystem side effects bypass it. Analysis itself keeps
// nothing between requests, so a warm `output` is byte-identical to a
// cold one, which the service tests enforce across every command x engine
// x order policy. An edit invalidates the memo the same way it invalidates
// the model cache: the content hash changes, the stale entry simply stops
// being looked up.

#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cache.h"
#include "analysis/cutsets.h"
#include "analysis/event_tree.h"
#include "core/budget.h"
#include "core/diagnostics.h"

namespace ftsynth {
class Model;
class ThreadPool;
}  // namespace ftsynth

namespace ftsynth::service {

/// One command in structured form. Field semantics (and defaults) match
/// the CLI flags documented in tools/cli.h; docs/FORMATS.md maps the wire
/// protocol's JSON fields onto these.
struct ServiceRequest {
  std::string command;       ///< info|validate|synthesise|analyse|audit|
                             ///< fmea|sensitivity|report|diff|load
  std::string model_path;    ///< the .mdl file, or an Open-PSA .xml model
  std::string against_path;  ///< diff only: the revised model
  std::vector<std::string> tops;
  /// synthesise: text|dot|xml|json|ftp|openpsa; analyse: text|xml|json.
  std::string format = "text";
  std::string output;           ///< CLI --output FILE; empty = in-result
  double mission_time_hours = 1.0;
  bool render_tree = false;
  bool strict = false;
  std::size_t max_errors = DiagnosticSink::kDefaultMaxErrors;
  long deadline_ms = 0;        ///< 0 = no deadline (CLI); daemon requires >0
  std::size_t max_depth = 0;   ///< 0 = Budget default
  std::size_t max_nodes = 0;   ///< 0 = unlimited
  int jobs = 0;                ///< cold mode only; warm mode uses the
                               ///< runner's shared pool (output identical)
  CutSetEngine engine = CutSetEngine::kMicsup;
  /// Bound engine only (CLI --bound-epsilon, wire "bound_epsilon"):
  /// interval-width convergence target; negative disables early stopping.
  /// Part of the response-memo key -- different targets emit different
  /// families.
  double bound_epsilon = 1e-6;
  OrderPolicy order = OrderPolicy::kStatic;
  bool verbose = false;
  /// Daemon: a budget armed at admission (so queue wait counts against
  /// the client's deadline) whose latch the connection can force_expire
  /// on disconnect. When set it wins over deadline_ms/max_*.
  std::optional<Budget> budget;
};

/// The full observable outcome of one request.
struct ServiceResult {
  int exit_code = 0;   ///< the CLI exit code contract (tools/cli.h)
  std::string output;  ///< exactly the serial CLI's stdout bytes
  std::string log;     ///< exactly the serial CLI's stderr bytes
  /// Event-tree sequence rows from an Open-PSA analyse/report run, in
  /// walk order; empty otherwise. Carried through the response memo and
  /// surfaced as the wire `sequences` field (docs/FORMATS.md section 5).
  std::vector<SequenceSummary> sequences;
};

/// Executes ServiceRequests; owns the warm state in warm mode.
class ServiceRunner {
 public:
  struct Options {
    /// Worker threads for warm mode's shared pool (0 = hardware).
    int jobs = 0;
    /// Keep parsed models and results resident across requests and allow
    /// concurrent execute() calls (the daemon). False = the
    /// process-per-run CLI semantics.
    bool warm = false;
    /// Warm-mode resident model cap (LRU past it).
    std::size_t max_models = 32;
    /// Warm-mode response-memo cap (LRU past it). 0 disables the memo
    /// (every request recomputes; the model cache still applies).
    std::size_t max_results = 256;
  };

  ServiceRunner() : ServiceRunner(Options{}) {}
  explicit ServiceRunner(Options options);
  ~ServiceRunner();

  ServiceRunner(const ServiceRunner&) = delete;
  ServiceRunner& operator=(const ServiceRunner&) = delete;

  /// Runs one request to completion. Never throws: failures of any kind
  /// (unreadable model, engine error, budget blow-up, internal bug)
  /// degrade into the result's exit code and log -- one bad request must
  /// never take the runner down or poison the warm state. Thread-safe in
  /// warm mode.
  ServiceResult execute(const ServiceRequest& request);

  /// Warm-state summary (resident models and memoised results), for the
  /// wire `stats` command and --verbose serve logs.
  std::string stats_text() const;

  const Options& options() const noexcept { return options_; }

  /// The shared warm-mode pool (null in cold mode).
  ThreadPool* pool() const noexcept;

  /// The model at `path` under this request's parse discipline. Cold mode
  /// parses fresh; warm mode serves the resident entry keyed by file
  /// content + parse flavour (replaying its stored parse diagnostics into
  /// `sink`, so a hit reports exactly what a cold parse would have).
  /// Throws ftsynth::Error exactly as parse_mdl_file does.
  std::shared_ptr<const Model> acquire_model(const std::string& path,
                                             const ServiceRequest& request,
                                             bool implicit_validation,
                                             DiagnosticSink* sink);

  /// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
  ConeCache* warm_cone_cache(const CutSetOptions&, DiagnosticSink*) {
    return &inert_cones_;
  }

 private:
  struct ModelEntry {
    std::shared_ptr<const Model> model;
    /// The parse-time diagnostic stream, replayed verbatim into each
    /// request's sink so a warm hit reports exactly what a cold parse
    /// would have.
    std::vector<Diagnostic> diagnostics;
  };

  Options options_;
  std::unique_ptr<ThreadPool> pool_;  ///< warm mode only

  mutable std::mutex models_mutex_;
  std::unordered_map<std::string, ModelEntry> models_;
  std::list<std::string> model_lru_;  ///< front = most recent

  ConeCache inert_cones_;  ///< what warm_cone_cache() returns

  /// Response memo (warm mode): content hash of the model bytes (and the
  /// --against bytes for diff) plus every output-affecting request field
  /// maps to the full stored result. deadline_ms/budget/jobs/id are
  /// deliberately NOT in the key -- output is byte-identical across them
  /// (test-enforced) and a complete result satisfies any deadline.
  /// Returns nullopt when the request must not be memoised: cold mode,
  /// --output side effects, --verbose (it asks for the statistics of a
  /// run), or an unreadable model file.
  std::optional<std::string> response_key(const ServiceRequest& request) const;

  mutable std::mutex results_mutex_;
  std::unordered_map<std::string, ServiceResult> results_;
  std::list<std::string> result_lru_;  ///< front = most recent
};

}  // namespace ftsynth::service
