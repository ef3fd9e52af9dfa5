// Thin front end: argv -> ServiceRequest -> ServiceRunner (one cold run),
// plus the two daemon verbs `serve` (run the analysis server on a local
// socket) and `call` (send one request to it). All command logic lives in
// src/service/runner.cpp, shared byte-for-byte between this CLI and the
// daemon.

#include "tools/cli.h"

#include <fstream>
#include <optional>
#include <type_traits>

#include "core/diagnostics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/runner.h"
#include "service/server.h"

namespace ftsynth::cli {

namespace {

constexpr const char* kUsage = R"(usage: ftsynth <command> <model> [options]

The model is a .mdl architecture file, or an Open-PSA MEF XML document
(sniffed by the .xml extension or a leading '<'): fault-tree roots and
event-tree sequences become the top events, and analyse appends a
per-sequence probability table. audit/diff need a .mdl model.

commands:
  info         print model summary (blocks, hierarchy, annotations)
  validate     run structural validation; exit 1 on errors
  synthesise   synthesise fault trees      (--top, --format, --output)
  analyse      cut sets + reliability      (--top, --time, --tree)
  audit        HAZOP completeness audit; exit 1 on findings
  fmea         system-level FMEA           (--time)
  sensitivity  failure-rate sensitivity    (--top, --time)
  report       full Markdown safety report (--top, --time, --output)
  diff         structural diff vs a revised model (--against FILE)
  load         parse the model and print the info summary (daemon: pins
               the parsed model in the warm model cache)
  serve        run the analysis daemon on --socket PATH (line-delimited
               JSON; see docs/FORMATS.md for the wire protocol)
  call         send one request to a running daemon (--socket PATH)

options:
  --top CLASS-PORT   top event, e.g. Omission-brake_force_fl (repeatable;
                     analyse/fmea default to every derivable top event)
  --against FILE     diff: the revised model to compare against
  --format FMT       synthesise output: text (default), dot, xml, json,
                     ftp, openpsa (Open-PSA MEF XML; re-importable);
                     analyse output: text (default), xml or json
  --output FILE      write to FILE instead of stdout
  --time HOURS       mission time for probabilities (default 1)
  --tree             include the rendered tree in analyse output
  --strict           fail fast on the first error (disables recovery)
  --max-errors N     stop collecting after N recovered errors (default 100)
  --deadline-ms N    wall-clock budget for synthesis and analysis
                     (mandatory on daemon requests; `call` defaults to
                     60000 when unset)
  --max-depth N      budget: synthesis recursion-depth cap
  --max-nodes N      budget: fault-tree node cap (0 = unlimited)
  --jobs N           worker threads for synthesise/analyse/fmea: top
                     events run in parallel, each tree on one thread
                     (default: hardware concurrency; 1 = serial; output
                     is byte-identical for every N)
  --engine ENG       cut-set engine for analyse/fmea/report: micsup
                     (default), mocus, zbdd (symbolic; fastest on large
                     trees), or bound (anytime best-first: emits the most
                     probable cut sets first and certifies a [lower, upper]
                     interval on P(top); the only engine that returns a
                     sound probability statement on trees beyond exact
                     reach). The exact engines emit identical cut sets;
                     bound matches them when it runs to exhaustion.
  --bound-epsilon E  bound engine: stop once the interval width is <= E
                     (default 1e-6). Negative E disables early stopping:
                     run to exhaustion or budget expiry. With --max-nodes N
                     the bound engine caps total frontier expansions at N.
  --order POL        variable-order policy for the zbdd engine: static
                     (default; the fixed DFS-occurrence heuristic) or sift
                     (Rudell sifting on unique-table pressure). Both emit
                     identical output; sift keeps the diagram small on
                     adversarially shaped models.
  --verbose          print run statistics (final variable order, reorder
                     effort, bound-engine frontier counters) to stderr

daemon options:
  --socket PATH          serve/call: AF_UNIX socket path
  --json                 call: print the raw JSON response envelope
  --executors N          serve: concurrent request executors (default 2)
  --queue N              serve: admission queue bound; requests beyond it
                         are shed with `overloaded` (default 16)
  --max-deadline-ms N    serve: clamp every client deadline to N

exit codes:
  0  clean run                       1  completed, but with diagnostics
  2  parse failure / bad usage       3  structurally invalid model
  4  missing entity (lookup)         5  analysis failure
  6  internal error
)";

struct Options {
  service::ServiceRequest request;
  // serve/call:
  std::string socket_path;
  bool json_output = false;
  int executors = 2;
  std::size_t queue_limit = 16;
  long max_deadline_ms = 0;
};

bool is_control_verb(const std::string& command) {
  return command == "ping" || command == "stats" || command == "shutdown";
}

/// Parses argv; returns nullopt (after printing the message) on bad usage.
std::optional<Options> parse_args(const std::vector<std::string>& args,
                                  std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return std::nullopt;
  }
  Options options;
  options.request.command = args[0];
  std::size_t i = 1;
  const bool serve = options.request.command == "serve";
  const bool call = options.request.command == "call";
  if (call) {
    // `call` forwards its own command word: ftsynth call analyse m.mdl ...
    if (i >= args.size() || args[i].rfind("--", 0) == 0) {
      err << "error: call needs a command to send (e.g. ftsynth call "
             "analyse model.mdl --socket PATH)\n";
      return std::nullopt;
    }
    options.request.command = args[i++];
  }
  if (!serve && i < args.size() && args[i].rfind("--", 0) != 0) {
    options.request.model_path = args[i++];
  }
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        err << "error: " << arg << " needs a value\n";
        return std::nullopt;
      }
      return args[++i];
    };
    auto count_value = [&](const char* flag, auto* out) -> bool {
      auto v = value();
      if (!v) return false;
      try {
        if constexpr (std::is_same_v<decltype(out), long*>) {
          *out = std::stol(*v);
        } else if constexpr (std::is_same_v<decltype(out), int*>) {
          *out = std::stoi(*v);
        } else {
          *out = std::stoul(*v);
        }
      } catch (const std::exception&) {
        err << "error: " << flag << " needs a count, got '" << *v << "'\n";
        return false;
      }
      return true;
    };
    if (arg == "--top") {
      auto v = value();
      if (!v) return std::nullopt;
      options.request.tops.push_back(*v);
    } else if (arg == "--against") {
      auto v = value();
      if (!v) return std::nullopt;
      options.request.against_path = *v;
    } else if (arg == "--format") {
      auto v = value();
      if (!v) return std::nullopt;
      options.request.format = *v;
    } else if (arg == "--output") {
      auto v = value();
      if (!v) return std::nullopt;
      options.request.output = *v;
    } else if (arg == "--time") {
      auto v = value();
      if (!v) return std::nullopt;
      try {
        options.request.mission_time_hours = std::stod(*v);
      } catch (const std::exception&) {
        err << "error: --time needs a number, got '" << *v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--tree") {
      options.request.render_tree = true;
    } else if (arg == "--strict") {
      options.request.strict = true;
    } else if (arg == "--max-errors") {
      if (!count_value("--max-errors", &options.request.max_errors))
        return std::nullopt;
    } else if (arg == "--deadline-ms") {
      if (!count_value("--deadline-ms", &options.request.deadline_ms))
        return std::nullopt;
      if (options.request.deadline_ms < 0) {
        err << "error: --deadline-ms must be >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--max-depth") {
      if (!count_value("--max-depth", &options.request.max_depth))
        return std::nullopt;
    } else if (arg == "--max-nodes") {
      if (!count_value("--max-nodes", &options.request.max_nodes))
        return std::nullopt;
    } else if (arg == "--jobs") {
      if (!count_value("--jobs", &options.request.jobs)) return std::nullopt;
      if (options.request.jobs < 0) {
        err << "error: --jobs must be >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--engine") {
      auto v = value();
      if (!v) return std::nullopt;
      if (std::optional<CutSetEngine> engine = parse_cut_set_engine(*v)) {
        options.request.engine = *engine;
      } else {
        err << "error: unknown --engine '" << *v
            << "' (expected micsup, mocus, zbdd or bound)\n";
        return std::nullopt;
      }
    } else if (arg == "--bound-epsilon") {
      auto v = value();
      if (!v) return std::nullopt;
      try {
        options.request.bound_epsilon = std::stod(*v);
      } catch (const std::exception&) {
        err << "error: --bound-epsilon needs a number, got '" << *v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--order") {
      auto v = value();
      if (!v) return std::nullopt;
      if (std::optional<OrderPolicy> policy = parse_order_policy(*v)) {
        options.request.order = *policy;
      } else {
        err << "error: unknown --order '" << *v
            << "' (expected static or sift)\n";
        return std::nullopt;
      }
    } else if (arg == "--verbose") {
      options.request.verbose = true;
    } else if (arg == "--socket") {
      auto v = value();
      if (!v) return std::nullopt;
      options.socket_path = *v;
    } else if (arg == "--json") {
      options.json_output = true;
    } else if (arg == "--executors") {
      if (!count_value("--executors", &options.executors)) return std::nullopt;
    } else if (arg == "--queue") {
      if (!count_value("--queue", &options.queue_limit)) return std::nullopt;
    } else if (arg == "--max-deadline-ms") {
      if (!count_value("--max-deadline-ms", &options.max_deadline_ms))
        return std::nullopt;
    } else if (arg == "--help" || arg == "-h") {
      err << kUsage;
      return std::nullopt;
    } else {
      err << "error: unknown option '" << arg << "'\n" << kUsage;
      return std::nullopt;
    }
  }
  if (serve) {
    if (options.socket_path.empty()) {
      err << "error: serve needs --socket PATH\n";
      return std::nullopt;
    }
    return options;
  }
  if (call) {
    if (options.socket_path.empty()) {
      err << "error: call needs --socket PATH\n";
      return std::nullopt;
    }
    if (options.request.model_path.empty() &&
        !is_control_verb(options.request.command)) {
      err << "error: no model file given\n" << kUsage;
      return std::nullopt;
    }
    return options;
  }
  if (options.request.model_path.empty()) {
    err << "error: no model file given\n" << kUsage;
    return std::nullopt;
  }
  return options;
}

int cmd_serve(const Options& options, std::ostream& out, std::ostream& err) {
  service::ServerOptions server_options;
  server_options.socket_path = options.socket_path;
  server_options.jobs = options.request.jobs;
  server_options.executors = options.executors;
  server_options.queue_limit = options.queue_limit;
  server_options.max_deadline_ms = options.max_deadline_ms;
  service::ServiceServer server(server_options);
  std::string error;
  if (!server.start(&error)) {
    err << "error: " << error << "\n";
    return 2;
  }
  err << "listening on " << options.socket_path << "\n";
  err.flush();
  // Runs until a `shutdown` request arrives. Nothing is persisted, so a
  // restarted daemon starts cold.
  server.wait();
  server.stop();
  if (options.request.verbose) err << server.runner().stats_text();
  (void)out;
  return 0;
}

/// The wire JSON for one `call`. Only non-default fields travel, plus the
/// mandatory deadline (defaulted here so ad-hoc calls stay convenient).
service::Json build_wire_request(const Options& options) {
  using service::Json;
  const service::ServiceRequest& request = options.request;
  Json json = Json::object();
  json.set("command", Json::string(request.command));
  if (is_control_verb(request.command)) return json;
  json.set("model", Json::string(request.model_path));
  if (!request.against_path.empty())
    json.set("against", Json::string(request.against_path));
  if (!request.tops.empty()) {
    Json tops = Json::array();
    for (const std::string& top : request.tops)
      tops.push_back(Json::string(top));
    json.set("tops", tops);
  }
  if (request.format != "text") json.set("format", Json::string(request.format));
  if (request.mission_time_hours != 1.0)
    json.set("time_hours", Json::number(request.mission_time_hours));
  if (request.render_tree) json.set("tree", Json::boolean(true));
  if (request.strict) json.set("strict", Json::boolean(true));
  if (request.max_errors != DiagnosticSink::kDefaultMaxErrors)
    json.set("max_errors",
             Json::number(static_cast<double>(request.max_errors)));
  if (request.max_depth != 0)
    json.set("max_depth", Json::number(static_cast<double>(request.max_depth)));
  if (request.max_nodes != 0)
    json.set("max_nodes", Json::number(static_cast<double>(request.max_nodes)));
  if (request.verbose) json.set("verbose", Json::boolean(true));
  if (request.engine != CutSetEngine::kMicsup)
    json.set("engine", Json::string(to_string(request.engine)));
  if (request.bound_epsilon != 1e-6)
    json.set("bound_epsilon", Json::number(request.bound_epsilon));
  if (request.order != OrderPolicy::kStatic)
    json.set("order", Json::string(to_string(request.order)));
  const long deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : 60000;
  json.set("deadline_ms", Json::number(static_cast<double>(deadline_ms)));
  return json;
}

/// Exit code for a daemon-side error response: protocol/usage problems
/// mirror bad usage (2), load-shed and shutdown map to the analysis-failure
/// code (5; the request was valid, the run did not complete), internal = 6.
int exit_code_for_wire_error(std::string_view code) {
  if (code == "bad-request" || code == "budget-required") return 2;
  if (code == "internal") return 6;
  return 5;
}

int cmd_call(const Options& options, std::ostream& out, std::ostream& err) {
  service::ServiceClient client;
  std::string error;
  if (!client.connect(options.socket_path, &error)) {
    err << "error: " << error << "\n";
    return 2;
  }
  std::optional<service::Json> response =
      client.call(build_wire_request(options), &error);
  if (!response) {
    err << "error: " << error << "\n";
    return 6;
  }
  if (options.json_output) {
    out << response->dump() << "\n";
  }
  const service::Json* status = response->find("status");
  if (status == nullptr || !status->is_string()) {
    err << "error: malformed response (no status)\n";
    return 6;
  }
  if (status->as_string() == "error") {
    const service::Json* code = response->find("error");
    const service::Json* message = response->find("message");
    const std::string code_text =
        code != nullptr && code->is_string() ? code->as_string() : "internal";
    err << "error: " << code_text << ": "
        << (message != nullptr && message->is_string() ? message->as_string()
                                                       : "")
        << "\n";
    return exit_code_for_wire_error(code_text);
  }
  const service::Json* output = response->find("output");
  const service::Json* log = response->find("log");
  const service::Json* exit_code = response->find("exit_code");
  if (log != nullptr && log->is_string()) err << log->as_string();
  const std::string text =
      output != nullptr && output->is_string() ? output->as_string() : "";
  if (!options.json_output) {
    // --output is applied client-side: the daemon never writes files for
    // its clients, it only returns bytes.
    if (options.request.output.empty()) {
      out << text;
    } else {
      std::ofstream file(options.request.output);
      if (!file.good()) {
        err << "error: cannot write '" << options.request.output << "'\n";
        return 2;
      }
      file << text;
    }
  }
  return exit_code != nullptr && exit_code->is_number()
             ? static_cast<int>(exit_code->as_number())
             : 0;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  std::optional<Options> options = parse_args(args, err);
  if (!options) return 2;
  if (options->request.command == "serve") return cmd_serve(*options, out, err);
  if (args[0] == "call") return cmd_call(*options, out, err);
  // Local cold run: one request through the shared runner, byte-for-byte
  // the pre-daemon CLI behaviour. Unknown commands are caught up front so
  // the usage text can accompany the error.
  service::ServiceRunner runner;
  // The request's --output path is handled inside the runner; the CLI only
  // relays the streams.
  service::ServiceResult result = runner.execute(options->request);
  out << result.output;
  err << result.log;
  if (result.exit_code == 2 &&
      result.log.find("unknown command") != std::string::npos) {
    err << kUsage;
  }
  return result.exit_code;
}

}  // namespace ftsynth::cli
