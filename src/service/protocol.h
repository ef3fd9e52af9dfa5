// The daemon's line-delimited JSON wire protocol.
//
// One request per line, one response line per request, over a local
// stream socket (docs/FORMATS.md §"Service wire protocol" documents the
// full field tables). This module is the pure translation layer between
// wire JSON and the structured ServiceRequest/ServiceResult types -- no
// I/O, so every malformed-input path is unit-testable without a socket.
//
// Robustness contract: parsing NEVER throws and never guesses. Anything
// malformed -- bad JSON, a missing command, an unknown field value, and
// in particular a missing budget -- comes back as a typed WireError the
// server turns into an error response. A budget is MANDATORY on every
// executing request (`deadline_ms` > 0): a daemon serving many clients
// cannot let one of them submit unbounded work.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "service/json.h"
#include "service/runner.h"

namespace ftsynth::service {

/// Wire error codes (the `error` field of an error response).
/// Stable strings: clients and the soak harness match on them.
enum class WireErrorCode {
  kBadRequest,      ///< malformed JSON / unknown command / bad field
  kBudgetRequired,  ///< executing request without a positive deadline_ms
  kOverloaded,      ///< admission queue full -- retry later (load shed)
  kDeadline,        ///< deadline expired before execution finished admission
  kShuttingDown,    ///< server is stopping; no new work accepted
  kInternal,        ///< unexpected server-side failure
};

std::string_view to_string(WireErrorCode code) noexcept;

struct WireError {
  WireError() = default;
  WireError(WireErrorCode code, std::string message)
      : code(code), message(std::move(message)) {}

  WireErrorCode code = WireErrorCode::kBadRequest;
  std::string message;
  /// The request's id when one was readable (echoed in the error
  /// response so pipelining clients can match it), else null.
  Json id;
};

/// Control verbs the server answers without touching the runner.
enum class ControlCommand {
  kNone,      ///< a normal executing request
  kPing,      ///< liveness probe
  kStats,     ///< warm-state counters
  kShutdown,  ///< orderly stop (responds, then the server drains)
};

/// One parsed request line: the echoed id, either a control verb or an
/// executable ServiceRequest.
struct WireRequest {
  Json id;  ///< echoed verbatim in the response (null when absent)
  ControlCommand control = ControlCommand::kNone;
  ServiceRequest request;
};

/// Parses one request line. Returns a WireError instead of throwing;
/// the mandatory-budget rule is enforced here (control verbs exempt).
std::variant<WireRequest, WireError> parse_wire_request(
    std::string_view line);

/// Response renderers; each returns one complete JSON line WITHOUT the
/// trailing newline (the transport adds framing).
///
/// Success envelope: {"id":..,"status":"ok","exit_code":N,
///                    "output":"..","log":".."}
/// Error envelope:   {"id":..,"status":"error","error":"<code>",
///                    "message":".."}
std::string render_ok_response(const Json& id, const ServiceResult& result);
std::string render_error_response(const Json& id, WireErrorCode code,
                                  std::string_view message);
/// Control responses reuse the ok envelope with exit_code 0 and the
/// payload (pong text, stats block) in `output`.
std::string render_control_response(const Json& id, std::string_view output);

}  // namespace ftsynth::service
