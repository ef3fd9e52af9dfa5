#include "service/protocol.h"

#include <cmath>

namespace ftsynth::service {

std::string_view to_string(WireErrorCode code) noexcept {
  switch (code) {
    case WireErrorCode::kBadRequest:
      return "bad-request";
    case WireErrorCode::kBudgetRequired:
      return "budget-required";
    case WireErrorCode::kOverloaded:
      return "overloaded";
    case WireErrorCode::kDeadline:
      return "deadline";
    case WireErrorCode::kShuttingDown:
      return "shutting-down";
    case WireErrorCode::kInternal:
      break;
  }
  return "internal";
}

namespace {

/// Commands the daemon executes through the runner. `sensitivity`,
/// `audit` etc. ride along for free -- the runner speaks them all.
bool known_command(std::string_view command) noexcept {
  return command == "info" || command == "validate" ||
         command == "synthesise" || command == "synthesize" ||
         command == "analyse" || command == "analyze" ||
         command == "audit" || command == "fmea" ||
         command == "sensitivity" || command == "report" ||
         command == "diff" || command == "load";
}

/// Typed field extraction: every helper fails (returns false and sets
/// `error`) on a present-but-wrong-typed value. A daemon must reject what
/// it does not understand, not coerce it.
bool read_string(const Json& object, std::string_view key, std::string* out,
                 WireError* error) {
  const Json* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_string()) {
    *error = {WireErrorCode::kBadRequest,
              "field '" + std::string(key) + "' must be a string"};
    return false;
  }
  *out = value->as_string();
  return true;
}

bool read_bool(const Json& object, std::string_view key, bool* out,
               WireError* error) {
  const Json* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_bool()) {
    *error = {WireErrorCode::kBadRequest,
              "field '" + std::string(key) + "' must be a boolean"};
    return false;
  }
  *out = value->as_bool();
  return true;
}

bool read_number(const Json& object, std::string_view key, double* out,
                 WireError* error) {
  const Json* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_number()) {
    *error = {WireErrorCode::kBadRequest,
              "field '" + std::string(key) + "' must be a number"};
    return false;
  }
  *out = value->as_number();
  return true;
}

bool read_count(const Json& object, std::string_view key, std::size_t* out,
                WireError* error) {
  double value = static_cast<double>(*out);
  if (!read_number(object, key, &value, error)) return false;
  if (value < 0 || value != std::floor(value)) {
    *error = {WireErrorCode::kBadRequest,
              "field '" + std::string(key) + "' must be a non-negative integer"};
    return false;
  }
  *out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

std::variant<WireRequest, WireError> parse_wire_request(
    std::string_view line) {
  std::string parse_error;
  std::optional<Json> json = Json::parse(line, &parse_error);
  if (!json) {
    return WireError{WireErrorCode::kBadRequest,
                     "malformed JSON: " + parse_error};
  }
  if (!json->is_object()) {
    return WireError{WireErrorCode::kBadRequest,
                     "request must be a JSON object"};
  }

  WireRequest out;
  if (const Json* id = json->find("id")) out.id = *id;

  // Everything from here on knows the request id; stamp it onto any
  // error so the response can echo it.
  const auto fail = [&](WireError error) {
    error.id = out.id;
    return error;
  };
  WireError error;
  std::string command;
  if (!read_string(*json, "command", &command, &error))
    return fail(error);
  if (command.empty()) {
    return fail(WireError{WireErrorCode::kBadRequest, "missing 'command'"});
  }
  if (command == "ping") {
    out.control = ControlCommand::kPing;
    return out;
  }
  if (command == "stats") {
    out.control = ControlCommand::kStats;
    return out;
  }
  if (command == "shutdown") {
    out.control = ControlCommand::kShutdown;
    return out;
  }
  if (!known_command(command)) {
    return fail(WireError{WireErrorCode::kBadRequest,
                     "unknown command '" + command + "'"});
  }

  ServiceRequest& request = out.request;
  request.command = command;
  if (!read_string(*json, "model", &request.model_path, &error)) return fail(error);
  if (request.model_path.empty()) {
    return fail(WireError{WireErrorCode::kBadRequest,
                     "missing 'model' (path to the .mdl file)"});
  }
  if (!read_string(*json, "against", &request.against_path, &error))
    return fail(error);
  if (const Json* tops = json->find("tops")) {
    if (!tops->is_array()) {
      return fail(WireError{WireErrorCode::kBadRequest,
                       "field 'tops' must be an array of strings"});
    }
    for (const Json& top : tops->as_array()) {
      if (!top.is_string()) {
        return fail(WireError{WireErrorCode::kBadRequest,
                         "field 'tops' must be an array of strings"});
      }
      request.tops.push_back(top.as_string());
    }
  }
  if (!read_string(*json, "format", &request.format, &error)) return fail(error);
  if (!read_number(*json, "time_hours", &request.mission_time_hours, &error))
    return fail(error);
  if (!read_bool(*json, "tree", &request.render_tree, &error)) return fail(error);
  if (!read_bool(*json, "strict", &request.strict, &error)) return fail(error);
  if (!read_count(*json, "max_errors", &request.max_errors, &error))
    return fail(error);
  if (!read_count(*json, "max_depth", &request.max_depth, &error))
    return fail(error);
  if (!read_count(*json, "max_nodes", &request.max_nodes, &error))
    return fail(error);
  if (!read_bool(*json, "verbose", &request.verbose, &error)) return fail(error);

  std::string engine;
  if (!read_string(*json, "engine", &engine, &error)) return fail(error);
  if (!engine.empty()) {
    if (std::optional<CutSetEngine> parsed = parse_cut_set_engine(engine)) {
      request.engine = *parsed;
    } else {
      return fail(WireError{WireErrorCode::kBadRequest,
                       "unknown engine '" + engine + "'"});
    }
  }
  if (!read_number(*json, "bound_epsilon", &request.bound_epsilon, &error))
    return fail(error);
  std::string order;
  if (!read_string(*json, "order", &order, &error)) return fail(error);
  if (!order.empty()) {
    if (std::optional<OrderPolicy> policy = parse_order_policy(order)) {
      request.order = *policy;
    } else {
      return fail(WireError{WireErrorCode::kBadRequest,
                       "unknown order policy '" + order + "'"});
    }
  }

  // The mandatory per-request budget: a wall-clock deadline, always.
  // max_depth/max_nodes refine it but cannot stand in for it -- only the
  // deadline bounds how long a request can hold a worker.
  double deadline = 0;
  if (!read_number(*json, "deadline_ms", &deadline, &error)) return fail(error);
  if (deadline <= 0 || deadline != std::floor(deadline)) {
    return fail(WireError{
        WireErrorCode::kBudgetRequired,
        "every request must carry a budget: 'deadline_ms' (positive integer "
        "milliseconds) is required"});
  }
  request.deadline_ms = static_cast<long>(deadline);
  return out;
}

std::string render_ok_response(const Json& id, const ServiceResult& result) {
  Json response = Json::object();
  response.set("id", id);
  response.set("status", Json::string("ok"));
  response.set("exit_code", Json::number(result.exit_code));
  response.set("output", Json::string(result.output));
  response.set("log", Json::string(result.log));
  // Open-PSA event-tree runs carry structured per-sequence rows so wire
  // clients need not scrape the text table. Absent (not an empty array)
  // for every other request -- pre-event-tree envelopes are unchanged.
  if (!result.sequences.empty()) {
    Json rows = Json::array();
    for (const SequenceSummary& row : result.sequences) {
      Json entry = Json::object();
      entry.set("name", Json::string(row.name));
      entry.set("probability", Json::number(row.probability));
      if (row.p_lower) entry.set("p_lower", Json::number(*row.p_lower));
      if (row.p_upper) entry.set("p_upper", Json::number(*row.p_upper));
      entry.set("cut_sets",
                Json::number(static_cast<double>(row.cut_set_count)));
      entry.set("min_order", Json::number(static_cast<double>(row.min_order)));
      entry.set("truncated", Json::boolean(row.truncated));
      rows.push_back(std::move(entry));
    }
    response.set("sequences", std::move(rows));
  }
  return response.dump();
}

std::string render_error_response(const Json& id, WireErrorCode code,
                                  std::string_view message) {
  Json response = Json::object();
  response.set("id", id);
  response.set("status", Json::string("error"));
  response.set("error", Json::string(std::string(to_string(code))));
  response.set("message", Json::string(std::string(message)));
  return response.dump();
}

std::string render_control_response(const Json& id, std::string_view output) {
  ServiceResult result;
  result.output = std::string(output);
  return render_ok_response(id, result);
}

}  // namespace ftsynth::service
