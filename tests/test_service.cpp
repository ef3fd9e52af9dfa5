// Tests for the analysis service layer: the wire JSON codec, the
// protocol's admission rules, byte-identity of the library-first runner
// against the serial CLI (cold and warm, every engine x order policy),
// the daemon's robustness ladder (bad requests, overload, deadlines,
// disconnects, shutdown), and fault injection on the crash-safe
// persistence path. Suite names all carry "Service" so CI's TSan pass
// picks them up alongside the concurrency suites.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "casestudy/setta.h"
#include "mdl/writer.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/runner.h"
#include "service/server.h"
#include "tools/cli.h"

namespace ftsynth {
namespace {

using service::Json;
using service::ServiceClient;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceRunner;
using service::ServiceServer;
using service::WireError;
using service::WireErrorCode;
using service::WireRequest;

// ---------------------------------------------------------------------------
// Shared helpers

std::string test_tag() {
  return testing::UnitTest::GetInstance()->current_test_info()->name();
}

/// Writes the SETTA brake-by-wire model to a per-test temp file.
std::string write_bbw(const std::string& stem) {
  const std::string path =
      testing::TempDir() + "/service_" + stem + "_" + test_tag() + ".mdl";
  Model model = setta::build_bbw();
  write_mdl_file(model, path);
  return path;
}

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

/// Reference run through the CLI front end (the byte-identity oracle).
CliRun run_cli(const std::vector<std::string>& args) {
  CliRun run;
  std::ostringstream out;
  std::ostringstream err;
  run.code = cli::run(args, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

ServiceRequest make_request(std::string command, std::string model) {
  ServiceRequest request;
  request.command = std::move(command);
  request.model_path = std::move(model);
  request.jobs = 1;
  return request;
}

// ---------------------------------------------------------------------------
// ServiceJson: the wire codec

TEST(ServiceJson, DumpIsStableAndEscapesFraming) {
  Json object = Json::object();
  object.set("id", Json::number(7));
  object.set("text", Json::string("line1\nline2\t\"quoted\"\\"));
  Json array = Json::array();
  array.push_back(Json::boolean(true));
  array.push_back(Json());
  object.set("list", array);
  const std::string line = object.dump();
  // Newlines inside strings must never break line-delimited framing.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line,
            "{\"id\":7,\"text\":\"line1\\nline2\\t\\\"quoted\\\"\\\\\","
            "\"list\":[true,null]}");
}

TEST(ServiceJson, RoundTripPreservesValues) {
  const std::string text =
      R"({"a":1.5,"b":-3,"c":"\u0041\u00e9","d":[{"e":false}],"f":null})";
  std::string error;
  std::optional<Json> json = Json::parse(text, &error);
  ASSERT_TRUE(json.has_value()) << error;
  EXPECT_DOUBLE_EQ(json->find("a")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(json->find("b")->as_number(), -3.0);
  EXPECT_EQ(json->find("c")->as_string(), "A\xc3\xa9");
  ASSERT_TRUE(json->find("d")->is_array());
  EXPECT_FALSE(json->find("d")->as_array()[0].find("e")->as_bool());
  EXPECT_TRUE(json->find("f")->is_null());
  // dump -> parse -> dump is a fixed point.
  const std::string dumped = json->dump();
  EXPECT_EQ(Json::parse(dumped)->dump(), dumped);
}

TEST(ServiceJson, IntegralNumbersDumpWithoutExponent) {
  EXPECT_EQ(Json::number(60000).dump(), "60000");
  EXPECT_EQ(Json::number(0).dump(), "0");
  EXPECT_EQ(Json::number(-2).dump(), "-2");
}

TEST(ServiceJson, RejectsMalformedInput) {
  const char* cases[] = {
      "",           "{",          "tru",         "\"unterminated",
      "{\"a\":}",   "[1,]",       "{\"a\" 1}",   "1 2",
      "{\"a\":1}x", "nullx",      "+1",
      "\"\\q\"",    "\"raw\x01control\"",
  };
  for (const char* text : cases) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ServiceJson, RejectsPathologicalNesting) {
  // A hostile client must not be able to blow the parse stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

// ---------------------------------------------------------------------------
// ServiceProtocol: admission rules at the parse layer

TEST(ServiceProtocol, BudgetIsMandatory) {
  const auto parsed =
      service::parse_wire_request(R"({"command":"analyse","model":"m.mdl"})");
  const WireError* error = std::get_if<WireError>(&parsed);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, WireErrorCode::kBudgetRequired);
  EXPECT_NE(error->message.find("deadline_ms"), std::string::npos);
}

TEST(ServiceProtocol, NonPositiveOrFractionalDeadlineRejected) {
  for (const char* deadline : {"0", "-5", "2.5"}) {
    const std::string line = std::string(R"({"command":"analyse","model":"m",)") +
                             R"("deadline_ms":)" + deadline + "}";
    const auto parsed = service::parse_wire_request(line);
    const WireError* error = std::get_if<WireError>(&parsed);
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->code, WireErrorCode::kBudgetRequired) << line;
  }
}

TEST(ServiceProtocol, ControlVerbsNeedNoBudget) {
  for (const char* verb : {"ping", "stats", "shutdown"}) {
    const auto parsed = service::parse_wire_request(
        std::string("{\"command\":\"") + verb + "\"}");
    EXPECT_NE(std::get_if<WireRequest>(&parsed), nullptr) << verb;
  }
}

TEST(ServiceProtocol, RejectsUnknownCommandAndMissingModel) {
  auto unknown =
      service::parse_wire_request(R"({"command":"explode","model":"m"})");
  ASSERT_NE(std::get_if<WireError>(&unknown), nullptr);
  EXPECT_EQ(std::get_if<WireError>(&unknown)->code,
            WireErrorCode::kBadRequest);

  auto missing =
      service::parse_wire_request(R"({"command":"analyse","deadline_ms":1})");
  ASSERT_NE(std::get_if<WireError>(&missing), nullptr);
  EXPECT_NE(std::get_if<WireError>(&missing)->message.find("model"),
            std::string::npos);
}

TEST(ServiceProtocol, RejectsWrongFieldTypesInsteadOfCoercing) {
  const char* cases[] = {
      R"({"command":"analyse","model":42,"deadline_ms":1000})",
      R"({"command":"analyse","model":"m","tops":"Omission-x","deadline_ms":1000})",
      R"({"command":"analyse","model":"m","deadline_ms":"soon"})",
      R"({"command":"analyse","model":"m","strict":1,"deadline_ms":1000})",
      R"({"command":"analyse","model":"m","engine":"magic","deadline_ms":1000})",
      R"({"command":"analyse","model":"m","max_errors":-1,"deadline_ms":1000})",
      R"({"command":"analyse","model":"m","bound_epsilon":"tiny","deadline_ms":1000})",
  };
  for (const char* line : cases) {
    const auto parsed = service::parse_wire_request(line);
    EXPECT_NE(std::get_if<WireError>(&parsed), nullptr) << line;
  }
}

TEST(ServiceProtocol, ErrorsEchoTheRequestId) {
  const auto parsed = service::parse_wire_request(
      R"({"id":"req-9","command":"analyse","model":"m"})");
  const WireError* error = std::get_if<WireError>(&parsed);
  ASSERT_NE(error, nullptr);
  ASSERT_TRUE(error->id.is_string());
  EXPECT_EQ(error->id.as_string(), "req-9");
  EXPECT_NE(service::render_error_response(error->id, error->code,
                                           error->message)
                .find("\"req-9\""),
            std::string::npos);
}

TEST(ServiceProtocol, ParsesEveryRequestField) {
  const auto parsed = service::parse_wire_request(R"({
    "id": 3, "command": "analyse", "model": "m.mdl",
    "tops": ["Omission-a", "Commission-b"], "time_hours": 1000,
    "tree": true, "strict": true, "max_errors": 7, "max_depth": 99,
    "max_nodes": 1234, "verbose": true,
    "engine": "zbdd", "deadline_ms": 2500
  })");
  const WireRequest* wire = std::get_if<WireRequest>(&parsed);
  ASSERT_NE(wire, nullptr);
  const ServiceRequest& request = wire->request;
  EXPECT_EQ(request.command, "analyse");
  EXPECT_EQ(request.model_path, "m.mdl");
  ASSERT_EQ(request.tops.size(), 2u);
  EXPECT_EQ(request.tops[1], "Commission-b");
  EXPECT_DOUBLE_EQ(request.mission_time_hours, 1000);
  EXPECT_TRUE(request.render_tree);
  EXPECT_TRUE(request.strict);
  EXPECT_EQ(request.max_errors, 7u);
  EXPECT_EQ(request.max_depth, 99u);
  EXPECT_EQ(request.max_nodes, 1234u);
  EXPECT_TRUE(request.verbose);
  EXPECT_EQ(request.engine, CutSetEngine::kZbdd);
  EXPECT_EQ(request.deadline_ms, 2500);
}

TEST(ServiceProtocol, ParsesBoundEngineAndEpsilon) {
  const auto parsed = service::parse_wire_request(R"({
    "command": "analyse", "model": "m.mdl",
    "engine": "bound", "bound_epsilon": 0.001, "deadline_ms": 2000
  })");
  const WireRequest* wire = std::get_if<WireRequest>(&parsed);
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->request.engine, CutSetEngine::kBound);
  EXPECT_DOUBLE_EQ(wire->request.bound_epsilon, 0.001);
}

TEST(ServiceProtocol, ResponseEnvelopesCarryTheContract) {
  ServiceResult result;
  result.exit_code = 1;
  result.output = "cut sets\n";
  result.log = "warning: x\n";
  const std::string ok = service::render_ok_response(Json::number(4), result);
  std::optional<Json> parsed = Json::parse(ok);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("status")->as_string(), "ok");
  EXPECT_EQ(parsed->find("exit_code")->as_number(), 1);
  EXPECT_EQ(parsed->find("output")->as_string(), "cut sets\n");
  EXPECT_EQ(parsed->find("log")->as_string(), "warning: x\n");

  const std::string err = service::render_error_response(
      Json(), WireErrorCode::kOverloaded, "queue full");
  parsed = Json::parse(err);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("status")->as_string(), "error");
  EXPECT_EQ(parsed->find("error")->as_string(), "overloaded");
}

// ---------------------------------------------------------------------------
// ServiceRunner: byte-identity against the serial CLI, cold and warm

class ServiceRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override { model_path_ = write_bbw("runner"); }

  std::string model_path_;
};

TEST_F(ServiceRunnerTest, WarmRunsAreByteIdenticalToTheSerialCliForEveryCommand) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 4;
  ServiceRunner runner(options);

  const std::string second_path = write_bbw("runner_b");
  {
    // A genuinely different revision for diff: drop one wheel's channel.
    Model revised = setta::build_bbw_single_channel();
    write_mdl_file(revised, second_path);
  }

  struct Case {
    const char* command;
    std::vector<std::string> extra_cli;
  };
  const Case cases[] = {
      {"info", {}},
      {"validate", {}},
      {"audit", {}},
      {"synthesise", {"--top", "Omission-brake_force_fl"}},
      {"analyse", {"--top", "Omission-brake_force_fl", "--time", "1000"}},
      {"sensitivity", {"--top", "Omission-brake_force_fl"}},
      {"fmea", {"--time", "1000"}},
      {"report", {"--top", "Omission-brake_force_fl"}},
      {"diff", {"--against", second_path}},
  };
  for (const Case& c : cases) {
    std::vector<std::string> args{c.command, model_path_, "--jobs", "1"};
    args.insert(args.end(), c.extra_cli.begin(), c.extra_cli.end());
    const CliRun reference = run_cli(args);

    ServiceRequest request = make_request(c.command, model_path_);
    for (std::size_t i = 0; i < c.extra_cli.size(); i += 2) {
      if (c.extra_cli[i] == "--top") request.tops.push_back(c.extra_cli[i + 1]);
      if (c.extra_cli[i] == "--time")
        request.mission_time_hours = std::stod(c.extra_cli[i + 1]);
      if (c.extra_cli[i] == "--against")
        request.against_path = c.extra_cli[i + 1];
    }
    // Twice: the first warm run fills the model cache and the response
    // memo, the second hits them. Both must reproduce the cold serial run
    // exactly.
    for (int round = 0; round < 2; ++round) {
      const ServiceResult result = runner.execute(request);
      EXPECT_EQ(result.output, reference.out)
          << c.command << " round " << round;
      EXPECT_EQ(result.exit_code, reference.code)
          << c.command << " round " << round;
      EXPECT_EQ(result.log, reference.err) << c.command << " round " << round;
    }
  }
}

// The name predates the retired --order, whose sift leg this test used to
// run; it is kept so the test keeps its history.
TEST_F(ServiceRunnerTest, WarmAnalyseMatchesSerialAcrossEnginesAndOrders) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 4;
  ServiceRunner runner(options);
  for (const char* engine : {"micsup", "zbdd"}) {
    const CliRun reference =
        run_cli({"analyse", model_path_, "--engine", engine, "--jobs", "1"});
    ASSERT_EQ(reference.code, 0) << engine;
    ASSERT_NE(reference.out.find("minimal cut sets:"), std::string::npos);

    ServiceRequest request = make_request("analyse", model_path_);
    request.engine = engine == std::string("zbdd") ? CutSetEngine::kZbdd
                                                   : CutSetEngine::kMicsup;
    for (int round = 0; round < 2; ++round) {
      const ServiceResult result = runner.execute(request);
      EXPECT_EQ(result.output, reference.out) << engine << " round " << round;
      EXPECT_EQ(result.exit_code, 0) << engine;
    }
  }
}

TEST_F(ServiceRunnerTest, RequestsDifferingOnlyInOrderShareOneMemoEntry) {
  // The retired "order" field is ignored on the wire and has left the
  // response-memo key: requests that differ only in it are one entry.
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 1;
  ServiceRunner runner(options);
  const std::string head = R"({"command":"analyse","model":")" + model_path_ +
                           R"(","engine":"zbdd","deadline_ms":60000)";
  std::string reference;
  for (const char* order : {"", R"(,"order":"sift")", R"(,"order":"static")",
                            R"(,"order":"bogus")"}) {
    const auto parsed =
        service::parse_wire_request(head + std::string(order) + "}");
    const WireRequest* wire = std::get_if<WireRequest>(&parsed);
    ASSERT_NE(wire, nullptr) << order;
    const ServiceResult result = runner.execute(wire->request);
    EXPECT_EQ(result.exit_code, 0) << order;
    if (reference.empty()) reference = result.output;
    EXPECT_EQ(result.output, reference) << order;
    EXPECT_NE(runner.stats_text().find("results memoised: 1"),
              std::string::npos)
        << order << ": " << runner.stats_text();
  }
}

TEST_F(ServiceRunnerTest, WarmModelCacheReplaysParseDiagnostics) {
  const std::string broken_path =
      testing::TempDir() + "/service_broken_" + test_tag() + ".mdl";
  {
    // Recoverable structural problem (an unconnected input): the run
    // completes with diagnostics rather than throwing.
    std::ofstream broken(broken_path);
    broken << R"(
Model { Name "broken" System {
  Block {
    BlockType Basic
    Name "stage"
    Port { Name "x"  Direction "input" }
    Port { Name "y"  Direction "output" }
  }
  Block { BlockType Outport Name "out" }
  Line { Src "stage.y"  Dst "out" }
} }
)";
  }
  const CliRun reference = run_cli({"info", broken_path, "--jobs", "1"});
  ASSERT_FALSE(reference.err.empty());

  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 1;
  ServiceRunner runner(options);
  const ServiceRequest request = make_request("info", broken_path);
  const ServiceResult cold = runner.execute(request);
  const ServiceResult warm = runner.execute(request);
  // The warm hit must replay the stored parse diagnostics: same exit
  // code, same diagnostic bytes, not a silently "clean" run.
  EXPECT_EQ(cold.exit_code, reference.code);
  EXPECT_EQ(cold.log, reference.err);
  EXPECT_EQ(warm.exit_code, reference.code);
  EXPECT_EQ(warm.log, reference.err);
  EXPECT_EQ(warm.output, reference.out);
}

TEST_F(ServiceRunnerTest, EditedModelFileIsReparsedNotServedStale) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 1;
  ServiceRunner runner(options);
  const ServiceRequest request = make_request("info", model_path_);
  const ServiceResult before = runner.execute(request);
  EXPECT_NE(before.output.find("model: bbw"), std::string::npos);

  // Overwrite with a different model at the same path: content-addressed
  // caching must notice (an mtime-keyed cache could serve the old parse).
  Model revised = setta::build_bbw_single_channel();
  write_mdl_file(revised, model_path_);
  const ServiceResult after = runner.execute(request);
  EXPECT_NE(after.output, before.output);
}

TEST_F(ServiceRunnerTest, BadRequestsDegradeAndDoNotPoisonWarmState) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 2;
  ServiceRunner runner(options);
  const CliRun reference = run_cli({"analyse", model_path_, "--jobs", "1"});

  // A parade of bad requests through the same warm runner...
  ServiceRequest missing = make_request("analyse", "/nonexistent/x.mdl");
  EXPECT_EQ(runner.execute(missing).exit_code, 2);
  ServiceRequest unknown = make_request("explode", model_path_);
  const ServiceResult unknown_result = runner.execute(unknown);
  EXPECT_EQ(unknown_result.exit_code, 2);
  EXPECT_NE(unknown_result.log.find("unknown command"), std::string::npos);
  ServiceRequest bad_top = make_request("analyse", model_path_);
  bad_top.tops.push_back("Omission-nope");
  EXPECT_EQ(runner.execute(bad_top).exit_code, 4);
  ServiceRequest bad_format = make_request("synthesise", model_path_);
  bad_format.format = "hologram";
  bad_format.tops.push_back("Omission-brake_force_fl");
  EXPECT_EQ(runner.execute(bad_format).exit_code, 2);
  ServiceRequest no_against = make_request("diff", model_path_);
  EXPECT_EQ(runner.execute(no_against).exit_code, 2);

  // ...must leave good requests byte-identical.
  const ServiceResult good = runner.execute(make_request("analyse", model_path_));
  EXPECT_EQ(good.output, reference.out);
  EXPECT_EQ(good.exit_code, reference.code);
}

TEST_F(ServiceRunnerTest, ResponseMemoReplaysCleanRunsAndInvalidatesOnEdit) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 1;
  ServiceRunner runner(options);
  const ServiceRequest request = make_request("analyse", model_path_);

  // A deadline-fired run is never stored: results may be partial (the
  // wall clock is nondeterministic), so only complete runs are
  // replayable. The memo must stay empty.
  {
    ServiceRequest expired = request;
    Budget budget;
    budget.set_deadline_ms(60'000);
    budget.force_expire();
    expired.budget = budget;
    runner.execute(expired);
    EXPECT_NE(runner.stats_text().find("results memoised: 0"),
              std::string::npos);
  }

  // A clean run is stored; a repeat is served from the memo with the
  // exact same bytes (and without growing the memo).
  const ServiceResult first = runner.execute(request);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_NE(runner.stats_text().find("results memoised: 1"),
            std::string::npos);
  const ServiceResult replay = runner.execute(request);
  EXPECT_EQ(replay.exit_code, first.exit_code);
  EXPECT_EQ(replay.output, first.output);
  EXPECT_EQ(replay.log, first.log);
  EXPECT_NE(runner.stats_text().find("results memoised: 1"),
            std::string::npos);

  // Editing the model bytes changes the content-addressed key: the next
  // run recomputes against the new revision instead of replaying.
  Model revised = setta::build_bbw_single_channel();
  write_mdl_file(revised, model_path_);
  const ServiceResult edited = runner.execute(request);
  EXPECT_NE(edited.output, first.output);
  EXPECT_NE(runner.stats_text().find("results memoised: 2"),
            std::string::npos);
}

TEST_F(ServiceRunnerTest, ExpiredBudgetDegradesToPartialResultsNotACrash) {
  ServiceRunner runner;
  ServiceRequest request = make_request("analyse", model_path_);
  Budget budget;
  budget.set_deadline_ms(60'000);
  budget.force_expire();
  request.budget = budget;
  const ServiceResult result = runner.execute(request);
  // An already-dead budget (the daemon's disconnect path) must produce an
  // orderly degraded response -- partial results flagged by the deadline
  // warning -- never a crash or a hang.
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.log.find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ServiceDaemon: the socket server end to end

class ServiceDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_path_ = write_bbw("daemon");
    socket_path_ = testing::TempDir() + "/svc_" + test_tag() + ".sock";
  }

  void TearDown() override {
    if (server_) server_->stop();
    std::remove(socket_path_.c_str());
  }

  service::ServerOptions base_options() {
    service::ServerOptions options;
    options.socket_path = socket_path_;
    options.jobs = 2;
    options.executors = 2;
    return options;
  }

  void start(const service::ServerOptions& options) {
    server_ = std::make_unique<ServiceServer>(options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  /// One request line -> one parsed response over a fresh connection.
  Json roundtrip(const std::string& line) {
    ServiceClient client;
    std::string error;
    EXPECT_TRUE(client.connect(socket_path_, &error)) << error;
    EXPECT_TRUE(client.send_line(line, &error)) << error;
    std::string response;
    EXPECT_TRUE(client.read_line(&response, &error)) << error;
    std::optional<Json> parsed = Json::parse(response, &error);
    EXPECT_TRUE(parsed.has_value()) << error << ": " << response;
    return parsed ? *parsed : Json();
  }

  static Json analyse_request(const std::string& model, const char* engine,
                              long deadline_ms = 60'000) {
    Json request = Json::object();
    request.set("command", Json::string("analyse"));
    request.set("model", Json::string(model));
    request.set("engine", Json::string(engine));
    request.set("deadline_ms", Json::number(static_cast<double>(deadline_ms)));
    return request;
  }

  std::string model_path_;
  std::string socket_path_;
  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceDaemonTest, PingAndStatsRoundTrip) {
  start(base_options());
  Json pong = roundtrip(R"({"id":1,"command":"ping"})");
  EXPECT_EQ(pong.find("status")->as_string(), "ok");
  EXPECT_EQ(pong.find("output")->as_string(), "pong");
  EXPECT_EQ(pong.find("id")->as_number(), 1);
  Json stats = roundtrip(R"({"command":"stats"})");
  EXPECT_NE(stats.find("output")->as_string().find("models resident"),
            std::string::npos);
}

TEST_F(ServiceDaemonTest, StaleSocketFileIsReplaced) {
  {
    std::ofstream stale(socket_path_);
    stale << "stale";
  }
  start(base_options());
  EXPECT_EQ(roundtrip(R"({"command":"ping"})").find("output")->as_string(),
            "pong");
}

TEST_F(ServiceDaemonTest, MalformedAndUnbudgetedRequestsDegradePerRequest) {
  start(base_options());
  EXPECT_EQ(roundtrip("this is not json").find("error")->as_string(),
            "bad-request");
  EXPECT_EQ(roundtrip(R"({"command":"analyse","model":"m.mdl"})")
                .find("error")
                ->as_string(),
            "budget-required");
  EXPECT_EQ(roundtrip(R"({"command":"explode","model":"m.mdl"})")
                .find("error")
                ->as_string(),
            "bad-request");
  // The retired MOCUS engine's name is as unknown as any other.
  const Json mocus = roundtrip(analyse_request(model_path_, "mocus").dump());
  EXPECT_EQ(mocus.find("error")->as_string(), "bad-request");
  EXPECT_EQ(mocus.find("message")->as_string(), "unknown engine 'mocus'");
  // A request for a missing model is well-formed: it executes and
  // degrades into the CLI's exit-code-2 response, not a wire error.
  Json missing = analyse_request("/nonexistent/x.mdl", "micsup");
  Json response = roundtrip(missing.dump());
  EXPECT_EQ(response.find("status")->as_string(), "ok");
  EXPECT_EQ(response.find("exit_code")->as_number(), 2);
  EXPECT_NE(response.find("log")->as_string().find("cannot open"),
            std::string::npos);
  // The daemon is still alive and correct after all of the above.
  EXPECT_EQ(roundtrip(R"({"command":"ping"})").find("output")->as_string(),
            "pong");
  EXPECT_GE(server_->stats().bad_requests, 2u);
}

TEST_F(ServiceDaemonTest, RetiredProbModeFieldIsIgnored) {
  // Unknown request fields are ignored, so a client that still sends the
  // retired "prob_mode" gets exactly the bytes of a request without it.
  start(base_options());
  const Json plain = analyse_request(model_path_, "zbdd");
  const std::string reference = roundtrip(plain.dump()).dump();
  EXPECT_NE(reference.find("minimal cut sets:"), std::string::npos);
  for (const char* mode : {"cutsets", "diagram", "auto", "bogus"}) {
    Json request = plain;
    request.set("prob_mode", Json::string(mode));
    EXPECT_EQ(roundtrip(request.dump()).dump(), reference) << mode;
  }
}

TEST_F(ServiceDaemonTest, RetiredOrderFieldIsIgnored) {
  // The retired "order" field is ignored like any unknown field, whatever
  // its value: the response carries exactly the bytes of a request
  // without it.
  start(base_options());
  const Json plain = analyse_request(model_path_, "zbdd");
  const std::string reference = roundtrip(plain.dump()).dump();
  EXPECT_NE(reference.find("minimal cut sets:"), std::string::npos);
  for (const char* order : {"sift", "static", "bogus"}) {
    Json request = plain;
    request.set("order", Json::string(order));
    EXPECT_EQ(roundtrip(request.dump()).dump(), reference) << order;
  }
}

TEST_F(ServiceDaemonTest, RetiredNoCacheFieldIsIgnored) {
  // The retired "no_cache" field is ignored like any unknown field: the
  // response carries exactly the bytes of a request without it.
  start(base_options());
  const Json plain = analyse_request(model_path_, "micsup");
  const std::string reference = roundtrip(plain.dump()).dump();
  EXPECT_NE(reference.find("minimal cut sets:"), std::string::npos);
  for (const bool value : {true, false}) {
    Json request = plain;
    request.set("no_cache", Json::boolean(value));
    EXPECT_EQ(roundtrip(request.dump()).dump(), reference) << value;
  }
}

TEST_F(ServiceDaemonTest, ConcurrentMixedEngineTrafficIsByteIdentical) {
  start(base_options());
  const char* engines[] = {"micsup", "zbdd", "bound"};
  std::string references[3];
  for (int e = 0; e < 3; ++e) {
    const CliRun reference =
        run_cli({"analyse", model_path_, "--engine", engines[e], "--jobs", "1"});
    ASSERT_EQ(reference.code, 0);
    references[e] = reference.out;
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client;
      std::string error;
      if (!client.connect(socket_path_, &error)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int e = (c + r) % 3;
        std::optional<Json> response =
            client.call(analyse_request(model_path_, engines[e]), &error);
        if (!response || response->find("status") == nullptr ||
            response->find("status")->as_string() != "ok") {
          ++failures;
          continue;
        }
        if (response->find("output")->as_string() != references[e] ||
            response->find("exit_code")->as_number() != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server_->stats().executed,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST_F(ServiceDaemonTest, BoundEngineOverTheWireMatchesSerialCli) {
  start(base_options());
  const CliRun reference =
      run_cli({"analyse", model_path_, "--engine", "bound", "--jobs", "1"});
  ASSERT_EQ(reference.code, 0);
  ASSERT_NE(reference.out.find("P(top): certified ["), std::string::npos);

  Json request = analyse_request(model_path_, "bound");
  Json first = roundtrip(request.dump());
  EXPECT_EQ(first.find("status")->as_string(), "ok");
  EXPECT_EQ(first.find("output")->as_string(), reference.out);
  // A repeat replays through the response memo: still the same bytes.
  Json second = roundtrip(request.dump());
  EXPECT_EQ(second.find("output")->as_string(), reference.out);

  // A different convergence target is a different memo key: the answer
  // must match the serial CLI at that target, not alias the first run.
  const CliRun wide_reference =
      run_cli({"analyse", model_path_, "--engine", "bound", "--bound-epsilon",
               "0.5", "--jobs", "1"});
  ASSERT_EQ(wide_reference.code, 0);
  Json wide = analyse_request(model_path_, "bound");
  wide.set("bound_epsilon", Json::number(0.5));
  Json third = roundtrip(wide.dump());
  EXPECT_EQ(third.find("output")->as_string(), wide_reference.out);
}

TEST_F(ServiceDaemonTest, FullQueueShedsWithOverloaded) {
  service::ServerOptions options = base_options();
  options.executors = 1;
  options.queue_limit = 1;
  // Hold every executing request until its budget dies: admission quickly
  // sees one request executing, one queued, and must shed the rest.
  options.hooks.before_execute = [](const ServiceRequest&, Budget& budget) {
    while (!budget.expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  start(options);

  constexpr int kClients = 5;
  std::atomic<int> overloaded{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ServiceClient client;
      std::string error;
      if (!client.connect(socket_path_, &error)) return;
      std::optional<Json> response =
          client.call(analyse_request(model_path_, "micsup", 700), &error);
      if (!response) return;
      ++answered;
      const Json* code = response->find("error");
      if (code != nullptr && code->is_string() &&
          code->as_string() == "overloaded")
        ++overloaded;
    });
  }
  for (std::thread& t : clients) t.join();
  // Every client got exactly one answer, and load was genuinely shed.
  EXPECT_EQ(answered.load(), kClients);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_GE(server_->stats().shed_overloaded, 1u);
}

TEST_F(ServiceDaemonTest, DeadlineExpiredInQueueIsShedNotExecuted) {
  service::ServerOptions options = base_options();
  options.executors = 1;
  options.queue_limit = 8;
  options.hooks.before_execute = [](const ServiceRequest&, Budget& budget) {
    while (!budget.expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  start(options);

  std::atomic<int> deadline_errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      ServiceClient client;
      std::string error;
      if (!client.connect(socket_path_, &error)) return;
      std::optional<Json> response =
          client.call(analyse_request(model_path_, "micsup", 300), &error);
      if (!response) return;
      const Json* code = response->find("error");
      if (code != nullptr && code->is_string() &&
          code->as_string() == "deadline")
        ++deadline_errors;
    });
  }
  for (std::thread& t : clients) t.join();
  // One request held the single executor past everyone's deadline; the
  // queued ones must be shed with the distinct `deadline` error.
  EXPECT_GE(deadline_errors.load(), 1);
  EXPECT_GE(server_->stats().shed_deadline, 1u);
}

TEST_F(ServiceDaemonTest, ClientDisconnectForceExpiresTheRequestBudget) {
  service::ServerOptions options = base_options();
  options.executors = 1;
  options.hooks.before_execute = [](const ServiceRequest&, Budget& budget) {
    while (!budget.expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  start(options);

  const auto t0 = std::chrono::steady_clock::now();
  {
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
    // A one-hour deadline: only the disconnect can release the worker.
    ASSERT_TRUE(client.send_line(
        analyse_request(model_path_, "micsup", 3'600'000).dump(), &error))
        << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // hang up mid-request
  // The worker must be released promptly -- long before the deadline.
  while (server_->stats().executed < 1) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
        << "disconnect did not cancel the in-flight request";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().disconnect_cancels, 1u);
}

TEST_F(ServiceDaemonTest, StopForceExpiresInflightWorkPromptly) {
  service::ServerOptions options = base_options();
  options.executors = 1;
  options.hooks.before_execute = [](const ServiceRequest&, Budget& budget) {
    while (!budget.expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  start(options);

  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
  ASSERT_TRUE(client.send_line(
      analyse_request(model_path_, "micsup", 3'600'000).dump(), &error))
      << error;
  while (server_->stats().admitted < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();  // must not wait out the one-hour budget
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

TEST_F(ServiceDaemonTest, ShutdownRequestUnblocksWait) {
  start(base_options());
  std::thread requester([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    roundtrip(R"({"command":"shutdown"})");
  });
  server_->wait();  // returns once the shutdown request lands
  EXPECT_TRUE(server_->shutdown_requested());
  requester.join();
}

}  // namespace
}  // namespace ftsynth
