// Service-layer benchmarks: what the warm daemon is worth.
//
// The daemon's pitch is that an engineer's edit-analyse loop stops paying
// the whole pipeline per run. These benchmarks put numbers on that, with
// cold/warm axes over the same BBW workload:
//
//   * cold process  -- a fresh cold ServiceRunner per iteration: parse,
//     synthesis, cut sets, probabilities from scratch. This is what
//     `ftsynth analyse` costs per invocation today, and what a restarted
//     daemon pays on its first request (nothing is persisted).
//   * warm daemon   -- one resident warm runner: an unchanged request on
//     unchanged model bytes is replayed from the response memo. This is
//     the steady-state per-request cost `ftsynth serve` answers with.
//   * warm recompute -- the same resident runner with the memo bypassed
//     (--verbose does that): the post-edit path, where the model cache
//     still applies but synthesis, cut sets and probability re-run.
//
// Output bytes are identical down the whole axis (the service tests
// enforce it), so the `output_bytes` counter doubles as a correctness
// canary: any divergence is a bug, not noise. The committed
// BENCH_service.json is the baseline the acceptance bar reads: the warm
// daemon must answer the BBW analyse batch >= 5x faster than a cold
// process per run (tools/compare_benchmarks.py --service-report).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "casestudy/setta.h"
#include "mdl/writer.h"
#include "service/runner.h"

namespace {

using namespace ftsynth;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceRunner;

const std::string& bbw_model_path() {
  static const std::string path = [] {
    const std::string file =
        (std::filesystem::temp_directory_path() / "ftsynth_bench_service.mdl")
            .string();
    write_mdl_file(setta::build_bbw(), file);
    return file;
  }();
  return path;
}

/// The BBW analyse batch: every annotated top event, default engine.
/// jobs = 1 on both axes so the ratio measures the warm state, not the
/// pool.
ServiceRequest analyse_request() {
  ServiceRequest request;
  request.command = "analyse";
  request.model_path = bbw_model_path();
  request.jobs = 1;
  return request;
}

void expect_clean(const ServiceResult& result, benchmark::State& state) {
  if (result.exit_code != 0) state.SkipWithError("analysis failed");
}

// Cold: process-per-run. A fresh runner pays the full pipeline each time.
void BM_ServiceBbwAnalyseColdProcess(benchmark::State& state) {
  const ServiceRequest request = analyse_request();
  std::size_t bytes = 0;
  for (auto _ : state) {
    ServiceRunner runner;
    const ServiceResult result = runner.execute(request);
    expect_clean(result, state);
    bytes = result.output.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["output_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceBbwAnalyseColdProcess)->Unit(benchmark::kMillisecond);

// Warm: the resident daemon runner. The first request (unmeasured) fills
// the model cache and the response memo; every measured one is the
// steady-state request latency `ftsynth serve` answers with.
void BM_ServiceBbwAnalyseWarmDaemon(benchmark::State& state) {
  static ServiceRunner runner([] {
    ServiceRunner::Options options;
    options.warm = true;
    options.jobs = 1;
    return options;
  }());
  const ServiceRequest request = analyse_request();
  static ServiceResult warmed = runner.execute(request);
  benchmark::DoNotOptimize(warmed);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const ServiceResult result = runner.execute(request);
    expect_clean(result, state);
    bytes = result.output.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["output_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceBbwAnalyseWarmDaemon)->Unit(benchmark::kMillisecond);

// Warm recompute: the resident runner with the response memo bypassed
// (--verbose requests are never memoised). This is what a request costs
// right after an edit invalidates the memo: the parse comes from the warm
// model cache, everything after it re-runs. Excluded from the
// speedup table (no Cold*/WarmDaemon suffix) but committed in the JSON
// so the middle layer's cost stays on the record.
void BM_ServiceBbwAnalyseWarmRecompute(benchmark::State& state) {
  static ServiceRunner runner([] {
    ServiceRunner::Options options;
    options.warm = true;
    options.jobs = 1;
    return options;
  }());
  ServiceRequest request = analyse_request();
  request.verbose = true;
  static ServiceResult warmed = runner.execute(request);
  benchmark::DoNotOptimize(warmed);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const ServiceResult result = runner.execute(request);
    expect_clean(result, state);
    bytes = result.output.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["output_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceBbwAnalyseWarmRecompute)->Unit(benchmark::kMillisecond);

// The same axis for FMEA -- the heaviest command the daemon serves (every
// derivable top event of the model).
void BM_ServiceBbwFmeaColdProcess(benchmark::State& state) {
  ServiceRequest request = analyse_request();
  request.command = "fmea";
  std::size_t bytes = 0;
  for (auto _ : state) {
    ServiceRunner runner;
    const ServiceResult result = runner.execute(request);
    expect_clean(result, state);
    bytes = result.output.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["output_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceBbwFmeaColdProcess)->Unit(benchmark::kMillisecond);

void BM_ServiceBbwFmeaWarmDaemon(benchmark::State& state) {
  static ServiceRunner runner([] {
    ServiceRunner::Options options;
    options.warm = true;
    options.jobs = 1;
    return options;
  }());
  ServiceRequest request = analyse_request();
  request.command = "fmea";
  static ServiceResult warmed = runner.execute(request);
  benchmark::DoNotOptimize(warmed);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const ServiceResult result = runner.execute(request);
    expect_clean(result, state);
    bytes = result.output.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["output_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceBbwFmeaWarmDaemon)->Unit(benchmark::kMillisecond);

}  // namespace
