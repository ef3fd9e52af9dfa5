// Concurrency stress tests for the shared-state primitives of the
// parallel analysis engine: DiagnosticSink under concurrent reporting,
// Budget's shared deadline latch, the work-stealing ThreadPool and the
// structured parallel loops, and the batch-level parallel stages that
// must stay bit-identical to their serial counterparts.
//
// These suites (Concurrency*) are the ThreadSanitizer surface: CI runs
// them under -fsanitize=thread, so keep every cross-thread interaction
// here data-race-free by construction, not by luck.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/batch.h"
#include "analysis/cutsets.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "core/budget.h"
#include "core/diagnostics.h"
#include "core/parallel.h"
#include "core/symbol.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "failure/failure_class.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"
#include "sim/monte_carlo.h"

namespace ftsynth {
namespace {

// ---------------------------------------------------------------------------
// DiagnosticSink: one shared sink hammered from many threads.

TEST(ConcurrencySink, CountsStayExactUnderContention) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kErrorsPerThread = 100;
  constexpr std::size_t kWarningsPerThread = 100;
  constexpr std::size_t kCap = 50;

  DiagnosticSink sink(kCap);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (std::size_t i = 0; i < kErrorsPerThread; ++i)
        sink.error(ErrorKind::kAnalysis,
                   "error " + std::to_string(t * 1000 + i));
      for (std::size_t i = 0; i < kWarningsPerThread; ++i)
        sink.warning(ErrorKind::kAnalysis,
                     "warning " + std::to_string(t * 1000 + i));
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every error was counted; only kCap were retained; no warning was
  // dropped or double-counted.
  EXPECT_EQ(sink.error_count(), kThreads * kErrorsPerThread);
  EXPECT_EQ(sink.warning_count(), kThreads * kWarningsPerThread);
  EXPECT_EQ(sink.dropped(), kThreads * kErrorsPerThread - kCap);
  EXPECT_TRUE(sink.saturated());
  EXPECT_EQ(sink.diagnostics().size(), kCap + kThreads * kWarningsPerThread);
  EXPECT_FALSE(sink.render_table().empty());
}

TEST(ConcurrencySink, AccessorsAreSafeWhileReporting) {
  DiagnosticSink sink(1000);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      // The values race with the writers; the point is that reading them
      // concurrently is well-defined (TSan-clean) and never tears.
      (void)sink.error_count();
      (void)sink.warning_count();
      (void)sink.saturated();
      (void)sink.empty();
      (void)sink.dropped();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 200; ++i)
        sink.warning(ErrorKind::kParse, "w" + std::to_string(i));
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(sink.warning_count(), 4u * 200u);
}

// ---------------------------------------------------------------------------
// Budget: the shared deadline latch.

TEST(ConcurrencyBudget, ForceExpirePropagatesToAllCopies) {
  Budget original;
  original.set_deadline_ms(60000);  // far away: only the latch can fire
  Budget copy_a = original;
  Budget copy_b = copy_a;

  EXPECT_FALSE(original.expired());
  EXPECT_FALSE(copy_a.expired());

  copy_b.force_expire();
  EXPECT_TRUE(original.expired());
  EXPECT_TRUE(copy_a.expired());
  EXPECT_TRUE(copy_b.expired());
}

TEST(ConcurrencyBudget, CopiesTakenBeforeArmingDoNotShareTheLatch) {
  Budget original;
  Budget detached = original;  // copied before set_deadline(): independent
  original.set_deadline_ms(60000);
  original.force_expire();
  EXPECT_TRUE(original.expired());
  EXPECT_FALSE(detached.expired());
}

TEST(ConcurrencyBudget, ManyThreadsObserveOneExpiry) {
  Budget budget;
  budget.set_deadline_ms(5);
  constexpr int kThreads = 8;
  std::vector<Budget> copies(kThreads, budget);
  std::atomic<int> observed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread polls its own copy in a hot loop, as an engine would.
      while (!copies[static_cast<std::size_t>(t)].poll())
        std::this_thread::yield();
      observed.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(observed.load(), kThreads);
  EXPECT_TRUE(budget.expired());  // the latch reached the original too
}

TEST(ConcurrencyBudget, OneObjectPolledFromManyThreads) {
  Budget budget;
  budget.set_deadline_ms(60000);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load() && !budget.poll()) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  budget.force_expire();  // all pollers unwind through the latch
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  EXPECT_TRUE(budget.expired());
}

std::vector<Deviation> bbw_batch_tops(const Model& model, int repeats) {
  std::vector<Deviation> tops;
  for (int r = 0; r < repeats; ++r) {
    for (const std::string& top : setta::bbw_top_events())
      tops.push_back(parse_deviation(top, model.registry()));
  }
  return tops;
}

/// One budget armed once and copied into every stage, so synthesis, the
/// cut-set engines and the probability pass all share a single latch --
/// exactly how the CLI and the daemon wire a request budget.
Budget arm_batch_budget(BatchOptions& options, long deadline_ms) {
  Budget budget;
  budget.set_deadline_ms(deadline_ms);
  options.synthesis.budget = budget;
  options.analysis.cut_sets.budget = budget;
  options.analysis.probability.budget = budget;
  return budget;
}

TEST(ConcurrencyBudget, ForceExpireMidBatchReleasesAllWorkersPromptly) {
  // The daemon's cancellation path: a client disconnect force_expires the
  // request budget while a batch holds every pool worker. ALL workers
  // must unwind through the shared latch promptly -- nobody may sleep out
  // the hour-long nominal deadline.
  Model model = setta::build_bbw();
  const std::vector<Deviation> tops = bbw_batch_tops(model, 3);

  BatchOptions options;
  DiagnosticSink sink;
  options.synthesis.sink = &sink;  // degraded mode: cut short, don't throw
  Budget shared = arm_batch_budget(options, 3'600'000);

  ThreadPool pool(4);
  const auto t0 = std::chrono::steady_clock::now();
  std::thread killer([&shared] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    shared.force_expire();
  });
  BatchResult result = analyse_batch(model, tops, options, &pool);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  killer.join();

  // Promptness: the latch fired ~5ms in; finishing the whole batch must
  // take cut-short time, not analysis time (and never the deadline).
  EXPECT_LT(elapsed, std::chrono::seconds(60));
  ASSERT_EQ(result.items.size(), tops.size());
  // Items that ran after the expiry surface as flagged partial results,
  // never as crashes or missing slots. With 48 items over 5 workers the
  // expiry is guaranteed to land mid-batch.
  std::size_t flagged = 0;
  for (const BatchItem& item : result.items) {
    if (item.error) continue;  // strict-mode style failures are still orderly
    if (item.analysis.has_value() && item.analysis->cut_sets.deadline_exceeded)
      ++flagged;
  }
  EXPECT_GE(flagged, 1u);
}

TEST(ConcurrencyBudget, ExpiredBudgetPartialFlagsMatchSerialUnderThePool) {
  // Determinism of the degraded path: with the shared budget expired
  // before the batch starts, the pooled run must produce the same trees,
  // the same partial cut sets, the same deadline flags and the same
  // per-item diagnostics as the serial loop -- a cancelled daemon request
  // reports exactly what a cancelled CLI run would have.
  Model model = setta::build_bbw();
  const std::vector<Deviation> tops = bbw_batch_tops(model, 1);

  BatchOptions options;
  DiagnosticSink sink;
  options.synthesis.sink = &sink;
  Budget shared = arm_batch_budget(options, 3'600'000);
  shared.force_expire();

  BatchResult serial = analyse_batch(model, tops, options, nullptr);
  ThreadPool pool(4);
  BatchResult pooled = analyse_batch(model, tops, options, &pool);

  ASSERT_EQ(serial.items.size(), tops.size());
  ASSERT_EQ(pooled.items.size(), tops.size());
  for (std::size_t i = 0; i < tops.size(); ++i) {
    const BatchItem& a = serial.items[i];
    const BatchItem& b = pooled.items[i];
    EXPECT_EQ(static_cast<bool>(a.error), static_cast<bool>(b.error)) << i;
    ASSERT_EQ(a.tree.has_value(), b.tree.has_value()) << i;
    if (a.tree && b.tree) {
      EXPECT_EQ(a.tree->to_text(), b.tree->to_text()) << i;
    }
    ASSERT_EQ(a.analysis.has_value(), b.analysis.has_value()) << i;
    if (a.analysis && b.analysis) {
      EXPECT_EQ(a.analysis->cut_sets.deadline_exceeded,
                b.analysis->cut_sets.deadline_exceeded)
          << i;
      EXPECT_EQ(a.analysis->cut_sets.truncated, b.analysis->cut_sets.truncated)
          << i;
      EXPECT_EQ(a.analysis->cut_sets.to_string(),
                b.analysis->cut_sets.to_string())
          << i;
    }
    ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << i;
    for (std::size_t d = 0; d < a.diagnostics.size(); ++d) {
      EXPECT_EQ(a.diagnostics[d].to_string(), b.diagnostics[d].to_string())
          << i << ":" << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Symbol interning and gate names: per-thread caches over one process table.

TEST(Concurrency, InternIsCanonicalAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kNames = 1500;
  std::vector<std::vector<Symbol>> interned(
      kThreads, std::vector<Symbol>(kNames));
  std::vector<int> wrong_gates(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread interns the same names from a different start, so
      // first insertions race with lookups of the same text.
      for (int k = 0; k < kNames; ++k) {
        const int i = (k + t * kNames / kThreads) % kNames;
        interned[t][i] = Symbol("intern-race-" + std::to_string(i));
      }
      // Trees of different sizes per thread, twice, so the per-thread gate
      // name table both grows and is reused.
      for (int round = 0; round < 2; ++round) {
        FaultTree tree("t");
        FtNode* leaf = tree.add_basic(Symbol("intern-race-leaf"), 1e-6, "", "");
        const int gates = 500 + 150 * t + 300 * round;
        for (int g = 1; g <= gates; ++g) {
          const FtNode* gate = tree.add_gate(GateKind::kOr, "", {leaf});
          if (gate->name() != Symbol("G" + std::to_string(g)) ||
              gate->name().view() != "G" + std::to_string(g))
            ++wrong_gates[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong_gates[t], 0) << "thread " << t;
    for (int i = 0; i < kNames; ++i) {
      ASSERT_EQ(interned[t][i], interned[0][i]) << t << ":" << i;
      ASSERT_EQ(interned[t][i].view(), "intern-race-" + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / parallel_for / parallel_map.

TEST(ConcurrencyPool, SubmittedTasksAllRun) {
  constexpr int kTasks = 500;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
    // The destructor drains the queues before joining.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ConcurrencyPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(&pool, kCount,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i)
    ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ConcurrencyPool, NullPoolIsAPlainSerialLoop) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // unsynchronised: must be serial
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ConcurrencyPool, ExceptionsPropagateAfterAllIterationsRan) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      parallel_for(&pool, kCount,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 123) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // No early abort: the loop completes (budget latches, not cancellation,
  // make post-error work cheap), so results in other slots stay valid.
  EXPECT_EQ(ran.load(), kCount);
}

TEST(ConcurrencyPool, NestedLoopsDoNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::array<std::atomic<int>, 8>> hits(8);
  parallel_for(&pool, 8, [&](std::size_t i) {
    parallel_for(&pool, 8,
                 [&](std::size_t j) { hits[i][j].fetch_add(1); });
  });
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) ASSERT_EQ(hits[i][j].load(), 1);
}

TEST(ConcurrencyPool, ParallelMapCollectsInIndexOrder) {
  ThreadPool pool(4);
  std::vector<std::size_t> squares =
      parallel_map(&pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], i * i);
}

TEST(ConcurrencyPool, MoveOnlyResultsWork) {
  ThreadPool pool(2);
  std::vector<std::unique_ptr<int>> results = parallel_map(
      &pool, 32,
      [](std::size_t i) { return std::make_unique<int>(static_cast<int>(i)); });
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(*results[i], static_cast<int>(i));
}

// ---------------------------------------------------------------------------
// Parallel stages vs their serial twins.

TEST(ConcurrencyMonteCarlo, ShardedRunIsIdenticalWithAndWithoutPool) {
  Model model = setta::build_bbw();
  const Deviation top{model.registry().omission(), Symbol("brake_force_fl")};
  MonteCarloOptions options;
  options.trials = 2000;
  options.shards = 16;
  options.probability.mission_time_hours = 1000.0;

  MonteCarloResult serial = simulate_top_event(model, top, options);
  ThreadPool pool(4);
  MonteCarloResult pooled = simulate_top_event(model, top, options, &pool);

  EXPECT_EQ(pooled.trials, serial.trials);
  EXPECT_EQ(pooled.occurrences, serial.occurrences);
  EXPECT_EQ(pooled.estimate, serial.estimate);
  EXPECT_EQ(pooled.std_error, serial.std_error);
}

// ---------------------------------------------------------------------------
// Cut sets under batch-level --jobs: each tree on one worker, each worker
// with its own diagram manager.

FaultTree synthesise_replicated(int channels, int stages) {
  synthetic::ReplicatedConfig config;
  config.channels = channels;
  config.stages = stages;
  static std::deque<Model> keep_alive;  // trees point into their models
  static std::mutex keep_alive_mutex;
  std::lock_guard<std::mutex> lock(keep_alive_mutex);
  keep_alive.push_back(synthetic::build_replicated(config));
  return Synthesiser(keep_alive.back()).synthesise("Omission-sink");
}

TEST(ConcurrencyZbddConvert, ByteIdentityMatrixAcrossJobsEnginesOrders) {
  // The acceptance matrix: a batch of overlapping trees, every engine x
  // order policy, --jobs {1, 2, 8}. Trees run and reorder concurrently;
  // every item must produce the serial item's bytes.
  auto trees = [] {
    std::vector<FaultTree> out;
    for (const auto& [channels, stages] :
         std::vector<std::pair<int, int>>{{3, 10}, {2, 12}, {3, 8}, {4, 5}})
      out.push_back(synthesise_replicated(channels, stages));
    return out;
  };
  for (CutSetEngine engine :
       {CutSetEngine::kMicsup, CutSetEngine::kMocus, CutSetEngine::kZbdd}) {
    for (OrderPolicy order : {OrderPolicy::kStatic, OrderPolicy::kSift}) {
      BatchOptions options;
      options.analysis.cut_sets.engine = engine;
      options.analysis.cut_sets.order = order;
      const BatchResult serial = analyse_trees(trees(), {}, options, nullptr);
      for (int jobs : {2, 8}) {
        ThreadPool pool(jobs);
        const BatchResult pooled = analyse_trees(trees(), {}, options, &pool);
        ASSERT_EQ(pooled.items.size(), serial.items.size());
        for (std::size_t i = 0; i < serial.items.size(); ++i) {
          const CutSetAnalysis& a = serial.items[i].analysis->cut_sets;
          const CutSetAnalysis& b = pooled.items[i].analysis->cut_sets;
          EXPECT_EQ(b.to_string(), a.to_string())
              << "engine=" << static_cast<int>(engine)
              << " order=" << to_string(order) << " jobs=" << jobs
              << " item=" << i;
          EXPECT_EQ(b.truncated, a.truncated);
        }
      }
    }
  }
}

TEST(ConcurrencyZbddConvert, ForceExpireMidConversionDegradesCleanly) {
  // A cancellation from another thread racing the sifted conversion:
  // whenever the latch fires, the run must come back flagged (or
  // complete, if the race was lost) -- never crash or corrupt the manager.
  FaultTree tree = synthesise_replicated(3, 18);
  const CutSetAnalysis reference = compute_cut_sets(
      tree, [] {
        CutSetOptions o;
        o.engine = CutSetEngine::kZbdd;
        return o;
      }());

  for (int delay_us : {0, 200, 1000, 5000}) {
    CutSetOptions options;
    options.engine = CutSetEngine::kZbdd;
    options.order = OrderPolicy::kSift;
    options.budget.set_deadline_ms(3'600'000);
    std::thread killer([&options, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      options.budget.force_expire();
    });
    const CutSetAnalysis analysis = compute_cut_sets(tree, options);
    killer.join();
    if (analysis.deadline_exceeded) {
      EXPECT_TRUE(analysis.truncated) << delay_us;
    } else {
      // The conversion won the race: the result must be the clean one.
      EXPECT_EQ(analysis.to_string(), reference.to_string()) << delay_us;
    }
  }
}

TEST(ConcurrencyMonteCarlo, ShardCountChangesTheStreamButNotValidity) {
  // Different shard counts are different (all valid) sample sequences;
  // the estimate is a function of (seed, shards, trials), never of the
  // executing thread count.
  Model model = setta::build_bbw();
  const Deviation top{model.registry().omission(), Symbol("brake_force_fl")};
  MonteCarloOptions options;
  options.trials = 1000;
  options.probability.mission_time_hours = 1000.0;

  options.shards = 4;
  MonteCarloResult four_a = simulate_top_event(model, top, options);
  ThreadPool pool(2);
  MonteCarloResult four_b = simulate_top_event(model, top, options, &pool);
  EXPECT_EQ(four_a.occurrences, four_b.occurrences);

  options.shards = 1;
  MonteCarloResult one = simulate_top_event(model, top, options);
  EXPECT_EQ(one.trials, four_a.trials);
  // (one.occurrences may legitimately differ from four_a.occurrences.)
}

}  // namespace
}  // namespace ftsynth
