// Unit tests for the BDD engine and its probability evaluation.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/bdd_prob.h"

namespace ftsynth {
namespace {

TEST(Bdd, TerminalsAndVariables) {
  Bdd bdd;
  EXPECT_TRUE(bdd.is_false(Bdd::kFalse));
  EXPECT_TRUE(bdd.is_true(Bdd::kTrue));
  int x = bdd.new_var();
  Bdd::Ref fx = bdd.var(x);
  EXPECT_EQ(bdd.var(x), fx);  // unique table: same node
  EXPECT_EQ(bdd.apply_not(fx), bdd.nvar(x));
  EXPECT_EQ(bdd.node_count(fx), 1u);
}

TEST(Bdd, BooleanIdentities) {
  Bdd bdd;
  Bdd::Ref x = bdd.var(bdd.new_var());
  Bdd::Ref y = bdd.var(bdd.new_var());
  EXPECT_EQ(bdd.apply_and(x, x), x);
  EXPECT_EQ(bdd.apply_or(x, x), x);
  EXPECT_EQ(bdd.apply_and(x, bdd.apply_not(x)), Bdd::kFalse);
  EXPECT_EQ(bdd.apply_or(x, bdd.apply_not(x)), Bdd::kTrue);
  EXPECT_EQ(bdd.apply_xor(x, x), Bdd::kFalse);
  EXPECT_EQ(bdd.apply_and(x, y), bdd.apply_and(y, x));
  // De Morgan.
  EXPECT_EQ(bdd.apply_not(bdd.apply_and(x, y)),
            bdd.apply_or(bdd.apply_not(x), bdd.apply_not(y)));
  // ite(x, y, 0) == x AND y.
  EXPECT_EQ(bdd.ite(x, y, Bdd::kFalse), bdd.apply_and(x, y));
}

TEST(Bdd, EvaluateAgainstTruthTable) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  // f = (x AND y) OR (NOT x AND z)
  Bdd::Ref f = bdd.apply_or(
      bdd.apply_and(bdd.var(vx), bdd.var(vy)),
      bdd.apply_and(bdd.nvar(vx), bdd.var(vz)));
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> assignment{(bits & 1) != 0, (bits & 2) != 0,
                                 (bits & 4) != 0};
    bool expected = (assignment[0] && assignment[1]) ||
                    (!assignment[0] && assignment[2]);
    EXPECT_EQ(bdd.evaluate(f, assignment), expected) << bits;
  }
}

TEST(Bdd, SatCount) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  (void)vz;
  Bdd::Ref f = bdd.apply_or(bdd.var(vx), bdd.var(vy));
  // x OR y over three variables: 6 of 8 assignments.
  EXPECT_DOUBLE_EQ(bdd.sat_count(f), 6.0);
  EXPECT_DOUBLE_EQ(bdd.sat_count(Bdd::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(bdd.sat_count(Bdd::kFalse), 0.0);
}

TEST(Bdd, ProbabilityMatchesClosedForms) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  std::vector<double> p{0.1, 0.2};
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_and(bdd.var(vx), bdd.var(vy)), p),
              0.1 * 0.2, 1e-15);
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_or(bdd.var(vx), bdd.var(vy)), p),
              0.1 + 0.2 - 0.1 * 0.2, 1e-15);
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_not(bdd.var(vx)), p), 0.9,
              1e-15);
  EXPECT_DOUBLE_EQ(bdd_probability(bdd, Bdd::kTrue, p), 1.0);
  EXPECT_DOUBLE_EQ(bdd_probability(bdd, Bdd::kFalse, p), 0.0);
}

TEST(Bdd, ProbabilityHandlesSharedEventsExactly) {
  // f = (x AND y) OR (x AND z): P = p_x * (p_y + p_z - p_y p_z).
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  Bdd::Ref f = bdd.apply_or(bdd.apply_and(bdd.var(vx), bdd.var(vy)),
                            bdd.apply_and(bdd.var(vx), bdd.var(vz)));
  std::vector<double> p{0.5, 0.3, 0.4};
  EXPECT_NEAR(bdd_probability(bdd, f, p), 0.5 * (0.3 + 0.4 - 0.12), 1e-15);
}

TEST(Bdd, BirnbaumImportance) {
  // f = x OR y: dP/dp_x = 1 - p_y.
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  Bdd::Ref f = bdd.apply_or(bdd.var(vx), bdd.var(vy));
  std::vector<double> p{0.25, 0.4};
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, vx), 1.0 - 0.4, 1e-15);
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, vy), 1.0 - 0.25, 1e-15);
  // f = x AND y: dP/dp_x = p_y.
  Bdd::Ref g = bdd.apply_and(bdd.var(vx), bdd.var(vy));
  EXPECT_NEAR(bdd_birnbaum(bdd, g, p, vx), 0.4, 1e-15);
}

/// Property sweep: random 6-variable formulas; BDD probability must match
/// brute-force enumeration.
class BddRandomFormula : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomFormula, ProbabilityMatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  Bdd bdd;
  const int n = 6;
  for (int i = 0; i < n; ++i) bdd.new_var();

  // Build a random formula bottom-up from literals.
  std::vector<Bdd::Ref> pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back(bdd.var(i));
    pool.push_back(bdd.nvar(i));
  }
  auto pick = [&](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
  };
  for (int step = 0; step < 12; ++step) {
    Bdd::Ref a = pool[pick(pool.size())];
    Bdd::Ref b = pool[pick(pool.size())];
    pool.push_back(uniform(rng) < 0.5 ? bdd.apply_and(a, b)
                                      : bdd.apply_or(a, b));
  }
  Bdd::Ref f = pool.back();

  std::vector<double> p(n);
  for (double& value : p) value = uniform(rng);

  double brute = 0.0;
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::vector<bool> assignment(n);
    double weight = 1.0;
    for (int i = 0; i < n; ++i) {
      assignment[static_cast<std::size_t>(i)] = (bits >> i) & 1;
      weight *= assignment[static_cast<std::size_t>(i)] ? p[static_cast<std::size_t>(i)]
                                                        : 1.0 - p[static_cast<std::size_t>(i)];
    }
    if (bdd.evaluate(f, assignment)) brute += weight;
  }
  EXPECT_NEAR(bdd_probability(bdd, f, p), brute, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomFormula, ::testing::Range(0, 25));

TEST(Bdd, TablesStayCanonicalAcrossGrowth) {
  // Random functions of 14 variables, built until the manager holds more
  // than 1,024 nodes. Both tables start at 64 slots and double at half
  // load, so the unique table has doubled 6 times by then; every node an
  // operation creates (all but the 28 literal nodes) comes with its own
  // op-cache entry, so the cache has doubled at least 5 times. Each time
  // the node count passes a power of two -- the points where the unique
  // table grows -- every node must be found again by its (var, low, high),
  // every recorded operation must return its recorded Ref (the grown op
  // cache kept its entries), and every function must keep the truth table
  // its operations define, over all 2^14 rows.
  constexpr int kVars = 14;
  constexpr std::size_t kWords = (std::size_t{1} << kVars) / 64;
  constexpr std::size_t kTarget = 1024;
  using Table = std::vector<std::uint64_t>;
  enum class Op { kAnd, kOr, kXor, kNot };
  struct Applied {
    Op op;
    Bdd::Ref a, b, result;
  };

  std::vector<Table> literal(kVars, Table(kWords));
  for (int v = 0; v < kVars; ++v)
    for (std::size_t row = 0; row < kWords * 64; ++row)
      if ((row >> v) & 1u)
        literal[v][row / 64] |= std::uint64_t{1} << (row % 64);

  for (unsigned seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    Bdd bdd;
    for (int v = 0; v < kVars; ++v) bdd.new_var();
    std::vector<Bdd::Ref> roots;
    std::vector<Table> truth;  // by root index, from the operations alone
    for (int v = 0; v < kVars; ++v) {
      roots.push_back(bdd.var(v));
      truth.push_back(literal[v]);
    }
    std::vector<Applied> applied;
    auto apply = [&](Op op, Bdd::Ref a, Bdd::Ref b) {
      switch (op) {
        case Op::kAnd: return bdd.apply_and(a, b);
        case Op::kOr: return bdd.apply_or(a, b);
        case Op::kXor: return bdd.apply_xor(a, b);
        case Op::kNot: return bdd.apply_not(a);
      }
      return Bdd::kFalse;
    };

    auto check = [&]() {
      const std::size_t nodes = bdd.size();
      for (Bdd::Ref ref = 2; ref < nodes; ++ref) {
        const Bdd::Node n = bdd.node(ref);
        // ite(x, high, low) ends in a lookup of exactly <x, low, high>.
        ASSERT_EQ(bdd.ite(bdd.var(n.var), n.high, n.low), ref)
            << "seed " << seed << " ref " << ref;
      }
      for (const Applied& entry : applied)
        ASSERT_EQ(apply(entry.op, entry.a, entry.b), entry.result)
            << "seed " << seed;
      // Children are allocated before their parents, so one ascending
      // pass evaluates every node on every row.
      std::vector<Table> of(bdd.size(), Table(kWords));
      of[Bdd::kTrue].assign(kWords, ~std::uint64_t{0});
      for (Bdd::Ref ref = 2; ref < bdd.size(); ++ref) {
        const Bdd::Node n = bdd.node(ref);
        for (std::size_t w = 0; w < kWords; ++w)
          of[ref][w] = (literal[n.var][w] & of[n.high][w]) |
                       (~literal[n.var][w] & of[n.low][w]);
      }
      for (std::size_t i = 0; i < roots.size(); ++i)
        ASSERT_EQ(of[roots[i]], truth[i]) << "seed " << seed << " root " << i;
    };

    std::size_t next_check = 32;
    for (int step = 0; step < 20000 && bdd.size() - 2 <= kTarget; ++step) {
      std::uniform_int_distribution<std::size_t> pick(0, roots.size() - 1);
      const std::size_t i = pick(rng);
      const std::size_t j = pick(rng);
      const Op op = static_cast<Op>(
          std::uniform_int_distribution<int>(0, 3)(rng));
      const Bdd::Ref result = apply(op, roots[i], roots[j]);
      applied.push_back({op, roots[i], roots[j], result});
      Table table(kWords);
      for (std::size_t w = 0; w < kWords; ++w) {
        switch (op) {
          case Op::kAnd: table[w] = truth[i][w] & truth[j][w]; break;
          case Op::kOr: table[w] = truth[i][w] | truth[j][w]; break;
          case Op::kXor: table[w] = truth[i][w] ^ truth[j][w]; break;
          case Op::kNot: table[w] = ~truth[i][w]; break;
        }
      }
      roots.push_back(result);
      truth.push_back(std::move(table));
      if (bdd.size() - 2 > next_check) {
        check();
        if (HasFatalFailure()) return;
        while (bdd.size() - 2 > next_check) next_check *= 2;
      }
    }
    ASSERT_GT(bdd.size() - 2, kTarget) << "seed " << seed;
    check();
    if (HasFatalFailure()) return;
  }
}

TEST(BddOrder, ExplicitOrderPreservesSemantics) {
  // The same function under the identity and a reversed order: identical
  // truth tables and sat counts, different (but valid) diagrams.
  auto build = [](Bdd& bdd) {
    // f = (x0 AND x2) OR (x1 AND NOT x2)
    return bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(2)),
                        bdd.apply_and(bdd.var(1), bdd.nvar(2)));
  };
  Bdd plain;
  for (int i = 0; i < 3; ++i) plain.new_var();
  Bdd::Ref f_plain = build(plain);

  Bdd reordered;
  for (int i = 0; i < 3; ++i) reordered.new_var();
  reordered.set_order({2, 1, 0});
  EXPECT_EQ(reordered.level_of(2), 0);
  EXPECT_EQ(reordered.level_of(0), 2);
  Bdd::Ref f_reordered = build(reordered);

  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> assignment{(bits & 1) != 0, (bits & 2) != 0,
                                 (bits & 4) != 0};
    EXPECT_EQ(plain.evaluate(f_plain, assignment),
              reordered.evaluate(f_reordered, assignment))
        << bits;
  }
  EXPECT_EQ(plain.sat_count(f_plain), reordered.sat_count(f_reordered));
  // Under the reversed order the root must decide the variable at level 0.
  EXPECT_EQ(reordered.node(f_reordered).var, 2);
}

TEST(BddOrder, RestrictionsFollowTheInstalledOrder) {
  Bdd bdd;
  for (int i = 0; i < 3; ++i) bdd.new_var();
  bdd.set_order({1, 2, 0});
  // f = (x0 AND x1) OR x2.
  Bdd::Ref f = bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(1)),
                            bdd.var(2));
  std::vector<double> p{0.5, 0.25, 0.125};
  // Birnbaum importance of x0: P(f | x0=1) - P(f | x0=0)
  //   = (p1 + p2 - p1 p2) - p2 = p1 (1 - p2).
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, 0), 0.25 * (1.0 - 0.125), 1e-12);
  EXPECT_NEAR(bdd_probability_given(bdd, f, p, 2, true), 1.0, 1e-12);
  EXPECT_NEAR(bdd_probability_given(bdd, f, p, 2, false), 0.5 * 0.25,
              1e-12);
}

TEST(BddOrder, RejectsBadOrders) {
  Bdd bdd;
  for (int i = 0; i < 3; ++i) bdd.new_var();
  EXPECT_ANY_THROW(bdd.set_order({0, 1}));     // wrong size
  EXPECT_ANY_THROW(bdd.set_order({0, 1, 1}));  // not a permutation
  Bdd late;
  late.new_var();
  late.var(0);  // a node exists: too late to reorder
  EXPECT_ANY_THROW(late.set_order({0}));
}

}  // namespace
}  // namespace ftsynth
