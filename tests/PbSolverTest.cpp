//===- tests/PbSolverTest.cpp - CDCL pseudo-Boolean solver tests ----------===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
// Unit tests for the conflict-driven pseudo-Boolean engine: propagation
// over clauses / cardinality / general PB rows, conflict analysis on
// pigeonhole and parity instances, UNSAT cores under assumptions,
// incremental solution-improving bounds, budgets, and a brute-force
// differential fuzz on random PB instances.
//
//===----------------------------------------------------------------------===//

#include "pb/PbSolver.h"

#include "support/Cancellation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace modsched;
using namespace modsched::pb;

namespace {

std::vector<Var> makeVars(Solver &S, int N) {
  std::vector<Var> Vs;
  for (int I = 0; I < N; ++I)
    Vs.push_back(S.newVar());
  return Vs;
}

/// sum(Lits) <= Bound, via sum(~Lits) >= n - Bound.
void addAtMost(Solver &S, const std::vector<Lit> &Lits, int64_t Bound) {
  std::vector<Lit> Flipped;
  for (Lit L : Lits)
    Flipped.push_back(~L);
  ASSERT_TRUE(S.addAtLeast(Flipped, int64_t(Lits.size()) - Bound));
}

TEST(PbSolver, EmptyInstanceIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveStatus::Sat);
}

TEST(PbSolver, UnitPropagationChain) {
  Solver S;
  auto V = makeVars(S, 4);
  // a;  a -> b;  b -> c;  c -> d.
  ASSERT_TRUE(S.addClause({posLit(V[0])}));
  ASSERT_TRUE(S.addClause({negLit(V[0]), posLit(V[1])}));
  ASSERT_TRUE(S.addClause({negLit(V[1]), posLit(V[2])}));
  ASSERT_TRUE(S.addClause({negLit(V[2]), posLit(V[3])}));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  for (Var X : V)
    EXPECT_TRUE(S.modelValue(X));
  // The whole chain is root-level propagation: no decisions needed.
  EXPECT_EQ(S.stats().Decisions, 0);
}

TEST(PbSolver, ContradictoryUnitsAreRootUnsat) {
  Solver S;
  Var A = S.newVar();
  ASSERT_TRUE(S.addClause({posLit(A)}));
  EXPECT_FALSE(S.addClause({negLit(A)}));
  EXPECT_FALSE(S.okay());
  EXPECT_EQ(S.solve(), SolveStatus::Unsat);
  EXPECT_TRUE(S.unsatCore().empty());
}

TEST(PbSolver, CardinalityPropagates) {
  Solver S;
  auto V = makeVars(S, 3);
  // At least 2 of {a, b, c}; force ~a: b and c must propagate.
  ASSERT_TRUE(
      S.addAtLeast({posLit(V[0]), posLit(V[1]), posLit(V[2])}, 2));
  ASSERT_TRUE(S.addClause({negLit(V[0])}));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  EXPECT_FALSE(S.modelValue(V[0]));
  EXPECT_TRUE(S.modelValue(V[1]));
  EXPECT_TRUE(S.modelValue(V[2]));
  EXPECT_EQ(S.stats().Decisions, 0);
}

TEST(PbSolver, CardinalityDegreeEqualsSizeForcesAll) {
  Solver S;
  auto V = makeVars(S, 3);
  ASSERT_TRUE(
      S.addAtLeast({posLit(V[0]), posLit(V[1]), posLit(V[2])}, 3));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  for (Var X : V)
    EXPECT_TRUE(S.modelValue(X));
}

TEST(PbSolver, GeneralPbPropagatesHeavyCoefficient) {
  Solver S;
  auto V = makeVars(S, 3);
  // 3a + 2b + 2c >= 5: slack is 2, so a (coefficient 3) is forced.
  ASSERT_TRUE(S.addLinear(
      {{posLit(V[0]), 3}, {posLit(V[1]), 2}, {posLit(V[2]), 2}}, 5));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  EXPECT_TRUE(S.modelValue(V[0])) << "coefficient-3 literal must be forced";
  int64_t Sum = 3 * S.modelValue(V[0]) + 2 * S.modelValue(V[1]) +
                2 * S.modelValue(V[2]);
  EXPECT_GE(Sum, 5);
}

TEST(PbSolver, NegativeCoefficientsNormalize) {
  Solver S;
  auto V = makeVars(S, 2);
  // 2x - 3y >= 0  ==  2x + 3~y >= 3: ~y is forced, x stays free.
  ASSERT_TRUE(S.addLinear({{posLit(V[0]), 2}, {posLit(V[1]), -3}}, 0));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  EXPECT_FALSE(S.modelValue(V[1]));
}

TEST(PbSolver, DuplicateAndOppositeLiteralsMerge) {
  Solver S;
  auto V = makeVars(S, 2);
  // x + x + ~x + y >= 2  ==  1 + x + y >= 2  ==  x + y >= 1.
  ASSERT_TRUE(S.addLinear(
      {{posLit(V[0]), 1}, {posLit(V[0]), 1}, {negLit(V[0]), 1},
       {posLit(V[1]), 1}},
      2));
  ASSERT_TRUE(S.addClause({negLit(V[0])}));
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  EXPECT_TRUE(S.modelValue(V[1]));
}

/// Pigeonhole principle PHP(P, H): P pigeons, H holes, each pigeon in
/// some hole, each hole holds at most one pigeon. UNSAT iff P > H.
void encodePigeonhole(Solver &S, int Pigeons, int Holes,
                      std::vector<std::vector<Var>> &X) {
  X.assign(size_t(Pigeons), {});
  for (int P = 0; P < Pigeons; ++P)
    for (int H = 0; H < Holes; ++H)
      X[size_t(P)].push_back(S.newVar());
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> Row;
    for (int H = 0; H < Holes; ++H)
      Row.push_back(posLit(X[size_t(P)][size_t(H)]));
    ASSERT_TRUE(S.addClause(Row));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Col;
    for (int P = 0; P < Pigeons; ++P)
      Col.push_back(posLit(X[size_t(P)][size_t(H)]));
    addAtMost(S, Col, 1);
  }
}

TEST(PbSolver, PigeonholeUnsat) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 6, 5, X);
  EXPECT_EQ(S.solve(), SolveStatus::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0);
}

TEST(PbSolver, PigeonholeSatWhenHolesSuffice) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 5, 5, X);
  ASSERT_EQ(S.solve(), SolveStatus::Sat);
  // The model must be a perfect matching.
  for (size_t H = 0; H < 5; ++H) {
    int Used = 0;
    for (size_t P = 0; P < 5; ++P)
      Used += S.modelValue(X[P][H]);
    EXPECT_LE(Used, 1);
  }
}

/// XOR of \p A, \p B, \p C == \p Odd, as four clauses.
void addXor3(Solver &S, Var A, Var B, Var C, bool Odd) {
  for (int Mask = 0; Mask < 8; ++Mask) {
    int Ones = (Mask & 1) + ((Mask >> 1) & 1) + ((Mask >> 2) & 1);
    if ((Ones % 2 == 1) == Odd)
      continue; // Satisfying assignment, no clause.
    // Forbid this assignment.
    ASSERT_TRUE(S.addClause({Lit(A, (Mask & 1) != 0),
                             Lit(B, (Mask & 2) != 0),
                             Lit(C, (Mask & 4) != 0)}));
  }
}

TEST(PbSolver, ParityChainUnsat) {
  // x0^x1^x2 = 1, x2^x3^x4 = 1, x4^x5^x0 = 1, and all of x1,x3,x5
  // false with x0^x2^x4 forced even: the xor sum is contradictory.
  Solver S;
  auto V = makeVars(S, 6);
  addXor3(S, V[0], V[1], V[2], true);
  addXor3(S, V[2], V[3], V[4], true);
  addXor3(S, V[4], V[5], V[0], true);
  // Sum of the three equations: x1 ^ x3 ^ x5 = 1 is implied.
  ASSERT_TRUE(S.addClause({negLit(V[1])}));
  ASSERT_TRUE(S.addClause({negLit(V[3])}));
  ASSERT_TRUE(S.addClause({negLit(V[5])}));
  EXPECT_EQ(S.solve(), SolveStatus::Unsat);
}

TEST(PbSolver, AssumptionsFlipVerdictIncrementally) {
  Solver S;
  auto V = makeVars(S, 3);
  // a -> b, b -> c, ~c under assumption: a must be false.
  ASSERT_TRUE(S.addClause({negLit(V[0]), posLit(V[1])}));
  ASSERT_TRUE(S.addClause({negLit(V[1]), posLit(V[2])}));
  ASSERT_TRUE(S.addClause({negLit(V[2])}));
  EXPECT_EQ(S.solve({posLit(V[0])}), SolveStatus::Unsat);
  // The core names the failed assumption.
  ASSERT_EQ(S.unsatCore().size(), 1u);
  EXPECT_EQ(S.unsatCore()[0], posLit(V[0]));
  // Same database, opposite assumption: satisfiable.
  EXPECT_EQ(S.solve({negLit(V[0])}), SolveStatus::Sat);
  EXPECT_FALSE(S.modelValue(V[0]));
  // And with no assumptions at all.
  EXPECT_EQ(S.solve(), SolveStatus::Sat);
}

TEST(PbSolver, UnsatCoreIsSubsetOfAssumptions) {
  Solver S;
  auto V = makeVars(S, 5);
  // a and b together are contradictory; c, d, e are free.
  ASSERT_TRUE(S.addClause({negLit(V[0]), negLit(V[1])}));
  std::vector<Lit> Assumps = {posLit(V[2]), posLit(V[0]), posLit(V[3]),
                              posLit(V[1]), posLit(V[4])};
  ASSERT_EQ(S.solve(Assumps), SolveStatus::Unsat);
  const std::vector<Lit> &Core = S.unsatCore();
  EXPECT_FALSE(Core.empty());
  EXPECT_LE(Core.size(), 2u);
  for (Lit L : Core)
    EXPECT_TRUE(L == posLit(V[0]) || L == posLit(V[1]))
        << "core leaked an irrelevant assumption";
}

TEST(PbSolver, SelectorGatedBoundTightening) {
  // Solution-improving descent: minimize sum(x) subject to
  // sum(x over any window of 3) >= 1 on 9 variables, by adding
  // selector-gated upper bounds and assuming the selector off.
  Solver S;
  auto V = makeVars(S, 9);
  for (int I = 0; I + 3 <= 9; I += 3) {
    std::vector<Lit> Window;
    for (int J = I; J < I + 3; ++J)
      Window.push_back(posLit(V[size_t(J)]));
    ASSERT_TRUE(S.addAtLeast(Window, 1));
  }
  std::vector<Lit> Assumps;
  int64_t Best = -1;
  for (;;) {
    if (S.solve(Assumps) != SolveStatus::Sat)
      break;
    int64_t Cost = 0;
    for (Var X : V)
      Cost += S.modelValue(X);
    if (Best >= 0) {
      EXPECT_LT(Cost, Best) << "bound constraint failed to tighten";
    }
    Best = Cost;
    // Gate "sum(x) <= Cost - 1" behind a fresh selector:
    // sum(~x) + n * sel >= n - Cost + 1.
    Var Sel = S.newVar();
    std::vector<std::pair<Lit, int64_t>> Terms;
    for (Var X : V)
      Terms.push_back({negLit(X), 1});
    Terms.push_back({posLit(Sel), 9});
    ASSERT_TRUE(S.addLinear(Terms, 9 - Cost + 1));
    Assumps.push_back(negLit(Sel));
  }
  EXPECT_EQ(Best, 3) << "optimum of the window cover is one per window";
}

TEST(PbSolver, PinnedSearchAcrossReductions) {
  // Pins the solver's own search, independent of any formulation: a
  // fixed-seed random 3-SAT instance on 150 variables plus one
  // cardinality row of degree 6 and one wide-coefficient linear row,
  // minimized by a selector-gated descent on sum(x). The run takes five
  // learned-database reductions, all above decision level 0, and an
  // ungated bound is appended between two solves after learned clauses
  // exist, so later reductions move an original row too. Storage and speed
  // changes must leave every value below as it is; a change to any of
  // them means the search itself changed.
  const int N = 150;
  std::mt19937 Rng(21); // mt19937's raw output is fixed by the standard.
  auto Pick = [&](uint32_t Mod) { return uint32_t(Rng() % Mod); };
  Solver S;
  auto V = makeVars(S, N);
  auto RandLit = [&] {
    Var X = V[Pick(uint32_t(N))]; // Draw the variable before the sign.
    return Lit(X, Pick(2) != 0);
  };
  for (int C = 0; C < 580; ++C)
    ASSERT_TRUE(S.addClause({RandLit(), RandLit(), RandLit()}));
  std::vector<Lit> CardLits;
  for (int K = 0; K < 20; ++K)
    CardLits.push_back(posLit(V[Pick(uint32_t(N))]));
  ASSERT_TRUE(S.addAtLeast(CardLits, 6));
  std::vector<std::pair<Lit, int64_t>> Wide;
  for (int K = 0; K < 24; ++K)
    Wide.push_back({RandLit(), int64_t(1 + Pick(1000))});
  ASSERT_TRUE(S.addLinear(Wide, 6000));

  // sum(x) <= Bound, as sum(~x) >= N - Bound, optionally gated by Sel.
  auto BoundTerms = [&](Var Sel) {
    std::vector<std::pair<Lit, int64_t>> Terms;
    for (Var X : V)
      Terms.push_back({negLit(X), 1});
    if (Sel >= 0)
      Terms.push_back({posLit(Sel), int64_t(N)});
    return Terms;
  };
  int64_t FirstCost = -1;
  int UngatedAdds = 0;

  std::vector<std::string> Verdicts;
  std::vector<int64_t> Costs;
  std::vector<Lit> Assumps;
  for (;;) {
    SolveStatus St = S.solve(Assumps);
    Verdicts.push_back(toString(St));
    if (St != SolveStatus::Sat)
      break;
    int64_t Cost = 0;
    for (Var X : V)
      Cost += S.modelValue(X);
    Costs.push_back(Cost);
    if (FirstCost < 0)
      FirstCost = Cost;
    if (UngatedAdds == 0 && S.stats().Conflicts >= 3000) {
      ++UngatedAdds;
      ASSERT_TRUE(S.addLinear(BoundTerms(-1), int64_t(N) - FirstCost));
    }
    Var Sel = S.newVar();
    ASSERT_TRUE(S.addLinear(BoundTerms(Sel), int64_t(N) - Cost + 1));
    Assumps.push_back(negLit(Sel));
  }

  EXPECT_EQ(UngatedAdds, 1);
  std::vector<std::string> ExpectVerdicts(14, "sat");
  ExpectVerdicts.push_back("unsat");
  EXPECT_EQ(Verdicts, ExpectVerdicts);
  std::vector<int64_t> ExpectCosts;
  for (int64_t C = 66; C >= 53; --C)
    ExpectCosts.push_back(C);
  EXPECT_EQ(Costs, ExpectCosts);
  std::vector<Var> CoreVars;
  for (Lit L : S.unsatCore()) {
    EXPECT_TRUE(L.negated()) << "core literal is not an assumption";
    CoreVars.push_back(L.var());
  }
  EXPECT_EQ(CoreVars,
            (std::vector<Var>{155, 156, 157, 158, 159, 160, 161, 162, 163}));
  const SolverStats &St = S.stats();
  EXPECT_EQ(St.Conflicts, 8139);
  EXPECT_EQ(St.Propagations, 256272);
  EXPECT_EQ(St.Decisions, 10206);
  EXPECT_EQ(St.Restarts, 42);
  EXPECT_EQ(St.Learned, 8139);
}

TEST(PbSolver, ConflictLimitReportsLimit) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 9, 8, X);
  S.ConflictLimit = 3;
  SolveStatus St = S.solve();
  EXPECT_EQ(St, SolveStatus::Limit);
  S.ConflictLimit = -1;
  EXPECT_EQ(S.solve(), SolveStatus::Unsat);
}

TEST(PbSolver, CancellationWins) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 9, 8, X);
  CancellationSource Src;
  S.Cancel = Src.token();
  Src.cancel();
  EXPECT_EQ(S.solve(), SolveStatus::Cancelled);
}

TEST(PbSolver, ExpiredDeadlineReportsLimit) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 9, 8, X);
  S.DeadlineSeconds = 0.0; // Already expired on the monotonic clock.
  EXPECT_EQ(S.solve(), SolveStatus::Limit);
}

TEST(PbSolver, ExportRowsRecordNormalizedConstraints) {
  Solver S;
  auto V = makeVars(S, 2);
  ASSERT_TRUE(S.addLinear({{posLit(V[0]), -2}, {posLit(V[1]), 3}}, 1));
  ASSERT_EQ(S.exportRows().size(), 1u);
  const ExportRow &R = S.exportRows()[0];
  // -2x + 3y >= 1 normalizes to 2~x + 3y >= 3.
  ASSERT_EQ(R.Terms.size(), 2u);
  EXPECT_EQ(R.Degree, 3);
  for (const auto &T : R.Terms) {
    if (T.first == negLit(V[0])) {
      EXPECT_EQ(T.second, 2);
    } else if (T.first == posLit(V[1])) {
      EXPECT_EQ(T.second, 3);
    } else {
      ADD_FAILURE() << "unexpected literal in export row";
    }
  }
}

//===----------------------------------------------------------------------===//
// Brute-force differential fuzz
//===----------------------------------------------------------------------===//

struct RandomRow {
  std::vector<std::pair<int, int64_t>> Terms; // (var, signed coeff)
  int64_t Degree;
};

/// True when \p Assignment (bit I = var I) satisfies every row.
bool satisfiesAll(const std::vector<RandomRow> &Rows, uint32_t Assignment) {
  for (const RandomRow &R : Rows) {
    int64_t Sum = 0;
    for (const auto &T : R.Terms)
      if ((Assignment >> T.first) & 1)
        Sum += T.second;
    if (Sum < R.Degree)
      return false;
  }
  return true;
}

TEST(PbSolver, RandomInstancesMatchBruteForce) {
  std::mt19937_64 Rng(20260806);
  int SatCount = 0, UnsatCount = 0;
  for (int Round = 0; Round < 300; ++Round) {
    int NumVars = 3 + int(Rng() % 8); // 3..10 variables.
    int NumRows = 2 + int(Rng() % 10);
    std::vector<RandomRow> Rows;
    for (int I = 0; I < NumRows; ++I) {
      RandomRow R;
      int Width = 1 + int(Rng() % 4);
      int64_t MaxPos = 0;
      for (int J = 0; J < Width; ++J) {
        int VarI = int(Rng() % uint64_t(NumVars));
        int64_t C = 1 + int64_t(Rng() % 4);
        if (Rng() % 3 == 0)
          C = -C;
        else
          MaxPos += C;
        R.Terms.push_back({VarI, C});
      }
      // Degrees near the achievable maximum mix SAT and UNSAT.
      R.Degree = int64_t(Rng() % uint64_t(MaxPos + 3)) - 1;
      Rows.push_back(R);
    }

    Solver S;
    std::vector<Var> Vars = makeVars(S, NumVars);
    bool RootOk = true;
    for (const RandomRow &R : Rows) {
      std::vector<std::pair<Lit, int64_t>> Terms;
      for (const auto &T : R.Terms)
        Terms.push_back({posLit(Vars[size_t(T.first)]), T.second});
      if (!S.addLinear(Terms, R.Degree)) {
        RootOk = false;
        break;
      }
    }

    bool BruteSat = false;
    for (uint32_t A = 0; A < (1u << NumVars) && !BruteSat; ++A)
      BruteSat = satisfiesAll(Rows, A);

    if (!RootOk) {
      EXPECT_FALSE(BruteSat) << "root conflict on a satisfiable instance "
                             << "(round " << Round << ")";
      ++UnsatCount;
      continue;
    }
    SolveStatus St = S.solve();
    if (BruteSat) {
      ASSERT_EQ(St, SolveStatus::Sat) << "round " << Round;
      uint32_t A = 0;
      for (int V = 0; V < NumVars; ++V)
        A |= uint32_t(S.modelValue(Vars[size_t(V)])) << V;
      EXPECT_TRUE(satisfiesAll(Rows, A))
          << "model violates a constraint (round " << Round << ")";
      ++SatCount;
    } else {
      ASSERT_EQ(St, SolveStatus::Unsat) << "round " << Round;
      ++UnsatCount;
    }
  }
  // The generator must exercise both verdicts.
  EXPECT_GT(SatCount, 30);
  EXPECT_GT(UnsatCount, 30);
}

TEST(PbSolver, RandomCardinalityInstancesMatchBruteForce) {
  std::mt19937_64 Rng(987654321);
  for (int Round = 0; Round < 200; ++Round) {
    int NumVars = 4 + int(Rng() % 7);
    int NumRows = 3 + int(Rng() % 8);
    std::vector<RandomRow> Rows;
    for (int I = 0; I < NumRows; ++I) {
      RandomRow R;
      int Width = 2 + int(Rng() % 4);
      for (int J = 0; J < Width; ++J) {
        int VarI = int(Rng() % uint64_t(NumVars));
        R.Terms.push_back({VarI, (Rng() % 2) ? int64_t(1) : int64_t(-1)});
      }
      R.Degree = int64_t(Rng() % uint64_t(Width + 1)) - int64_t(Width / 2);
      Rows.push_back(R);
    }

    Solver S;
    std::vector<Var> Vars = makeVars(S, NumVars);
    bool RootOk = true;
    for (const RandomRow &R : Rows) {
      std::vector<std::pair<Lit, int64_t>> Terms;
      for (const auto &T : R.Terms)
        Terms.push_back({posLit(Vars[size_t(T.first)]), T.second});
      if (!S.addLinear(Terms, R.Degree)) {
        RootOk = false;
        break;
      }
    }

    bool BruteSat = false;
    for (uint32_t A = 0; A < (1u << NumVars) && !BruteSat; ++A)
      BruteSat = satisfiesAll(Rows, A);

    if (!RootOk) {
      EXPECT_FALSE(BruteSat) << "round " << Round;
      continue;
    }
    SolveStatus St = S.solve();
    EXPECT_EQ(St, BruteSat ? SolveStatus::Sat : SolveStatus::Unsat)
        << "round " << Round;
  }
}

TEST(PbSolver, StatsAccumulateAcrossSolves) {
  Solver S;
  std::vector<std::vector<Var>> X;
  encodePigeonhole(S, 6, 5, X);
  ASSERT_EQ(S.solve(), SolveStatus::Unsat);
  int64_t C1 = S.stats().Conflicts;
  EXPECT_GT(C1, 0);
  EXPECT_GT(S.stats().Propagations, 0);
  // A second solve on the (now root-unsat) database is free.
  ASSERT_EQ(S.solve(), SolveStatus::Unsat);
  EXPECT_EQ(S.stats().Conflicts, C1);
}

} // namespace
