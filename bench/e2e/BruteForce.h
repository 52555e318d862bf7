//===- bench/e2e/BruteForce.h - Exhaustive optimality oracle ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exhaustive enumerator of modulo schedules for small loops that
/// shares nothing with the ILP or PB formulations: it reads only the
/// dependence graph (with the graph library's ASAP/ALAP windows), the
/// machine's reservation tables, sched/Verifier and
/// sched/RegisterPressure. It confirms an expected entry (II, objective)
/// by proving that no schedule exists at any smaller II and that, at the
/// expected II, the least objective over all schedules is exactly the
/// expected value.
///
/// The candidate schedules are those the formulations admit: every start
/// time in [0, MaxTime] with MaxTime from the paper's schedule-length
/// budget (minimum schedule length - 1 + slack, rounded up to whole
/// stages). Any valid schedule can be shifted so that its earliest
/// operation starts at 0 without changing validity or any objective, so
/// only such schedules are enumerated.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_BRUTEFORCE_H
#define MODSCHED_BENCH_E2E_BRUTEFORCE_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/Problem.h"

#include <cstdint>
#include <string>

namespace e2e {

/// Outcome of one exhaustive check.
struct BruteVerdict {
  /// False when the search ran out of its node budget.
  bool Conclusive = true;
  /// True when (II, value) is exactly the optimum.
  bool Match = false;
  /// What the enumerator found instead, when it does not match.
  std::string Detail;
  /// Search nodes visited.
  int64_t Nodes = 0;
};

/// Checks that \p II is the least feasible initiation interval of \p G on
/// \p M and that \p Value is the least \p Obj at \p II.
BruteVerdict bruteForceCheck(const modsched::DependenceGraph &G,
                             const modsched::MachineModel &M,
                             modsched::Objective Obj, int II, double Value,
                             int ScheduleLengthSlack = 20,
                             int64_t NodeBudget = 400000000);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_BRUTEFORCE_H
