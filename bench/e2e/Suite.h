//===- bench/e2e/Suite.h - Loop suite, expected verdicts --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the end-to-end benchmark and the checks on its outputs.
///
/// Loops come from the kernel library (those with at most 14 ops) and
/// from workloads::generateLoop, drawn with the benchmark's own size
/// bands from a suite seed; all run on MachineModel::cydraLike() with
/// structured dependences. generateSuite is not used: with LargeCap < 22
/// its large band asserts in Rng::nextInRange (inverted range).
///
/// Every decided verdict is re-checked here: the schedule passes
/// sched/Verifier, the reported objective equals the one
/// sched/RegisterPressure recomputes, II >= MII, and II and objective
/// equal the committed expected entry (bench/e2e/expected/).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_SUITE_H
#define MODSCHED_BENCH_E2E_SUITE_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/ModuloSchedule.h"
#include "sched/Problem.h"
#include "support/Rng.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Per-request budgets of every workload: the node budget censors
/// deterministically; the wall-clock limit is far above any solve and
/// must never bind (a wall-clock timeout counts as a failure).
inline constexpr int64_t IlpNodeBudget = 200;
inline constexpr int64_t PbConflictBudget = 20000;
inline constexpr double WallClockLimitSeconds = 30.0;

/// The four objectives of the paper's evaluation, in record order.
const std::vector<modsched::Objective> &suiteObjectives();

/// Lower-case objective name used in record ids, frames and metric
/// names ("noobj", "minreg", "minbuff", "minlife").
const char *objectiveName(modsched::Objective Obj);

/// Loops of the sweeps: the kernels with <= 14 ops interleaved with
/// synthetic loops (60% with 3-10 ops, 40% with 10-14) drawn from
/// \p SuiteSeed; the first \p Count of that list.
std::vector<modsched::DependenceGraph>
sweepLoops(const modsched::MachineModel &M, uint64_t SuiteSeed, int Count);

/// The service pool: the kernels with <= 14 ops, then synthetic loops
/// with 3-10 ops from their own stream; the first \p Count.
std::vector<modsched::DependenceGraph>
poolLoops(const modsched::MachineModel &M, uint64_t SuiteSeed, int Count);

/// Objective assigned to pool entry \p Index (round robin).
modsched::Objective entryObjective(int Index);

/// An isomorphic copy of \p G: operations renumbered by a random
/// permutation and renamed, flow and pure edges inserted in random
/// order (the relabeler of tests/ProblemHashTest.cpp). Solvers must
/// give it the same II and objective, and the solution cache must hit.
modsched::DependenceGraph relabelGraph(const modsched::DependenceGraph &G,
                                       modsched::Rng &R);

/// Record id of loop \p Name under \p Obj: "<name>/<objective>".
std::string recordId(const std::string &Name, modsched::Objective Obj);

/// How a solve ended. Decided: Ok. Undecided (censored by a
/// deterministic budget): NodeLimit, Censored (an LP gave up on its
/// pivot budget). Failed: Timeout (the wall clock bound). Unsolved: no
/// schedule within MII + MaxIiIncrease, wrong unless expected.
enum class Status { Ok, NodeLimit, Censored, Timeout, Unsolved };

const char *statusName(Status S);
std::optional<Status> parseStatus(const std::string &Name);

/// Classifies a scheduler outcome.
Status classify(bool Found, bool TimedOut, bool NodeLimitHit,
                double Seconds);

/// One committed expected verdict.
struct Expected {
  int Ops = 0;
  Status St = Status::Ok;
  int II = 0;
  double Value = 0.0;
  /// "brute" when the exhaustive enumerator confirmed II and value,
  /// "regress" for a regression pin taken from the seed commit.
  std::string Pin;
};

/// Expected verdicts of one workload and suite, keyed by record id.
using ExpectedTable = std::map<std::string, Expected>;

/// An expected entry together with the input it was computed from (for
/// writing expected files and pinning them by exhaustive search).
struct ExpectedInput {
  modsched::DependenceGraph G;
  modsched::Objective Obj = modsched::Objective::None;
  Expected E;
};
using ExpectedInputs = std::map<std::string, ExpectedInput>;

/// Path of the expected file of \p Workload on suite \p SuiteSeed.
std::string expectedPath(const std::string &Dir, const std::string &Workload,
                         uint64_t SuiteSeed);

/// Reads an expected file; an empty table when it does not exist.
ExpectedTable loadExpected(const std::string &Path);

/// Writes \p Table (sorted by id) with a header naming its source.
bool writeExpected(const std::string &Path, const ExpectedTable &Table,
                   const std::string &Header);

/// A verdict to check.
struct Verdict {
  Status St = Status::Ok;
  int II = 0;
  double Objective = 0.0;
  int Mii = -1; ///< MII the solver reported; -1 when not reported.
  const modsched::ModuloSchedule *Schedule = nullptr;
};

/// Re-checks \p V for loop \p G under \p Obj against the verifier, the
/// recomputed objective, MII, and \p E (may be null: unpinned). Returns
/// the reason it is wrong, or nullopt.
std::optional<std::string> checkVerdict(const modsched::DependenceGraph &G,
                                        const modsched::MachineModel &M,
                                        modsched::Objective Obj,
                                        const Verdict &V, const Expected *E);

/// Objective value of \p S under \p Obj as sched/RegisterPressure
/// computes it (0 for NoObj).
double recomputeObjective(const modsched::DependenceGraph &G,
                          const modsched::ModuloSchedule &S,
                          modsched::Objective Obj);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_SUITE_H
