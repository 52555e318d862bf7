//===- sched/Explain.h - Infeasibility witnesses ----------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solve forensics: graph-level infeasibility witnesses.
///
/// The paper's II search starts at MII = max(ResMII, RecMII). Those are
/// the two witnesses a compiler engineer can act on: a recurrence cycle
/// with ceil(latency/distance) greater than II, or a resource with more
/// uses than II * count. explainInfeasibleIi() finds one exactly when
/// II < MII. The start windows under the schedule-length budget add no
/// third witness: with a non-negative slack they are empty only below
/// RecMII (sched/AttemptFrame.h), where the recurrence witness applies.
/// An II the engines prove infeasible at or above MII has no graph-level
/// witness and is reported as unexplained.
///
/// Witnesses are never trusted as produced: checkExplanation() re-derives
/// the infeasibility arithmetically from the dependence graph and machine
/// model alone, matching the repo's rule that schedulers self-verify.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SCHED_EXPLAIN_H
#define MODSCHED_SCHED_EXPLAIN_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/CriticalCycle.h"

#include <optional>
#include <string>

namespace modsched {

/// The shape of a graph-level infeasibility witness.
enum class WitnessKind : unsigned char {
  None,               ///< No witness found ("unexplained").
  RecurrenceCycle,    ///< A cycle with ceil(latency/distance) > II.
  ResourceSaturation, ///< A resource with uses > II * count.
};

/// A graph-level explanation of one infeasible II attempt. Exactly the
/// fields of the active WitnessKind are meaningful; Verified is set by
/// the caller from checkExplanation() and must never be assumed.
struct Explanation {
  WitnessKind Kind = WitnessKind::None;
  /// True once checkExplanation() confirmed the witness arithmetically.
  bool Verified = false;
  /// RecurrenceCycle: the offending cycle (edge indices + totals).
  RecurrenceCycle Cycle;
  /// ResourceSaturation: resource index, total uses, instance count.
  int Resource = -1;
  long ResourceUses = 0;
  int ResourceCount = 0;
};

/// Short lowercase tag for bench JSON / trace args ("cycle", "resource",
/// "none").
const char *witnessName(WitnessKind K);

/// Total cycles of \p Resource demanded per iteration (the numerator of
/// ResMII for that resource).
long resourceUses(const DependenceGraph &G, const MachineModel &M,
                  int Resource);

/// Explains an infeasible II from the graph and machine alone: binding
/// recurrence cycle if RecMII > II, else the most oversubscribed resource
/// if ResMII > II. Returns nullopt exactly when II >= MII: an
/// infeasibility the engines prove there has no graph-level witness.
std::optional<Explanation> explainInfeasibleIi(const DependenceGraph &G,
                                               const MachineModel &M, int II);

/// Independent arithmetic check of a witness against the DDG and machine
/// model only — no solver state. A RecurrenceCycle must be a closed
/// in-range cycle whose recomputed totals match the record and imply
/// ceil(latency/distance) > II; a ResourceSaturation must satisfy the
/// recounted uses > II * count. WitnessKind::None never verifies.
bool checkExplanation(const DependenceGraph &G, const MachineModel &M, int II,
                      const Explanation &E);

/// Renders the witness for humans, e.g.
/// "recurrence cycle needs II >= 4: add -(1,0)-> mul -(3,1)-> add".
std::string describeExplanation(const DependenceGraph &G,
                                const MachineModel &M, int II,
                                const Explanation &E);

} // namespace modsched

#endif // MODSCHED_SCHED_EXPLAIN_H
