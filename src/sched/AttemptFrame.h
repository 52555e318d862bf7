//===- sched/AttemptFrame.h - Per-II bounds of one attempt ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything one attempt at a tentative II fixes before any model is
/// built (docs/FORMULATIONS.md §8):
///
///   budget   the schedule-length budget of ScheduleLengthSlack cycles
///            past the minimum length, rounded up to whole stages;
///   windows  ASAP/ALAP start times under that budget;
///   stages   k_i in [floor(asap_i/II), floor(alap_i/II)] per operation
///            (with TightenStageBounds; [0, StageCount-1] without) and
///            the matching bounds of every register's kill pseudo-op;
///   bounds   per-register minimum lifetimes and the constant MaxLive
///            and buffer lower bounds the objectives start from;
///   uses     per-resource uses per iteration (the encoders leave out a
///            resource whose uses fit its instance count).
///
/// ilpsched/Formulation and ilpsched/PbFormulation read every bound from
/// one frame, so the two backends decide the same feasible set per II by
/// construction. The slack must be non-negative (asserted): then the
/// latest start time is at least the largest ASAP time, every window is
/// non-empty, and a frame is valid exactly when ASAP times exist, i.e.
/// when II >= RecMII.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SCHED_ATTEMPTFRAME_H
#define MODSCHED_SCHED_ATTEMPTFRAME_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/Problem.h"

#include <cassert>
#include <vector>

namespace modsched {

/// Floored integer division (C++ '/' truncates toward zero).
template <typename Int> constexpr Int floorDiv(Int A, Int B) {
  assert(B > 0 && "divisor must be positive");
  Int Q = A / B;
  if (A % B != 0 && A < 0)
    --Q;
  return Q;
}

/// Non-negative remainder of \p A modulo \p B > 0.
template <typename Int> constexpr Int modPos(Int A, Int B) {
  Int R = A % B;
  return R < 0 ? R + B : R;
}

/// An inclusive stage range [Min, Max].
struct StageBounds {
  int Min = 0;
  int Max = 0;
};

/// The windows and bounds of one (graph, machine, II, options) attempt.
/// When Valid is false (II < RecMII) only II and Valid are meaningful.
struct AttemptFrame {
  AttemptFrame(const DependenceGraph &G, const MachineModel &M, int II,
               const FormulationOptions &Opts);

  int II;
  /// False when no ASAP schedule exists at II (a positive recurrence).
  bool Valid = false;
  /// 1 + the largest ASAP start time.
  int MinLength = 0;
  /// Stages the budget spans; MaxTime = StageCount * II - 1.
  int StageCount = 0;
  /// Latest admissible start time.
  int MaxTime = 0;
  /// Per-operation earliest and latest start times.
  std::vector<int> Asap, Alap;
  /// Per-operation stage bounds.
  std::vector<StageBounds> Stage;
  /// Per-register kill-stage bounds: from the definition's earliest stage
  /// to the latest stage of its latest use.
  std::vector<StageBounds> KillStage;
  /// Per-register lifetime lower bound in cycles: 1, or latency + 1 of a
  /// scheduling edge from the definition to a use at the use's distance.
  std::vector<int> MinLifetime;
  /// ceil(sum of MinLifetime / II), a lower bound on MaxLive.
  int MaxLiveLowerBound = 0;
  /// Per-register ceil(MinLifetime / II), a lower bound on its buffers.
  std::vector<int> BufferLowerBound;
  /// Per-resource uses per iteration.
  std::vector<int> ResourceUses;
};

} // namespace modsched

#endif // MODSCHED_SCHED_ATTEMPTFRAME_H
