//===- sched/AttemptFrame.cpp - Per-II bounds of one attempt --------------===//

#include "sched/AttemptFrame.h"

#include "graph/GraphAlgorithms.h"

#include <algorithm>
#include <cstdint>
#include <optional>

using namespace modsched;

AttemptFrame::AttemptFrame(const DependenceGraph &G, const MachineModel &M,
                           int TheII, const FormulationOptions &Opts)
    : II(TheII) {
  assert(II >= 1 && "initiation interval must be positive");
  assert(Opts.ScheduleLengthSlack >= 0 &&
         "a negative schedule-length slack could empty the windows");

  std::optional<std::vector<int>> AsapOpt = asapTimes(G, II);
  if (!AsapOpt)
    return; // II below the recurrence bound: infeasible.
  Asap = std::move(*AsapOpt);
  Valid = true;

  // Schedule-length budget: the paper limits start times to 20 cycles
  // beyond the minimum schedule length. The budget is rounded up to stage
  // granularity so that stage bounds express it exactly.
  for (int T : Asap)
    MinLength = std::max(MinLength, T + 1);
  int Budget = MinLength - 1 + Opts.ScheduleLengthSlack;
  StageCount = Budget / II + 1;
  MaxTime = StageCount * II - 1;

  std::optional<std::vector<int>> AlapOpt = alapTimes(G, II, MaxTime);
  assert(AlapOpt && "ALAP times exist wherever ASAP times do");
  Alap = std::move(*AlapOpt);

  const int N = G.numOperations();
  Stage.resize(size_t(N));
  for (int Op = 0; Op < N; ++Op) {
    assert(Asap[Op] <= Alap[Op] &&
           "MaxTime >= every ASAP time leaves no window empty");
    Stage[Op] = Opts.TightenStageBounds
                    ? StageBounds{Asap[Op] / II, Alap[Op] / II}
                    : StageBounds{0, StageCount - 1};
  }

  // The kill lies between the definition's earliest stage and the latest
  // stage of its latest use (a use at distance w, w stages later).
  const int NumRegs = G.numRegisters();
  KillStage.resize(size_t(NumRegs));
  MinLifetime.assign(size_t(NumRegs), 1); // Live in its definition cycle.
  BufferLowerBound.resize(size_t(NumRegs));
  int64_t MinTotalLife = 0;
  for (int Reg = 0; Reg < NumRegs; ++Reg) {
    const VirtualRegister &R = G.registers()[Reg];
    StageBounds &Kill = KillStage[Reg];
    Kill = Stage[R.Def];
    int &Life = MinLifetime[Reg];
    for (const RegisterUse &U : R.Uses) {
      Kill.Max = std::max(Kill.Max, Stage[U.Consumer].Max + U.Distance);
      // Any scheduling edge def -> consumer at the use's distance forces
      // t_use + w*II >= t_def + latency, hence lifetime >= latency + 1.
      for (const SchedEdge &E : G.schedEdges())
        if (E.Src == R.Def && E.Dst == U.Consumer && E.Distance == U.Distance)
          Life = std::max(Life, E.Latency + 1);
    }
    BufferLowerBound[Reg] = (Life + II - 1) / II;
    MinTotalLife += Life;
  }
  MaxLiveLowerBound = int((MinTotalLife + II - 1) / II);

  ResourceUses.assign(size_t(M.numResources()), 0);
  for (const Operation &Op : G.operations())
    for (const ResourceUsage &U : M.opClass(Op.OpClass).Usages)
      ++ResourceUses[U.Resource];
}
