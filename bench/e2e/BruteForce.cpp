//===- bench/e2e/BruteForce.cpp - Exhaustive optimality oracle ------------===//

#include "BruteForce.h"

#include "graph/GraphAlgorithms.h"
#include "sched/ModuloSchedule.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <optional>
#include <vector>

using namespace modsched;

namespace e2e {

namespace {

int floorMod(int A, int B) { return ((A % B) + B) % B; }

/// Depth-first enumeration of start times at one II with incremental
/// dependence windows, modulo reservation counts, and (for objective
/// searches) a lower bound on the objective of every completion.
class Enumerator {
public:
  Enumerator(const DependenceGraph &G, const MachineModel &M, Objective Obj,
             int II, int Slack, int64_t &Nodes, int64_t Budget)
      : G(G), M(M), Obj(Obj), II(II), Slack(Slack), Nodes(Nodes),
        Budget(Budget) {}

  /// False when a counting argument, the recurrences, or the window rule
  /// already exclude every schedule at this II.
  bool prepare();

  /// Searches for the least objective below \p Cutoff (any schedule when
  /// \p FirstOnly). True when one was found (BestValue / BestTimes).
  bool search(long Cutoff, bool FirstOnly);

  bool exhausted() const { return Nodes > Budget; }

  long BestValue = LONG_MAX;
  std::vector<int> BestTimes;
  /// Set when the verifier rejected a schedule the enumerator accepted.
  std::string Bug;

private:
  struct Arc {
    int Other, Latency, Distance;
  };
  struct Use {
    int Consumer, Distance, Latency;
  };
  struct Reg {
    int Def = 0;
    std::vector<Use> Uses;
    int MinLength = 1;
  };

  void dfs(size_t Depth);
  bool place(int Op, int Time);
  void unplace(int Op, int Time);
  /// Window of \p Op given the ops placed so far.
  std::pair<int, int> window(int Op) const;
  int lengthBound(const Reg &R) const;
  long lowerBound() const;

  const DependenceGraph &G;
  const MachineModel &M;
  Objective Obj;
  int II;
  int Slack;
  int64_t &Nodes;
  int64_t Budget;

  int N = 0;
  int MaxTime = 0;
  std::vector<int> Asap, Alap, Order;
  std::vector<std::vector<Arc>> In, Out;
  std::vector<Reg> Regs;
  std::vector<std::vector<ResourceUsage>> Usages;
  std::vector<int> Usage; ///< [resource * II + row] reservations.
  std::vector<int> Time;
  std::vector<bool> Placed;
  int AtZero = 0;
  long Cutoff = LONG_MAX;
  bool FirstOnly = false;
  bool Done = false;
};

bool Enumerator::prepare() {
  N = G.numOperations();
  // Pigeonhole: a resource cannot host more reservations than its
  // instances times II.
  std::vector<int> Demand(size_t(M.numResources()), 0);
  Usages.resize(size_t(N));
  for (int Op = 0; Op < N; ++Op) {
    Usages[size_t(Op)] = M.opClass(G.operation(Op).OpClass).Usages;
    for (const ResourceUsage &U : Usages[size_t(Op)])
      ++Demand[size_t(U.Resource)];
  }
  for (int R = 0; R < M.numResources(); ++R)
    if (Demand[size_t(R)] > M.resource(R).Count * II)
      return false;

  std::optional<std::vector<int>> AsapOpt = asapTimes(G, II);
  std::optional<int> MinLen = minScheduleLength(G, II);
  if (!AsapOpt || !MinLen)
    return false; // A recurrence does not fit this II.
  const int StageCount = (*MinLen - 1 + Slack) / II + 1;
  MaxTime = StageCount * II - 1;
  std::optional<std::vector<int>> AlapOpt = alapTimes(G, II, MaxTime);
  if (!AlapOpt)
    return false;
  Asap = std::move(*AsapOpt);
  Alap = std::move(*AlapOpt);
  for (int Op = 0; Op < N; ++Op)
    if (Asap[size_t(Op)] > Alap[size_t(Op)])
      return false;

  In.assign(size_t(N), {});
  Out.assign(size_t(N), {});
  std::vector<int> Indegree(size_t(N), 0);
  for (const SchedEdge &E : G.schedEdges()) {
    Out[size_t(E.Src)].push_back({E.Dst, E.Latency, E.Distance});
    In[size_t(E.Dst)].push_back({E.Src, E.Latency, E.Distance});
    if (E.Distance == 0 && E.Src != E.Dst)
      ++Indegree[size_t(E.Dst)];
  }
  // Producers before consumers within an iteration, so that windows
  // narrow as early as possible.
  std::vector<bool> Taken(size_t(N), false);
  while (int(Order.size()) < N) {
    int Next = -1;
    for (int Op = 0; Op < N && Next < 0; ++Op)
      if (!Taken[size_t(Op)] && Indegree[size_t(Op)] == 0)
        Next = Op;
    for (int Op = 0; Op < N && Next < 0; ++Op)
      if (!Taken[size_t(Op)])
        Next = Op; // Zero-distance cycle: cannot happen for valid loops.
    Taken[size_t(Next)] = true;
    Order.push_back(Next);
    for (const Arc &A : Out[size_t(Next)])
      if (A.Distance == 0 && A.Other != Next)
        --Indegree[size_t(A.Other)];
  }

  // Registers with the latency of the flow edge behind each use.
  const std::vector<SchedEdge> &Edges = G.schedEdges();
  std::vector<bool> Matched(Edges.size(), false);
  for (const VirtualRegister &V : G.registers()) {
    Reg R;
    R.Def = V.Def;
    for (const RegisterUse &U : V.Uses) {
      int Latency = 0;
      for (size_t E = 0; E < Edges.size(); ++E)
        if (!Matched[E] && Edges[E].Src == V.Def &&
            Edges[E].Dst == U.Consumer && Edges[E].Distance == U.Distance) {
          Matched[E] = true;
          Latency = Edges[E].Latency;
          break;
        }
      R.Uses.push_back({U.Consumer, U.Distance, Latency});
      R.MinLength = std::max(R.MinLength, Latency + 1);
    }
    Regs.push_back(std::move(R));
  }

  Usage.assign(size_t(M.numResources() * II), 0);
  Time.assign(size_t(N), 0);
  Placed.assign(size_t(N), false);
  return true;
}

bool Enumerator::place(int Op, int T) {
  const std::vector<ResourceUsage> &Us = Usages[size_t(Op)];
  for (size_t I = 0; I < Us.size(); ++I) {
    int &Slot =
        Usage[size_t(Us[I].Resource * II + floorMod(T + Us[I].Cycle, II))];
    if (++Slot > M.resource(Us[I].Resource).Count) {
      for (size_t J = 0; J <= I; ++J)
        --Usage[size_t(Us[J].Resource * II + floorMod(T + Us[J].Cycle, II))];
      return false;
    }
  }
  Time[size_t(Op)] = T;
  Placed[size_t(Op)] = true;
  AtZero += T == 0;
  return true;
}

void Enumerator::unplace(int Op, int T) {
  for (const ResourceUsage &U : Usages[size_t(Op)])
    --Usage[size_t(U.Resource * II + floorMod(T + U.Cycle, II))];
  Placed[size_t(Op)] = false;
  AtZero -= T == 0;
}

std::pair<int, int> Enumerator::window(int Op) const {
  int Lo = Asap[size_t(Op)], Hi = Alap[size_t(Op)];
  // time_dst + distance * II - time_src >= latency on every edge.
  for (const Arc &A : In[size_t(Op)])
    if (A.Other != Op && Placed[size_t(A.Other)])
      Lo = std::max(Lo, Time[size_t(A.Other)] + A.Latency - A.Distance * II);
  for (const Arc &A : Out[size_t(Op)])
    if (A.Other != Op && Placed[size_t(A.Other)])
      Hi = std::min(Hi, Time[size_t(A.Other)] + A.Distance * II - A.Latency);
  return {Lo, Hi};
}

int Enumerator::lengthBound(const Reg &R) const {
  if (Placed[size_t(R.Def)]) {
    const int Def = Time[size_t(R.Def)];
    int Kill = Def;
    for (const Use &U : R.Uses)
      Kill = std::max(Kill, Placed[size_t(U.Consumer)]
                                ? Time[size_t(U.Consumer)] + U.Distance * II
                                : std::max(Def + U.Latency,
                                           Asap[size_t(U.Consumer)] +
                                               U.Distance * II));
    return Kill - Def + 1;
  }
  // Definition not placed: the flow latencies bound the lifetime, and
  // every placed use bounds both the kill and the latest definition.
  int Length = R.MinLength;
  int LatestDef = Alap[size_t(R.Def)];
  int Kill = INT_MIN;
  for (const Use &U : R.Uses)
    if (Placed[size_t(U.Consumer)]) {
      const int UseTime = Time[size_t(U.Consumer)] + U.Distance * II;
      Kill = std::max(Kill, UseTime);
      LatestDef = std::min(LatestDef, UseTime - U.Latency);
    }
  if (Kill != INT_MIN)
    Length = std::max(Length, Kill - LatestDef + 1);
  return Length;
}

long Enumerator::lowerBound() const {
  long Sum = 0;
  switch (Obj) {
  case Objective::MinLife:
    for (const Reg &R : Regs)
      Sum += lengthBound(R);
    return Sum;
  case Objective::MinBuff:
    for (const Reg &R : Regs)
      Sum += (lengthBound(R) + II - 1) / II;
    return Sum;
  case Objective::MinReg: {
    // Partial lifetimes fold onto the rows as computeRegisterPressure
    // folds whole ones; an unplaced definition still covers every row
    // floor(length / II) times.
    std::vector<long> Rows(size_t(II), 0);
    for (const Reg &R : Regs) {
      const int Length = lengthBound(R);
      if (!Placed[size_t(R.Def)]) {
        Sum += Length / II;
        continue;
      }
      for (long &Row : Rows)
        Row += Length / II;
      const int Start = floorMod(Time[size_t(R.Def)], II);
      for (int Off = 0; Off < Length % II; ++Off)
        ++Rows[size_t((Start + Off) % II)];
    }
    return Sum + *std::max_element(Rows.begin(), Rows.end());
  }
  default:
    return 0;
  }
}

void Enumerator::dfs(size_t Depth) {
  if (Done || ++Nodes > Budget)
    return;
  if (Depth == size_t(N)) {
    if (AtZero == 0)
      return; // Not normalized: its shift to time 0 is enumerated too.
    ModuloSchedule S(II, Time);
    if (std::optional<std::string> Err = verifySchedule(G, M, S, MaxTime)) {
      Bug = "verifier rejects an enumerated schedule: " + *Err;
      Done = true;
      return;
    }
    long Value = 0;
    if (!FirstOnly && Obj != Objective::None) {
      RegisterPressure P = computeRegisterPressure(G, S);
      Value = Obj == Objective::MinReg    ? P.MaxLive
              : Obj == Objective::MinBuff ? P.Buffers
                                          : P.TotalLifetime;
    }
    if (Value < Cutoff) {
      Cutoff = Value;
      BestValue = Value;
      BestTimes = Time;
      Done = FirstOnly || Obj == Objective::None;
    }
    return;
  }
  if (AtZero == 0) {
    // Some remaining operation must be able to start at time 0.
    bool ZeroReachable = false;
    for (size_t D = Depth; D < Order.size() && !ZeroReachable; ++D)
      ZeroReachable = window(Order[D]).first <= 0;
    if (!ZeroReachable)
      return;
  }
  const int Op = Order[Depth];
  const auto [Lo, Hi] = window(Op);
  for (int T = Lo; T <= Hi && !Done; ++T) {
    if (!place(Op, T))
      continue;
    if (FirstOnly || Obj == Objective::None || lowerBound() < Cutoff)
      dfs(Depth + 1);
    unplace(Op, T);
  }
}

bool Enumerator::search(long TheCutoff, bool First) {
  Cutoff = TheCutoff;
  FirstOnly = First;
  Done = false;
  BestValue = LONG_MAX;
  dfs(0);
  return BestValue != LONG_MAX;
}

} // namespace

BruteVerdict bruteForceCheck(const DependenceGraph &G, const MachineModel &M,
                             Objective Obj, int II, double Value,
                             int ScheduleLengthSlack, int64_t NodeBudget) {
  BruteVerdict V;
  auto Finish = [&](bool Match, std::string Detail) {
    V.Match = Match;
    V.Detail = std::move(Detail);
    V.Conclusive = V.Nodes <= NodeBudget;
    return V;
  };
  for (int Lower = 1; Lower < II; ++Lower) {
    Enumerator E(G, M, Obj, Lower, ScheduleLengthSlack, V.Nodes, NodeBudget);
    if (!E.prepare())
      continue;
    bool Found = E.search(LONG_MAX, /*FirstOnly=*/true);
    if (!E.Bug.empty())
      return Finish(false, E.Bug);
    if (E.exhausted())
      return Finish(false, "node budget exhausted at II " +
                               std::to_string(Lower));
    if (Found)
      return Finish(false, "a schedule exists at II " + std::to_string(Lower));
  }
  Enumerator E(G, M, Obj, II, ScheduleLengthSlack, V.Nodes, NodeBudget);
  if (!E.prepare())
    return Finish(false, "no schedule exists at II " + std::to_string(II));
  const long Target = std::lround(Value);
  const bool Found = E.search(Target + 1, /*FirstOnly=*/false);
  if (!E.Bug.empty())
    return Finish(false, E.Bug);
  if (E.exhausted())
    return Finish(false, "node budget exhausted at II " + std::to_string(II));
  if (!Found)
    return Finish(false, "no schedule at II " + std::to_string(II) +
                             " has objective <= " + std::to_string(Target));
  if (E.BestValue != Target)
    return Finish(false, "objective " + std::to_string(E.BestValue) +
                             " is achievable at II " + std::to_string(II));
  return Finish(true, "");
}

} // namespace e2e
