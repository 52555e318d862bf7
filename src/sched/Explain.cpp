//===- sched/Explain.cpp - Infeasibility witnesses ------------------------===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//

#include "sched/Explain.h"

#include "graph/GraphAlgorithms.h"

#include <cassert>
#include <sstream>

namespace modsched {

const char *witnessName(WitnessKind K) {
  switch (K) {
  case WitnessKind::None:
    return "none";
  case WitnessKind::RecurrenceCycle:
    return "cycle";
  case WitnessKind::ResourceSaturation:
    return "resource";
  }
  return "none";
}

long resourceUses(const DependenceGraph &G, const MachineModel &M,
                  int Resource) {
  long Uses = 0;
  for (const Operation &Op : G.operations())
    for (const ResourceUsage &U : M.opClass(Op.OpClass).Usages)
      if (U.Resource == Resource)
        ++Uses;
  return Uses;
}

/// Totals a cycle described by edge indices; returns false when the
/// indices are out of range or do not form one closed cycle.
static bool sumCycle(const DependenceGraph &G, const std::vector<int> &Edges,
                     long &Latency, long &Distance) {
  if (Edges.empty())
    return false;
  Latency = 0;
  Distance = 0;
  for (size_t I = 0; I < Edges.size(); ++I) {
    int Idx = Edges[I];
    if (Idx < 0 || Idx >= G.numSchedEdges())
      return false;
    const SchedEdge &E = G.schedEdges()[Idx];
    int NextIdx = Edges[(I + 1) % Edges.size()];
    if (NextIdx < 0 || NextIdx >= G.numSchedEdges())
      return false;
    if (E.Dst != G.schedEdges()[NextIdx].Src)
      return false;
    Latency += E.Latency;
    Distance += E.Distance;
  }
  return true;
}

/// Picks the most oversubscribed resource, or nullopt when none exceeds
/// II * count.
static std::optional<Explanation>
saturatedResource(const DependenceGraph &G, const MachineModel &M, int II) {
  std::optional<Explanation> Best;
  double BestRatio = 0.0;
  for (int R = 0; R < M.numResources(); ++R) {
    long Uses = resourceUses(G, M, R);
    int Count = M.resource(R).Count;
    if (Count <= 0 || Uses <= long(II) * Count)
      continue;
    double Ratio = double(Uses) / Count;
    if (!Best || Ratio > BestRatio) {
      Explanation E;
      E.Kind = WitnessKind::ResourceSaturation;
      E.Resource = R;
      E.ResourceUses = Uses;
      E.ResourceCount = Count;
      Best = E;
      BestRatio = Ratio;
    }
  }
  return Best;
}

std::optional<Explanation> explainInfeasibleIi(const DependenceGraph &G,
                                               const MachineModel &M, int II) {
  assert(II >= 1 && "II must be positive");
  if (hasZeroDistanceCycle(G))
    return std::nullopt; // Unschedulable at any II; no finite witness.
  // Binding recurrence first: the paper's flagship diagnostic.
  if (std::optional<RecurrenceCycle> C = findCriticalCycle(G)) {
    if (C->iiBound() > II) {
      Explanation E;
      E.Kind = WitnessKind::RecurrenceCycle;
      E.Cycle = std::move(*C);
      return E;
    }
  }
  // Then resource saturation (covers all II < ResMII).
  return saturatedResource(G, M, II);
}

bool checkExplanation(const DependenceGraph &G, const MachineModel &M, int II,
                      const Explanation &E) {
  switch (E.Kind) {
  case WitnessKind::None:
    return false;
  case WitnessKind::RecurrenceCycle: {
    long Latency = 0, Distance = 0;
    if (!sumCycle(G, E.Cycle.Edges, Latency, Distance))
      return false;
    if (Latency != E.Cycle.TotalLatency || Distance != E.Cycle.TotalDistance)
      return false; // Record disagrees with the graph.
    if (Distance <= 0)
      return false;
    // ceil(latency / distance) > II, in integer arithmetic.
    return Latency > long(II) * Distance;
  }
  case WitnessKind::ResourceSaturation: {
    if (E.Resource < 0 || E.Resource >= M.numResources())
      return false;
    long Uses = resourceUses(G, M, E.Resource);
    int Count = M.resource(E.Resource).Count;
    if (Uses != E.ResourceUses || Count != E.ResourceCount)
      return false;
    return Count > 0 && Uses > long(II) * Count;
  }
  }
  return false;
}

std::string describeExplanation(const DependenceGraph &G,
                                const MachineModel &M, int II,
                                const Explanation &E) {
  std::ostringstream OS;
  switch (E.Kind) {
  case WitnessKind::None:
    OS << "unexplained (no graph-level witness)";
    break;
  case WitnessKind::RecurrenceCycle:
    OS << "recurrence cycle needs II >= " << E.Cycle.iiBound()
       << " (latency " << E.Cycle.TotalLatency << " over distance "
       << E.Cycle.TotalDistance << "): " << describeCycle(G, E.Cycle);
    break;
  case WitnessKind::ResourceSaturation:
    OS << "resource '" << M.resource(E.Resource).Name << "' saturated: "
       << E.ResourceUses << " uses/iteration > II(" << II << ") x "
       << E.ResourceCount << " instances";
    break;
  }
  return OS.str();
}

} // namespace modsched
