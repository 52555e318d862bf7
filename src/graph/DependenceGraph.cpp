//===- graph/DependenceGraph.cpp - Loop dependence graphs -----------------===//

#include "graph/DependenceGraph.h"

#include "graph/GraphAlgorithms.h"

#include <cassert>
#include <cstdio>

using namespace modsched;

int DependenceGraph::addOperation(std::string Name, int OpClass) {
  Ops.push_back({std::move(Name), OpClass});
  RegisterOf.push_back(-1);
  return static_cast<int>(Ops.size()) - 1;
}

void DependenceGraph::addSchedEdge(int Src, int Dst, int Latency,
                                   int Distance) {
  assert(Src >= 0 && Src < numOperations() && "bad edge source");
  assert(Dst >= 0 && Dst < numOperations() && "bad edge destination");
  assert(Distance >= 0 && "dependence distance must be non-negative");
  SchedEdges.push_back({Src, Dst, Latency, Distance});
}

int DependenceGraph::ensureRegister(int Def) {
  assert(Def >= 0 && Def < numOperations() && "bad register definer");
  if (RegisterOf[Def] >= 0)
    return RegisterOf[Def];
  Registers.push_back({Def, {}});
  RegisterOf[Def] = static_cast<int>(Registers.size()) - 1;
  return RegisterOf[Def];
}

void DependenceGraph::addFlowDependence(int Def, int Use, int Latency,
                                        int Distance) {
  addSchedEdge(Def, Use, Latency, Distance);
  int Reg = ensureRegister(Def);
  Registers[Reg].Uses.push_back({Use, Distance});
}

std::optional<std::string> DependenceGraph::validate() const {
  char Buf[256];
  for (const SchedEdge &E : SchedEdges) {
    if (E.Src < 0 || E.Src >= numOperations() || E.Dst < 0 ||
        E.Dst >= numOperations()) {
      std::snprintf(Buf, sizeof(Buf), "edge (%d -> %d) out of range", E.Src,
                    E.Dst);
      return std::string(Buf);
    }
    if (E.Distance < 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "edge (%s -> %s) has negative distance %d",
                    Ops[E.Src].Name.c_str(), Ops[E.Dst].Name.c_str(),
                    E.Distance);
      return std::string(Buf);
    }
  }
  if (hasZeroDistanceCycle(*this))
    return std::string("zero-distance dependence cycle: loop is "
                       "unschedulable");
  std::vector<bool> SeenDef(Ops.size(), false);
  for (const VirtualRegister &R : Registers) {
    if (R.Def < 0 || R.Def >= numOperations())
      return std::string("register with out-of-range definer");
    if (SeenDef[R.Def]) {
      std::snprintf(Buf, sizeof(Buf), "operation %s defines two registers",
                    Ops[R.Def].Name.c_str());
      return std::string(Buf);
    }
    SeenDef[R.Def] = true;
    for (const RegisterUse &U : R.Uses) {
      if (U.Consumer < 0 || U.Consumer >= numOperations())
        return std::string("register use with out-of-range consumer");
      if (U.Distance < 0)
        return std::string("register use with negative distance");
    }
  }
  return std::nullopt;
}

std::string DependenceGraph::toString() const {
  std::string Out = "loop " + LoopName + "\n";
  char Buf[256];
  for (size_t I = 0; I < Ops.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "  op %zu %s class=%d\n", I,
                  Ops[I].Name.c_str(), Ops[I].OpClass);
    Out += Buf;
  }
  for (const SchedEdge &E : SchedEdges) {
    std::snprintf(Buf, sizeof(Buf), "  edge %s -> %s latency=%d omega=%d\n",
                  Ops[E.Src].Name.c_str(), Ops[E.Dst].Name.c_str(), E.Latency,
                  E.Distance);
    Out += Buf;
  }
  for (const VirtualRegister &R : Registers) {
    std::snprintf(Buf, sizeof(Buf), "  vreg def=%s uses=",
                  Ops[R.Def].Name.c_str());
    Out += Buf;
    for (size_t U = 0; U < R.Uses.size(); ++U) {
      std::snprintf(Buf, sizeof(Buf), "%s%s@%d", U ? "," : "",
                    Ops[R.Uses[U].Consumer].Name.c_str(), R.Uses[U].Distance);
      Out += Buf;
    }
    Out += "\n";
  }
  return Out;
}
