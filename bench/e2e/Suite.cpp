//===- bench/e2e/Suite.cpp - Loop suite, expected verdicts ----------------===//

#include "Suite.h"

#include "Bench.h"

#include "sched/Mii.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace modsched;

namespace e2e {

const std::vector<Objective> &suiteObjectives() {
  static const std::vector<Objective> Objs = {
      Objective::None, Objective::MinReg, Objective::MinBuff,
      Objective::MinLife};
  return Objs;
}

const char *objectiveName(Objective Obj) {
  switch (Obj) {
  case Objective::None:
    return "noobj";
  case Objective::MinReg:
    return "minreg";
  case Objective::MinBuff:
    return "minbuff";
  case Objective::MinLife:
    return "minlife";
  case Objective::MinSL:
    return "minsl";
  }
  return "unknown";
}

namespace {

/// Kernels small enough for the suite's 14-op cap.
std::vector<DependenceGraph> smallKernels(const MachineModel &M) {
  std::vector<DependenceGraph> Out;
  for (DependenceGraph &K : allKernels(M))
    if (K.numOperations() <= 14)
      Out.push_back(std::move(K));
  return Out;
}

/// One synthetic loop: 60% from 3-10 ops, 40% from 10-14 ops, or always
/// 3-10 ops when \p SmallOnly.
DependenceGraph drawLoop(const MachineModel &M, Rng &R, bool SmallOnly,
                         const std::string &Name) {
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 10;
  if (!SmallOnly && R.nextDouble() >= 0.60) {
    Opts.MinOps = 10;
    Opts.MaxOps = 14;
  }
  DependenceGraph G = generateLoop(M, R, Opts);
  G.setName(Name);
  return G;
}

} // namespace

std::vector<DependenceGraph> sweepLoops(const MachineModel &M,
                                        uint64_t SuiteSeed, int Count) {
  std::vector<DependenceGraph> Kernels = smallKernels(M);
  Rng R(SuiteSeed);
  std::vector<DependenceGraph> Out;
  for (int I = 0; int(Out.size()) < Count; ++I) {
    if (I < int(Kernels.size()))
      Out.push_back(Kernels[size_t(I)]);
    if (int(Out.size()) < Count)
      Out.push_back(drawLoop(M, R, false, "syn" + std::to_string(I)));
  }
  return Out;
}

std::vector<DependenceGraph> poolLoops(const MachineModel &M,
                                       uint64_t SuiteSeed, int Count) {
  std::vector<DependenceGraph> Out = smallKernels(M);
  if (int(Out.size()) > Count)
    Out.resize(size_t(Count));
  Rng R(mixSeed(SuiteSeed, 1));
  for (int I = 0; int(Out.size()) < Count; ++I)
    Out.push_back(drawLoop(M, R, true, "pool" + std::to_string(I)));
  return Out;
}

Objective entryObjective(int Index) {
  const std::vector<Objective> &Objs = suiteObjectives();
  return Objs[size_t(Index) % Objs.size()];
}

DependenceGraph relabelGraph(const DependenceGraph &G, Rng &R) {
  auto Shuffled = [&R](int N) {
    std::vector<int> Perm(static_cast<size_t>(N));
    std::iota(Perm.begin(), Perm.end(), 0);
    for (int I = N - 1; I > 0; --I)
      std::swap(Perm[size_t(I)], Perm[R.nextBelow(uint64_t(I) + 1)]);
    return Perm;
  };
  const int N = G.numOperations();
  std::vector<int> Perm = Shuffled(N);
  DependenceGraph Out;
  Out.setName(G.name());
  std::vector<int> Inverse(size_t(N), 0);
  for (int Op = 0; Op < N; ++Op)
    Inverse[size_t(Perm[size_t(Op)])] = Op;
  for (int NewId = 0; NewId < N; ++NewId)
    Out.addOperation("n" + std::to_string(NewId),
                     G.operation(Inverse[size_t(NewId)]).OpClass);

  // Flow dependences add a register use and its sched edge together, so
  // match every register use to the sched edge it created; the rest are
  // pure scheduling edges.
  const std::vector<SchedEdge> &Edges = G.schedEdges();
  std::vector<bool> FromFlow(Edges.size(), false);
  struct Flow {
    int Def, Use, Latency, Distance;
  };
  std::vector<Flow> Flows;
  for (const VirtualRegister &Reg : G.registers())
    for (const RegisterUse &U : Reg.Uses)
      for (size_t E = 0; E != Edges.size(); ++E)
        if (!FromFlow[E] && Edges[E].Src == Reg.Def &&
            Edges[E].Dst == U.Consumer && Edges[E].Distance == U.Distance) {
          FromFlow[E] = true;
          Flows.push_back({Reg.Def, U.Consumer, Edges[E].Latency, U.Distance});
          break;
        }
  std::vector<int> PureEdges;
  for (size_t E = 0; E != Edges.size(); ++E)
    if (!FromFlow[E])
      PureEdges.push_back(int(E));

  for (int I : Shuffled(int(Flows.size()))) {
    const Flow &F = Flows[size_t(I)];
    Out.addFlowDependence(Perm[size_t(F.Def)], Perm[size_t(F.Use)], F.Latency,
                          F.Distance);
  }
  for (int I : Shuffled(int(PureEdges.size()))) {
    const SchedEdge &E = Edges[size_t(PureEdges[size_t(I)])];
    Out.addSchedEdge(Perm[size_t(E.Src)], Perm[size_t(E.Dst)], E.Latency,
                     E.Distance);
  }
  for (const VirtualRegister &Reg : G.registers())
    if (Reg.Uses.empty())
      Out.ensureRegister(Perm[size_t(Reg.Def)]);
  return Out;
}

std::string recordId(const std::string &Name, Objective Obj) {
  return Name + "/" + objectiveName(Obj);
}

const char *statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::NodeLimit:
    return "node_limit";
  case Status::Censored:
    return "censored";
  case Status::Timeout:
    return "timeout";
  case Status::Unsolved:
    return "unsolved";
  }
  return "unknown";
}

std::optional<Status> parseStatus(const std::string &Name) {
  for (Status S : {Status::Ok, Status::NodeLimit, Status::Censored,
                   Status::Timeout, Status::Unsolved})
    if (Name == statusName(S))
      return S;
  return std::nullopt;
}

Status classify(bool Found, bool TimedOut, bool NodeLimitHit,
                double Seconds) {
  if (Found)
    return Status::Ok;
  // The MIP reports an LP that gave up on its pivot budget as a time
  // limit; only a solve that actually ran into the wall clock is one.
  if (TimedOut && Seconds >= 0.9 * WallClockLimitSeconds)
    return Status::Timeout;
  if (NodeLimitHit)
    return Status::NodeLimit;
  if (TimedOut)
    return Status::Censored;
  return Status::Unsolved;
}

std::string expectedPath(const std::string &Dir, const std::string &Workload,
                         uint64_t SuiteSeed) {
  return Dir + "/" + Workload + "-" + std::to_string(SuiteSeed) + ".tsv";
}

ExpectedTable loadExpected(const std::string &Path) {
  ExpectedTable Table;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Id, StatusText, IiText, ValueText;
    Expected E;
    if (!(Fields >> Id >> E.Ops >> StatusText >> IiText >> ValueText >>
          E.Pin))
      continue;
    std::optional<Status> S = parseStatus(StatusText);
    if (!S)
      continue;
    E.St = *S;
    if (E.St == Status::Ok) {
      E.II = std::stoi(IiText);
      E.Value = std::stod(ValueText);
    }
    Table[Id] = E;
  }
  return Table;
}

bool writeExpected(const std::string &Path, const ExpectedTable &Table,
                   const std::string &Header) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "# " << Header << "\n";
  Out << "# id\tops\tstatus\tii\tvalue\tpin\n";
  for (const auto &[Id, E] : Table) {
    Out << Id << '\t' << E.Ops << '\t' << statusName(E.St) << '\t';
    if (E.St == Status::Ok)
      Out << E.II << '\t' << E.Value;
    else
      Out << "-\t-";
    Out << '\t' << E.Pin << '\n';
  }
  return bool(Out);
}

double recomputeObjective(const DependenceGraph &G, const ModuloSchedule &S,
                          Objective Obj) {
  if (Obj == Objective::None)
    return 0.0;
  RegisterPressure P = computeRegisterPressure(G, S);
  switch (Obj) {
  case Objective::MinReg:
    return P.MaxLive;
  case Objective::MinBuff:
    return double(P.Buffers);
  case Objective::MinLife:
    return double(P.TotalLifetime);
  default:
    return -1.0; // Not an objective of this benchmark.
  }
}

std::optional<std::string> checkVerdict(const DependenceGraph &G,
                                        const MachineModel &M, Objective Obj,
                                        const Verdict &V, const Expected *E) {
  const int LoopMii = mii(G, M);
  if (V.Mii >= 0 && V.Mii != LoopMii)
    return "reported MII " + std::to_string(V.Mii) + " != " +
           std::to_string(LoopMii);
  switch (V.St) {
  case Status::Timeout:
    return std::string("wall-clock timeout");
  case Status::NodeLimit:
  case Status::Censored:
    // Undecided within the deterministic budget; an expected entry of
    // "unsolved" would be a contradiction but never occurs for loops
    // that are schedulable at some II.
    return std::nullopt;
  case Status::Unsolved:
    if (E && E->St == Status::Unsolved)
      return std::nullopt;
    return std::string("no schedule within the II range");
  case Status::Ok:
    break;
  }
  if (V.II < LoopMii)
    return "II " + std::to_string(V.II) + " below MII " +
           std::to_string(LoopMii);
  if (V.Schedule) {
    if (V.Schedule->ii() != V.II)
      return "schedule II " + std::to_string(V.Schedule->ii()) +
             " != reported II " + std::to_string(V.II);
    if (V.Schedule->numOperations() != G.numOperations())
      return std::string("schedule has the wrong number of operations");
    if (std::optional<std::string> Err = verifySchedule(G, M, *V.Schedule))
      return "verifier rejects the schedule: " + *Err;
    double Value = recomputeObjective(G, *V.Schedule, Obj);
    if (std::abs(Value - V.Objective) > 1e-6)
      return "reported objective " + std::to_string(V.Objective) +
             " != recomputed " + std::to_string(Value);
  }
  if (E && E->St == Status::Ok &&
      (E->II != V.II || std::abs(E->Value - V.Objective) > 1e-6))
    return "verdict II=" + std::to_string(V.II) +
           " objective=" + std::to_string(V.Objective) +
           " differs from expected II=" + std::to_string(E->II) +
           " objective=" + std::to_string(E->Value);
  if (E && E->St == Status::Unsolved)
    return std::string("expected no schedule, got one");
  return std::nullopt;
}

} // namespace e2e
