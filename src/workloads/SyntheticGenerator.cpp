//===- workloads/SyntheticGenerator.cpp - Random loop DDGs ----------------===//

#include "workloads/SyntheticGenerator.h"

#include "workloads/KernelLibrary.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace modsched;

namespace {

/// Picks an arithmetic operation class, weighted toward cheap ops.
int pickArithClass(const MachineModel &M, Rng &R) {
  double P = R.nextDouble();
  const char *Name;
  if (P < 0.42)
    Name = opclasses::Add;
  else if (P < 0.62)
    Name = opclasses::Sub;
  else if (P < 0.88)
    Name = opclasses::Mul;
  else if (P < 0.94)
    Name = opclasses::Div;
  else
    Name = opclasses::Copy;
  std::optional<int> Class = M.findOpClass(Name);
  assert(Class && "built-in machines define all canonical classes");
  return *Class;
}

} // namespace

DependenceGraph modsched::generateLoop(const MachineModel &M, Rng &R,
                                       const SyntheticOptions &Opts) {
  DependenceGraph G;
  int N = static_cast<int>(R.nextInRange(Opts.MinOps, Opts.MaxOps));

  int LoadClass = *M.findOpClass(opclasses::Load);
  int StoreClass = *M.findOpClass(opclasses::Store);

  // Decide op kinds: a prefix of loads, a body of arithmetic, stores
  // sprinkled at the end region. At least one load when any op consumes.
  std::vector<int> Kind(N); // 0 = load, 1 = arith, 2 = store.
  int NumLoads = std::max(1, static_cast<int>(N * Opts.LoadFraction));
  int NumStores = std::max(N >= 3 ? 1 : 0,
                           static_cast<int>(N * Opts.StoreFraction));
  NumLoads = std::min(NumLoads, N);
  NumStores = std::min(NumStores, N - NumLoads);
  for (int I = 0; I < N; ++I)
    Kind[I] = I < NumLoads ? 0 : 1;
  for (int S = 0; S < NumStores; ++S)
    Kind[N - 1 - S] = 2;

  for (int I = 0; I < N; ++I) {
    int Class = Kind[I] == 0   ? LoadClass
                : Kind[I] == 2 ? StoreClass
                               : pickArithClass(M, R);
    const char *Prefix = Kind[I] == 0 ? "ld" : Kind[I] == 2 ? "st" : "op";
    G.addOperation(Prefix + std::to_string(I), Class);
  }

  auto LatencyOf = [&](int Op) {
    return M.opClass(G.operation(Op).OpClass).Latency;
  };

  // Same-iteration flow dependences: each non-load op consumes one or two
  // earlier values (forward edges only, so no same-iteration cycles).
  for (int I = NumLoads; I < N; ++I) {
    int NumOperands = 1 + (R.nextBool(Opts.SecondOperandProb) ? 1 : 0);
    for (int Operand = 0; Operand < NumOperands; ++Operand) {
      int Def = static_cast<int>(R.nextBelow(I));
      if (Kind[Def] == 2)
        Def = static_cast<int>(R.nextBelow(NumLoads)); // Stores produce
                                                       // no value.
      int Distance =
          R.nextBool(Opts.CrossIterationUseProb)
              ? static_cast<int>(R.nextInRange(1, Opts.MaxDistance))
              : 0;
      G.addFlowDependence(Def, I, LatencyOf(Def), Distance);
    }
  }

  // Loop-carried recurrences: close a cycle from a later arithmetic op
  // back to an earlier arithmetic op with distance >= 1.
  if (R.nextBool(Opts.RecurrenceProb)) {
    int NumRecurrences = 1 + (R.nextBool(0.25) ? 1 : 0);
    for (int Rec = 0; Rec < NumRecurrences; ++Rec) {
      // Choose arithmetic src/dst with src >= dst.
      int FirstArith = NumLoads;
      int LastArith = N - 1 - NumStores;
      if (LastArith < FirstArith)
        break;
      int Src = static_cast<int>(R.nextInRange(FirstArith, LastArith));
      int Dst = static_cast<int>(R.nextInRange(FirstArith, Src));
      int Distance = static_cast<int>(R.nextInRange(1, Opts.MaxDistance));
      G.addFlowDependence(Src, Dst, LatencyOf(Src), Distance);
    }
  }

  // Occasionally add a may-alias memory ordering edge between a store and
  // a later iteration's load.
  if (NumStores > 0 && R.nextBool(0.2)) {
    int Store = N - 1;
    int Load = static_cast<int>(R.nextBelow(NumLoads));
    G.addSchedEdge(Store, Load, 1,
                   static_cast<int>(R.nextInRange(1, Opts.MaxDistance)));
  }

  assert(!G.validate() && "generator produced an invalid graph");
  return G;
}

std::vector<DependenceGraph>
modsched::generateSuite(const MachineModel &M, int Count, uint64_t Seed,
                        bool IncludeKernels, int LargeCap) {
  std::vector<DependenceGraph> Suite;
  if (IncludeKernels)
    Suite = allKernels(M);

  assert(LargeCap >= 3 && "LargeCap below the smallest loop size");
  Rng R(Seed);
  for (int I = 0; I < Count; ++I) {
    SyntheticOptions Opts;
    // Size bands mirroring the paper's skew: mostly small loops
    // (median ~9 ops), some medium, a thin tail of large ones. Every
    // band is clamped to LargeCap, which changes no draw when
    // LargeCap >= 22.
    double Band = R.nextDouble();
    if (Band < 0.60) {
      Opts.MinOps = 3;
      Opts.MaxOps = 10;
    } else if (Band < 0.90) {
      Opts.MinOps = 10;
      Opts.MaxOps = 22;
    } else {
      Opts.MinOps = 22;
      Opts.MaxOps = LargeCap;
    }
    Opts.MinOps = std::min(Opts.MinOps, LargeCap);
    Opts.MaxOps = std::min(Opts.MaxOps, LargeCap);
    DependenceGraph G = generateLoop(M, R, Opts);
    G.setName("synthetic" + std::to_string(I));
    Suite.push_back(std::move(G));
  }
  return Suite;
}
