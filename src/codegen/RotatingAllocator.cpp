//===- codegen/RotatingAllocator.cpp - Rotating register allocation -------===//

#include "codegen/RotatingAllocator.h"

#include "sched/AttemptFrame.h"
#include "sched/RegisterPressure.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace modsched;

namespace {

long ceilDiv(long A, long B) { return floorDiv(A + B - 1, B); }

/// True iff registers with lifetimes [Dv,Kv] and [Dw,Kw] (iteration-0
/// instances) collide in a file of size \p R when their base offsets
/// differ by \p BaseDiff = b(v) - b(w): some iteration distance
/// Delta = j - i with Delta == BaseDiff (mod R) makes instance (w, j)
/// overlap instance (v, i) in time. \p SameRegister excludes Delta == 0.
bool collide(long Dv, long Kv, long Dw, long Kw, int II, int R,
             long BaseDiff, bool SameRegister) {
  long Lo = ceilDiv(Dv - Kw, II);
  long Hi = floorDiv<long>(Kv - Dw, II);
  for (long Delta = Lo; Delta <= Hi; ++Delta) {
    if (SameRegister && Delta == 0)
      continue;
    if (modPos<long>(Delta - BaseDiff, R) == 0)
      return true;
  }
  return false;
}

} // namespace

std::optional<RotatingAllocation>
modsched::allocateRotating(const DependenceGraph &G,
                           const ModuloSchedule &S) {
  int NumRegs = G.numRegisters();
  RegisterPressure P = computeRegisterPressure(G, S);

  RotatingAllocation Out;
  Out.MaxLive = P.MaxLive;
  if (NumRegs == 0) {
    Out.FileSize = 0;
    return Out;
  }

  std::vector<long> Def(NumRegs), Kill(NumRegs);
  for (int Reg = 0; Reg < NumRegs; ++Reg) {
    Def[Reg] = S.time(G.registers()[Reg].Def);
    Kill[Reg] = registerKillTime(G, S, Reg);
  }

  // First-fit in increasing def-time order, growing the file on failure.
  std::vector<int> Order(NumRegs);
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(),
            [&Def](int A, int B) { return Def[A] < Def[B]; });

  int II = S.ii();
  for (int R = std::max(1, P.MaxLive); R <= P.MaxLive + NumRegs + 1; ++R) {
    std::vector<int> Base(NumRegs, -1);
    bool Ok = true;
    for (int V : Order) {
      int Chosen = -1;
      for (int B = 0; B < R && Chosen < 0; ++B) {
        bool Clash =
            collide(Def[V], Kill[V], Def[V], Kill[V], II, R, 0,
                    /*SameRegister=*/true);
        for (int W : Order) {
          if (Clash || W == V)
            break;
          if (Base[W] < 0)
            continue;
          Clash = collide(Def[V], Kill[V], Def[W], Kill[W], II, R,
                          B - Base[W], /*SameRegister=*/false);
        }
        if (!Clash)
          Chosen = B;
      }
      if (Chosen < 0) {
        Ok = false;
        break;
      }
      Base[V] = Chosen;
    }
    if (Ok) {
      Out.FileSize = R;
      Out.BaseOffset = std::move(Base);
      return Out;
    }
  }
  return std::nullopt;
}

bool modsched::verifyRotatingAllocation(const DependenceGraph &G,
                                        const ModuloSchedule &S,
                                        const RotatingAllocation &A) {
  int NumRegs = G.numRegisters();
  if (static_cast<int>(A.BaseOffset.size()) != NumRegs)
    return NumRegs == 0;
  int II = S.ii();
  for (int V = 0; V < NumRegs; ++V) {
    long Dv = S.time(G.registers()[V].Def);
    long Kv = registerKillTime(G, S, V);
    if (collide(Dv, Kv, Dv, Kv, II, A.FileSize, 0, /*SameRegister=*/true))
      return false;
    for (int W = V + 1; W < NumRegs; ++W) {
      long Dw = S.time(G.registers()[W].Def);
      long Kw = registerKillTime(G, S, W);
      if (collide(Dv, Kv, Dw, Kw, II, A.FileSize,
                  A.BaseOffset[V] - A.BaseOffset[W],
                  /*SameRegister=*/false))
        return false;
    }
  }
  return true;
}
