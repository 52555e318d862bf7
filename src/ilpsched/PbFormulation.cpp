//===- ilpsched/PbFormulation.cpp - PB modulo scheduling models -----------===//

#include "ilpsched/PbFormulation.h"

#include <algorithm>
#include <cassert>

using namespace modsched;

bool PbFormulation::supports(const FormulationOptions &O) {
  if (O.InstanceMapped)
    return false; // Marginal/conflict rows need the y auxiliaries.
  if (O.Obj == Objective::MinSL)
    return false; // Sink machinery not encoded.
  if (O.Obj != Objective::None && O.ObjStyle == ObjectiveStyle::Traditional)
    return false; // Only the structured objective machinery is encoded.
  return true;
}

PbFormulation::PbFormulation(const DependenceGraph &DG, const MachineModel &MM,
                             const AttemptFrame &Frame,
                             const FormulationOptions &Options)
    : G(DG), M(MM), II(Frame.II), Opts(Options), Valid(Frame.Valid),
      MaxTime(Frame.MaxTime) {
  assert(supports(Opts) && "options not supported by the PB backend");
  if (!Valid)
    return; // II below the recurrence bound: infeasible.

  int N = G.numOperations();

  // A matrix: a[r][i] literals, laid out op-major exactly like the ILP.
  ABase = S.numVars();
  for (int V = 0; V < N * II; ++V)
    S.newVar();

  // k vector: order-encoded stages with window-derived bounds.
  KVars.reserve(size_t(N));
  for (const StageBounds &K : Frame.Stage)
    KVars.push_back(makeIntVar(K.Min, K.Max));

  for (int Op = 0; Op < N; ++Op)
    buildAssignment(ABase + Op * II);
  for (const SchedEdge &E : G.schedEdges())
    emitDependence(ABase + E.Src * II, KVars[size_t(E.Src)],
                   ABase + E.Dst * II, KVars[size_t(E.Dst)], E.Latency,
                   E.Distance);
  buildResource(Frame);
  buildObjective(Frame);
}

PbFormulation::IntVar PbFormulation::makeIntVar(int Lo, int Hi) {
  assert(Lo <= Hi && "empty integer domain");
  IntVar V;
  V.Lo = Lo;
  V.Hi = Hi;
  V.BitBase = S.numVars();
  for (int B = 0; B < Hi - Lo; ++B)
    S.newVar();
  // Order encoding: bit s implies bit s-1, so models are exactly the
  // unary encodings of Lo .. Hi.
  for (int B = 1; B < Hi - Lo; ++B)
    S.addClause({pb::negLit(V.BitBase + B), pb::posLit(V.BitBase + B - 1)});
  return V;
}

int64_t PbFormulation::intValue(const IntVar &V) const {
  int64_t Val = V.Lo;
  for (int B = 0; B < V.numBits(); ++B)
    if (S.modelValue(V.BitBase + B))
      ++Val;
  return Val;
}

void PbFormulation::appendInt(LinExpr &E, const IntVar &V,
                              int64_t Coeff) const {
  if (Coeff == 0)
    return;
  E.Constant += Coeff * V.Lo;
  for (int B = 0; B < V.numBits(); ++B)
    E.Terms.push_back({pb::posLit(V.BitBase + B), Coeff});
}

void PbFormulation::appendRowRange(LinExpr &E, pb::Var RowBase, int Lo, int Hi,
                                   int64_t Coeff) const {
  for (int Row = Lo; Row <= Hi; ++Row)
    E.Terms.push_back({pb::posLit(RowBase + Row), Coeff});
}

void PbFormulation::addGe(LinExpr E, int64_t Rhs) {
  S.addLinear(std::move(E.Terms), Rhs - E.Constant);
}

void PbFormulation::addLe(LinExpr E, int64_t Rhs) {
  for (std::pair<pb::Lit, int64_t> &T : E.Terms)
    T.second = -T.second;
  E.Constant = -E.Constant;
  addGe(std::move(E), -Rhs);
}

void PbFormulation::buildAssignment(pb::Var RowBase) {
  // Eq. (1): exactly one row. At-least-one clause plus an at-most-one
  // cardinality row (sum of negations >= II - 1).
  std::vector<pb::Lit> AtLeast;
  AtLeast.reserve(size_t(II));
  for (int Row = 0; Row < II; ++Row)
    AtLeast.push_back(pb::posLit(RowBase + Row));
  S.addClause(std::move(AtLeast));
  if (II > 1) {
    std::vector<pb::Lit> AtMost;
    AtMost.reserve(size_t(II));
    for (int Row = 0; Row < II; ++Row)
      AtMost.push_back(pb::negLit(RowBase + Row));
    S.addAtLeast(std::move(AtMost), II - 1);
  }
}

void PbFormulation::emitDependence(pb::Var SrcRowBase, const IntVar &SrcK,
                                   pb::Var DstRowBase, const IntVar &DstK,
                                   int Latency, int Distance) {
  if (Opts.DepStyle == DependenceStyle::Traditional) {
    // Ineq. (4): sum_r r*(a_dst - a_src) + (k_dst - k_src)*II
    //            >= latency - distance*II. A general PB row.
    LinExpr E;
    for (int Row = 1; Row < II; ++Row) {
      E.Terms.push_back({pb::posLit(DstRowBase + Row), Row});
      E.Terms.push_back({pb::posLit(SrcRowBase + Row), -Row});
    }
    appendInt(E, DstK, II);
    appendInt(E, SrcK, -II);
    addGe(std::move(E), int64_t(Latency) - int64_t(Distance) * II);
    return;
  }

  // Ineq. (19)/(20): one cardinality-like row per MRT row (identical to
  // Formulation::emitDependence; see the comment there).
  bool Tighten = Opts.DepStyle == DependenceStyle::Structured;
  for (int Row = 0; Row < II; ++Row) {
    int F = floorDiv(Row + Latency - 1, II);
    int RowF = modPos(Row + Latency - 1, II);
    LinExpr E;
    if (Tighten)
      appendRowRange(E, SrcRowBase, Row, II - 1, 1);
    else
      E.Terms.push_back({pb::posLit(SrcRowBase + Row), 1});
    appendRowRange(E, DstRowBase, 0, RowF, 1);
    appendInt(E, SrcK, 1);
    appendInt(E, DstK, -1);
    addLe(std::move(E), int64_t(Distance) - F + 1);
  }
}

void PbFormulation::buildResource(const AttemptFrame &Frame) {
  // Ineq. (5). Resources whose total usage cannot exceed their
  // multiplicity in any row are not modeled (paper convention).
  for (int R = 0; R < M.numResources(); ++R) {
    if (Frame.ResourceUses[R] <= M.resource(R).Count)
      continue;
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Op = 0; Op < G.numOperations(); ++Op) {
        const OpClass &Class = M.opClass(G.operation(Op).OpClass);
        for (const ResourceUsage &U : Class.Usages) {
          if (U.Resource != R)
            continue;
          int SrcRow = modPos(Row - U.Cycle, II);
          E.Terms.push_back({aLit(SrcRow, Op), 1});
        }
      }
      // Duplicate literals (usage cycles congruent mod II) merge into
      // coefficient-2 terms during normalization, exactly like lp::Model.
      addLe(std::move(E), M.resource(R).Count);
    }
  }
}

void PbFormulation::appendLiveCount(LinExpr &E, int Reg, int Row) const {
  const VirtualRegister &R = G.registers()[size_t(Reg)];
  appendInt(E, KillStage[size_t(Reg)], 1);
  appendInt(E, KVars[size_t(R.Def)], -1);
  appendRowRange(E, KillRowBase[size_t(Reg)], Row, II - 1, 1);
  if (Row + 1 <= II - 1)
    appendRowRange(E, ABase + R.Def * II, Row + 1, II - 1, -1);
}

void PbFormulation::buildKillOps(const AttemptFrame &Frame) {
  if (!KillRowBase.empty())
    return; // Already built.
  int NumRegs = G.numRegisters();
  KillRowBase.assign(size_t(NumRegs), -1);
  KillStage.resize(size_t(NumRegs));
  for (int Reg = 0; Reg < NumRegs; ++Reg) {
    const VirtualRegister &R = G.registers()[size_t(Reg)];
    KillRowBase[size_t(Reg)] = S.numVars();
    for (int Row = 0; Row < II; ++Row)
      S.newVar();
    KillStage[size_t(Reg)] = makeIntVar(Frame.KillStage[Reg].Min,
                                        Frame.KillStage[Reg].Max);

    buildAssignment(KillRowBase[size_t(Reg)]);

    // The kill follows the definition and every use (latency 0,
    // distance -w for a use at distance w).
    emitDependence(ABase + R.Def * II, KVars[size_t(R.Def)],
                   KillRowBase[size_t(Reg)], KillStage[size_t(Reg)],
                   /*Latency=*/0, /*Distance=*/0);
    for (const RegisterUse &U : R.Uses)
      emitDependence(ABase + U.Consumer * II, KVars[size_t(U.Consumer)],
                     KillRowBase[size_t(Reg)], KillStage[size_t(Reg)],
                     /*Latency=*/0, -U.Distance);
  }
}

void PbFormulation::buildObjective(const AttemptFrame &Frame) {
  // Appends Coeff * V to the objective (constant + per-bit terms).
  auto AppendObjInt = [this](const IntVar &V, int64_t Coeff) {
    LinExpr E;
    appendInt(E, V, Coeff);
    ObjConst += E.Constant;
    ObjTerms.insert(ObjTerms.end(), E.Terms.begin(), E.Terms.end());
  };

  // Register-file budget: hard per-row cap on the live count.
  if (Opts.RegisterLimit >= 0 && G.numRegisters() > 0) {
    assert(Opts.Obj != Objective::MinReg &&
           "RegisterLimit with MinReg is redundant; pick one");
    buildKillOps(Frame);
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Reg = 0; Reg < G.numRegisters(); ++Reg)
        appendLiveCount(E, Reg, Row);
      addLe(std::move(E), Opts.RegisterLimit);
    }
  }

  if (Opts.Obj == Objective::None)
    return;
  assert(Opts.Obj != Objective::MinSL && "rejected by supports()");

  if (G.numRegisters() == 0)
    return; // All register objectives are trivially zero.

  int NumRegs = G.numRegisters();
  if (Opts.Obj == Objective::MinReg || Opts.Obj == Objective::MinLife)
    buildKillOps(Frame);

  switch (Opts.Obj) {
  case Objective::None:
  case Objective::MinSL:
    break; // Handled above.

  case Objective::MinReg: {
    // MaxLive >= sum of per-register live counts, for every row; the
    // counter is order-encoded between the same bounds the ILP derives
    // (lower: ceil(sum of minimum lifetimes / II); upper: sum of the
    // per-register worst-case stage spans, which no live count exceeds).
    const int MaxLiveLb = Frame.MaxLiveLowerBound;
    int MaxLiveUb = 0;
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      MaxLiveUb +=
          KillStage[size_t(Reg)].Hi - KVars[size_t(R.Def)].Lo + 1;
    }
    MaxLiveUb = std::max(MaxLiveUb, MaxLiveLb);
    MaxLiveVar = makeIntVar(MaxLiveLb, MaxLiveUb);
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        appendLiveCount(E, Reg, Row);
      appendInt(E, MaxLiveVar, -1);
      addLe(std::move(E), 0);
    }
    AppendObjInt(MaxLiveVar, 1);
    break;
  }

  case Objective::MinBuff: {
    // Structured ([15]-style) buffer counting, one +/-1 row per
    // (use, MRT row); the buffer counter's window is the largest stage
    // span any use can force.
    BufferVars.resize(size_t(NumRegs));
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      const int BufLb = Frame.BufferLowerBound[Reg];
      int BufUb = BufLb;
      for (const RegisterUse &U : R.Uses)
        BufUb = std::max(BufUb, KVars[size_t(U.Consumer)].Hi + U.Distance -
                                    KVars[size_t(R.Def)].Lo + 1);
      BufferVars[size_t(Reg)] = makeIntVar(BufLb, BufUb);
      for (const RegisterUse &U : R.Uses) {
        for (int Row = 0; Row < II; ++Row) {
          LinExpr E;
          appendInt(E, KVars[size_t(U.Consumer)], 1);
          appendInt(E, KVars[size_t(R.Def)], -1);
          appendInt(E, BufferVars[size_t(Reg)], -1);
          appendRowRange(E, ABase + U.Consumer * II, Row, II - 1, 1);
          if (Row + 1 <= II - 1)
            appendRowRange(E, ABase + R.Def * II, Row + 1, II - 1, -1);
          addLe(std::move(E), -int64_t(U.Distance));
        }
      }
      AppendObjInt(BufferVars[size_t(Reg)], 1);
    }
    break;
  }

  case Objective::MinLife: {
    // Structured: objective-only terms, no auxiliary constraints. Total
    // lifetime of v is II*(killStage - k_def) + sum_z (z+1)*killRow[z]
    // - sum_z z*a[z][def] (see Formulation.h).
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      AppendObjInt(KillStage[size_t(Reg)], II);
      AppendObjInt(KVars[size_t(R.Def)], -II);
      for (int Row = 0; Row < II; ++Row) {
        ObjTerms.push_back(
            {pb::posLit(KillRowBase[size_t(Reg)] + Row), Row + 1});
        if (Row > 0)
          ObjTerms.push_back({aLit(Row, R.Def), -Row});
      }
    }
    break;
  }
  }
}

int64_t PbFormulation::evalObjective() const {
  int64_t Val = ObjConst;
  for (const std::pair<pb::Lit, int64_t> &T : ObjTerms)
    if (S.modelValue(T.first.var()) != T.first.negated())
      Val += T.second;
  return Val;
}

bool PbFormulation::pushObjectiveBound(int64_t Bound) {
  // objective <= Bound, i.e. sum(-c_i * l_i) >= ObjConst - Bound, gated
  // by a fresh selector: a true selector contributes enough weight to
  // satisfy the row outright, so only solves assuming ~selector enforce
  // the bound — and learned clauses survive every tightening.
  pb::Var Sel = S.newVar();
  std::vector<std::pair<pb::Lit, int64_t>> Terms;
  Terms.reserve(ObjTerms.size() + 1);
  int64_t PosSum = 0;
  for (const std::pair<pb::Lit, int64_t> &T : ObjTerms) {
    Terms.push_back({T.first, -T.second});
    PosSum += std::max<int64_t>(T.second, 0);
  }
  int64_t Degree = ObjConst - Bound;
  int64_t Weight = std::max<int64_t>(Degree + PosSum, 1);
  Terms.push_back({pb::posLit(Sel), Weight});
  bool RowOk = S.addLinear(std::move(Terms), Degree);
  Assumps.assign(1, pb::negLit(Sel));
  return RowOk && S.okay();
}

ModuloSchedule PbFormulation::decode() const {
  assert(Valid && "cannot decode from an invalid formulation");
  int N = G.numOperations();
  std::vector<int> Times(size_t(N), 0);
  for (int Op = 0; Op < N; ++Op) {
    int Row = -1;
    for (int R = 0; R < II; ++R) {
      if (S.modelValue(aVar(R, Op))) {
        assert(Row < 0 && "operation assigned to two MRT rows");
        Row = R;
      }
    }
    assert(Row >= 0 && "operation not assigned to any MRT row");
    Times[size_t(Op)] = int(intValue(KVars[size_t(Op)])) * II + Row;
  }
  return ModuloSchedule(II, std::move(Times));
}
