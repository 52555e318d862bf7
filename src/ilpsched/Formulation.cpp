//===- ilpsched/Formulation.cpp - ILP modulo scheduling models ------------===//

#include "ilpsched/Formulation.h"

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>

using namespace modsched;
using namespace modsched::lp;

namespace {

telemetry::Counter StatBuilt("ilpsched", "formulation.built",
                             "ILP formulations constructed");
telemetry::Counter StatRows("ilpsched", "formulation.rows",
                            "constraint rows emitted");
telemetry::Counter StatCols("ilpsched", "formulation.cols",
                            "variables emitted");
telemetry::Counter StatNonzeros("ilpsched", "formulation.nonzeros",
                                "constraint-matrix nonzeros emitted");
telemetry::PhaseTimer TimeBuild("ilpsched", "formulation.build",
                                "wall time building formulations");

} // namespace

Formulation::Formulation(const DependenceGraph &DG, const MachineModel &MM,
                         const AttemptFrame &Frame,
                         const FormulationOptions &Options)
    : G(DG), M(MM), II(Frame.II), Opts(Options), Valid(Frame.Valid),
      MaxTime(Frame.MaxTime) {
  // Build telemetry runs on every exit path, including the early
  // invalid-frame return.
  struct StatsOnExit {
    Formulation &F;
    Stopwatch Watch;
    ~StatsOnExit() { F.finalizeBuildStats(Watch.seconds()); }
  } FinalizeStats{*this, {}};

  if (!Valid)
    return; // II below the recurrence bound: infeasible.

  int N = G.numOperations();

  // A matrix: a[r][i] binary, laid out op-major. Branching priority is
  // highest: fixing MRT rows decides the resource packing, after which
  // the rest of the model is usually integral.
  ABase = 0;
  for (int Op = 0; Op < N; ++Op)
    for (int Row = 0; Row < II; ++Row) {
      int Var = Ilp.addBinaryVariable("a_r" + std::to_string(Row) + "_" +
                                      G.operation(Op).Name);
      Ilp.setBranchPriority(Var, 2);
    }

  // k vector: integer stages with window-derived bounds.
  KBase = Ilp.numVariables();
  for (int Op = 0; Op < N; ++Op) {
    int Var = Ilp.addVariable("k_" + G.operation(Op).Name,
                              Frame.Stage[Op].Min, Frame.Stage[Op].Max, 0.0,
                              VarKind::Integer);
    Ilp.setBranchPriority(Var, 1);
  }

  buildAssignment();
  for (int Edge = 0; Edge < G.numSchedEdges(); ++Edge)
    buildDependence(G.schedEdges()[Edge]);
  buildResource(Frame);
  buildObjective(Frame);
}

void Formulation::finalizeBuildStats(double BuildSeconds) {
  BuildStats.BuildSeconds = BuildSeconds;
  BuildStats.Columns = Ilp.numVariables();
  BuildStats.IntegerColumns = Ilp.numIntegerVariables();
  BuildStats.Rows = Ilp.numConstraints();
  BuildStats.Nonzeros = 0;
  BuildStats.Families.clear();

  // Classify rows by name prefix up to the first '_'.
  auto FamilyOf = [this](std::string_view Name) -> FormulationStats::Family & {
    std::string_view Prefix = Name.substr(0, Name.find('_'));
    for (FormulationStats::Family &F : BuildStats.Families)
      if (F.Name == Prefix)
        return F;
    BuildStats.Families.push_back({std::string(Prefix), 0, 0});
    return BuildStats.Families.back();
  };
  for (const Constraint &C : Ilp.constraints()) {
    FormulationStats::Family &F = FamilyOf(C.Name);
    ++F.Rows;
    F.Nonzeros += static_cast<int64_t>(C.Terms.size());
    BuildStats.Nonzeros += static_cast<int64_t>(C.Terms.size());
  }
  std::sort(BuildStats.Families.begin(), BuildStats.Families.end(),
            [](const FormulationStats::Family &A,
               const FormulationStats::Family &B) { return A.Name < B.Name; });

  ++StatBuilt;
  StatRows += BuildStats.Rows;
  StatCols += BuildStats.Columns;
  StatNonzeros += BuildStats.Nonzeros;
  TimeBuild.addSample(BuildSeconds);
  if (telemetry::tracingEnabled())
    telemetry::instant("ilpsched", "formulation.build",
                       {{"ii", II},
                        {"valid", Valid ? 1 : 0},
                        {"rows", BuildStats.Rows},
                        {"cols", BuildStats.Columns},
                        {"nonzeros", BuildStats.Nonzeros},
                        {"seconds", BuildSeconds}});
}

void Formulation::buildAssignment() {
  for (int Op = 0; Op < G.numOperations(); ++Op) {
    std::vector<Term> Terms;
    appendRowRange(Terms, ABase + Op * II, 0, II - 1, 1.0);
    Ilp.addConstraint(std::move(Terms), ConstraintSense::EQ, 1.0,
                      "assign_" + G.operation(Op).Name);
  }
}

void Formulation::appendRowRange(std::vector<Term> &Terms, int RowBase,
                                 int Lo, int Hi, double Coeff) const {
  for (int Row = Lo; Row <= Hi; ++Row)
    Terms.push_back({RowBase + Row, Coeff});
}

void Formulation::emitDependence(int SrcRowBase, int SrcK, int DstRowBase,
                                 int DstK, int Latency, int Distance,
                                 const std::string &Tag) {
  if (Opts.DepStyle == DependenceStyle::Traditional) {
    // Ineq. (4): sum_r r*(a_dst - a_src) + (k_dst - k_src)*II
    //            >= latency - distance*II.
    std::vector<Term> Terms;
    for (int Row = 1; Row < II; ++Row) {
      Terms.push_back({DstRowBase + Row, double(Row)});
      Terms.push_back({SrcRowBase + Row, -double(Row)});
    }
    Terms.push_back({DstK, double(II)});
    Terms.push_back({SrcK, -double(II)});
    Ilp.addConstraint(std::move(Terms), ConstraintSense::GE,
                      Latency - double(Distance) * II, Tag);
    return;
  }

  // Ineq. (19)/(20): one 0-1-structured constraint per MRT row r.
  // Precedence "use time > last forbidden time" becomes, with
  //   F    = floor((r + latency - 1) / II)
  //   RowF = (r + latency - 1) mod II:
  //   [src in row >= r] + sum_{z=0}^{RowF} a_dst[z] + k_src - k_dst
  //     <= distance - F + 1
  // where [src in row >= r] is a_src[r] alone for the untightened
  // Ineq. (19) and the full suffix sum for Ineq. (20).
  bool Tighten = Opts.DepStyle == DependenceStyle::Structured;
  for (int Row = 0; Row < II; ++Row) {
    int F = floorDiv(Row + Latency - 1, II);
    int RowF = modPos(Row + Latency - 1, II);
    std::vector<Term> Terms;
    if (Tighten)
      appendRowRange(Terms, SrcRowBase, Row, II - 1, 1.0);
    else
      Terms.push_back({SrcRowBase + Row, 1.0});
    appendRowRange(Terms, DstRowBase, 0, RowF, 1.0);
    Terms.push_back({SrcK, 1.0});
    Terms.push_back({DstK, -1.0});
    Ilp.addConstraint(std::move(Terms), ConstraintSense::LE,
                      double(Distance) - F + 1,
                      Tag + "_r" + std::to_string(Row));
  }
}

void Formulation::buildDependence(const SchedEdge &E) {
  emitDependence(ABase + E.Src * II, kVar(E.Src), ABase + E.Dst * II,
                 kVar(E.Dst), E.Latency, E.Distance,
                 "dep_" + G.operation(E.Src).Name + "_" +
                     G.operation(E.Dst).Name);
}

void Formulation::buildResource(const AttemptFrame &Frame) {
  // Ineq. (5). Following the paper, resources whose total usage cannot
  // exceed their multiplicity in any row are not modeled.

  // Counting constraints (the paper's Ineq. (5)) for resource type R.
  auto EmitCountingRows = [this](int R) {
    for (int Row = 0; Row < II; ++Row) {
      std::vector<Term> Terms;
      for (int Op = 0; Op < G.numOperations(); ++Op) {
        const OpClass &Class = M.opClass(G.operation(Op).OpClass);
        for (const ResourceUsage &U : Class.Usages) {
          if (U.Resource != R)
            continue;
          int SrcRow = modPos(Row - U.Cycle, II);
          Terms.push_back({aVar(SrcRow, Op), 1.0});
        }
      }
      Ilp.addConstraint(std::move(Terms), ConstraintSense::LE,
                        M.resource(R).Count,
                        "res_" + M.resource(R).Name + "_r" +
                            std::to_string(Row));
    }
  };

  if (Opts.InstanceMapped)
    MapVarBase.assign(size_t(G.numOperations()) * M.numResources(), -1);

  for (int R = 0; R < M.numResources(); ++R) {
    if (Frame.ResourceUses[R] <= M.resource(R).Count)
      continue; // No row can ever oversubscribe this resource.
    int E = M.resource(R).Count;
    if (!Opts.InstanceMapped || E == 1) {
      // With one instance per type, counting and mapping coincide.
      EmitCountingRows(R);
      continue;
    }

    // Altman et al. [5]: each operation holds ONE instance of R for its
    // entire usage pattern. Per (op, instance) the auxiliary variable
    //   y[i][e][r] = (op i in row r) AND (op i mapped to instance e)
    // is forced by its two marginals (sum over e = a[r][i]; sum over
    // r = w[i][e]); at integral (a, w) the y are integral automatically,
    // so only the w choice binaries branch. All rows are 0-1-structured.
    std::vector<int> OpsUsing;
    std::vector<std::vector<int>> UsageCycles(G.numOperations());
    for (int Op = 0; Op < G.numOperations(); ++Op) {
      const OpClass &Class = M.opClass(G.operation(Op).OpClass);
      for (const ResourceUsage &U : Class.Usages)
        if (U.Resource == R)
          UsageCycles[Op].push_back(U.Cycle);
      if (!UsageCycles[Op].empty())
        OpsUsing.push_back(Op);
    }

    std::vector<int> YBase(G.numOperations(), -1);
    for (int Op : OpsUsing) {
      const std::string OpName = G.operation(Op).Name;
      const std::string ResName = M.resource(R).Name;
      int WBase = Ilp.numVariables();
      MapVarBase[size_t(Op) * M.numResources() + R] = WBase;
      for (int Inst = 0; Inst < E; ++Inst) {
        int Var = Ilp.addBinaryVariable("map_" + OpName + "_" + ResName +
                                        std::to_string(Inst));
        Ilp.setBranchPriority(Var, 1);
      }
      std::vector<Term> Choose;
      for (int Inst = 0; Inst < E; ++Inst)
        Choose.push_back({WBase + Inst, 1.0});
      Ilp.addConstraint(std::move(Choose), ConstraintSense::EQ, 1.0,
                        "choose_" + OpName + "_" + ResName);

      YBase[Op] = Ilp.numVariables();
      for (int Inst = 0; Inst < E; ++Inst)
        for (int Row = 0; Row < II; ++Row)
          Ilp.addVariable("y_" + OpName + "_" + ResName +
                              std::to_string(Inst) + "_r" +
                              std::to_string(Row),
                          0.0, 1.0);
      // Marginal over instances: recovers the row assignment.
      for (int Row = 0; Row < II; ++Row) {
        std::vector<Term> Terms;
        for (int Inst = 0; Inst < E; ++Inst)
          Terms.push_back({YBase[Op] + Inst * II + Row, 1.0});
        Terms.push_back({aVar(Row, Op), -1.0});
        Ilp.addConstraint(std::move(Terms), ConstraintSense::EQ, 0.0,
                          "ymargrow_" + OpName + "_" + ResName + "_r" +
                              std::to_string(Row));
      }
      // Marginal over rows: recovers the instance choice.
      for (int Inst = 0; Inst < E; ++Inst) {
        std::vector<Term> Terms;
        for (int Row = 0; Row < II; ++Row)
          Terms.push_back({YBase[Op] + Inst * II + Row, 1.0});
        Terms.push_back({WBase + Inst, -1.0});
        Ilp.addConstraint(std::move(Terms), ConstraintSense::EQ, 0.0,
                          "ymarginst_" + OpName + "_" + ResName +
                              std::to_string(Inst));
      }
    }

    // Conflict rows: each instance serves at most one reservation per
    // MRT row.
    for (int Inst = 0; Inst < E; ++Inst) {
      for (int Row = 0; Row < II; ++Row) {
        std::vector<Term> Terms;
        for (int Op : OpsUsing)
          for (int Cycle : UsageCycles[Op])
            Terms.push_back(
                {YBase[Op] + Inst * II + modPos(Row - Cycle, II), 1.0});
        Ilp.addConstraint(std::move(Terms), ConstraintSense::LE, 1.0,
                          "inst_" + M.resource(R).Name +
                              std::to_string(Inst) + "_r" +
                              std::to_string(Row));
      }
    }
  }
}

void Formulation::appendLiveCount(std::vector<Term> &Terms, int Reg,
                                  int Row) const {
  const VirtualRegister &R = G.registers()[Reg];
  Terms.push_back({KillStage[Reg], 1.0});
  Terms.push_back({kVar(R.Def), -1.0});
  appendRowRange(Terms, KillRowBase[Reg], Row, II - 1, 1.0);
  if (Row + 1 <= II - 1)
    appendRowRange(Terms, ABase + R.Def * II, Row + 1, II - 1, -1.0);
}

void Formulation::buildKillOps(const AttemptFrame &Frame) {
  if (!KillRowBase.empty())
    return; // Already built.
  int NumRegs = G.numRegisters();
  KillRowBase.assign(NumRegs, -1);
  KillStage.assign(NumRegs, -1);
  for (int Reg = 0; Reg < NumRegs; ++Reg) {
    const VirtualRegister &R = G.registers()[Reg];
    KillRowBase[Reg] = Ilp.numVariables();
    for (int Row = 0; Row < II; ++Row)
      Ilp.addBinaryVariable("kill_r" + std::to_string(Row) + "_v" +
                            std::to_string(Reg));
    KillStage[Reg] = Ilp.addVariable("killk_v" + std::to_string(Reg),
                                     Frame.KillStage[Reg].Min,
                                     Frame.KillStage[Reg].Max, 0.0,
                                     VarKind::Integer);

    // Assignment constraint for the kill row vector.
    std::vector<Term> Terms;
    appendRowRange(Terms, KillRowBase[Reg], 0, II - 1, 1.0);
    Ilp.addConstraint(std::move(Terms), ConstraintSense::EQ, 1.0,
                      "assign_kill_v" + std::to_string(Reg));

    // The kill follows the definition (covers a dead value's single
    // live cycle) and every use. A use at distance w constrains
    // t_kill >= t_use + w*II, i.e. a dependence with latency 0 and
    // distance -w.
    std::string TagBase = "kill_v" + std::to_string(Reg);
    emitDependence(ABase + R.Def * II, kVar(R.Def), KillRowBase[Reg],
                   KillStage[Reg], /*Latency=*/0, /*Distance=*/0,
                   TagBase + "_def");
    for (size_t UI = 0; UI < R.Uses.size(); ++UI) {
      const RegisterUse &U = R.Uses[UI];
      emitDependence(ABase + U.Consumer * II, kVar(U.Consumer),
                     KillRowBase[Reg], KillStage[Reg], /*Latency=*/0,
                     -U.Distance, TagBase + "_use" + std::to_string(UI));
    }
  }
}

void Formulation::buildObjective(const AttemptFrame &Frame) {
  // Register-file budget: a hard per-row cap on the live count,
  // independent of the secondary objective.
  if (Opts.RegisterLimit >= 0 && G.numRegisters() > 0) {
    assert(Opts.Obj != Objective::MinReg &&
           "RegisterLimit with MinReg is redundant; pick one");
    buildKillOps(Frame);
    for (int Row = 0; Row < II; ++Row) {
      std::vector<Term> Terms;
      for (int Reg = 0; Reg < G.numRegisters(); ++Reg)
        appendLiveCount(Terms, Reg, Row);
      Ilp.addConstraint(std::move(Terms), ConstraintSense::LE,
                        double(Opts.RegisterLimit),
                        "reglimit_r" + std::to_string(Row));
    }
  }

  if (Opts.Obj == Objective::None)
    return;

  if (Opts.Obj == Objective::MinSL) {
    // Schedule length = start time of a sink pseudo-operation that
    // follows every operation by one cycle (i.e. 1 + the latest start).
    // The sink is modeled exactly like a kill event: a row-assignment
    // vector and a stage, constrained through the same dependence
    // machinery, with the length II*stage + row minimized directly
    // (objective coefficients are exempt from 0-1 structure).
    SinkRowBase = Ilp.numVariables();
    for (int Row = 0; Row < II; ++Row)
      Ilp.addBinaryVariable("sink_r" + std::to_string(Row));
    SinkStage = Ilp.addVariable("sink_k", Frame.MinLength / II,
                                (MaxTime + 1) / II, double(II),
                                VarKind::Integer);
    std::vector<Term> Assign;
    appendRowRange(Assign, SinkRowBase, 0, II - 1, 1.0);
    Ilp.addConstraint(std::move(Assign), ConstraintSense::EQ, 1.0,
                      "assign_sink");
    for (int Row = 0; Row < II; ++Row)
      Ilp.setObjective(SinkRowBase + Row, double(Row));
    for (int Op = 0; Op < G.numOperations(); ++Op)
      emitDependence(ABase + Op * II, kVar(Op), SinkRowBase, SinkStage,
                     /*Latency=*/1, /*Distance=*/0,
                     "sink_after_" + G.operation(Op).Name);
    return;
  }

  if (G.numRegisters() == 0) {
    if (Opts.Obj == Objective::MinReg) {
      // Degenerate: no registers, MaxLive is trivially zero. Keep a
      // variable so the objective is well defined.
      MaxLiveVar = Ilp.addVariable("maxlive", 0.0, 0.0, 1.0);
    }
    return;
  }

  int NumRegs = G.numRegisters();

  if (Opts.Obj == Objective::MinReg || Opts.Obj == Objective::MinLife)
    buildKillOps(Frame);

  switch (Opts.Obj) {
  case Objective::None:
  case Objective::MinSL:
    break; // Handled above.

  case Objective::MinReg: {
    // MaxLive >= sum of per-register live counts, for every row. The
    // live-count expression is 0-1-structured (see header comment); this
    // is the paper's [4] objective, used for both dependence styles.
    // A constant lower bound ceil(sum of minimum lifetimes / II) tightens
    // the root relaxation.
    MaxLiveVar = Ilp.addVariable("maxlive", Frame.MaxLiveLowerBound,
                                 infinity(), 1.0);
    for (int Row = 0; Row < II; ++Row) {
      std::vector<Term> Terms;
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        appendLiveCount(Terms, Reg, Row);
      Terms.push_back({MaxLiveVar, -1.0});
      Ilp.addConstraint(std::move(Terms), ConstraintSense::LE, 0.0,
                        "maxlive_r" + std::to_string(Row));
    }
    break;
  }

  case Objective::MinBuff: {
    // Buffer count per register: ceil(longest def-to-use span / II),
    // at least 1. No kill pseudo-op is needed; the max over uses is
    // taken by >=-constraints on the shared buffer variable.
    BufferVar.assign(NumRegs, -1);
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[Reg];
      VarKind Kind = Opts.ObjStyle == ObjectiveStyle::Traditional
                         ? VarKind::Integer
                         : VarKind::Continuous;
      BufferVar[Reg] = Ilp.addVariable("buf_v" + std::to_string(Reg),
                                       Frame.BufferLowerBound[Reg],
                                       infinity(), 1.0, Kind);
      for (size_t UI = 0; UI < R.Uses.size(); ++UI) {
        const RegisterUse &U = R.Uses[UI];
        std::string Tag =
            "buf_v" + std::to_string(Reg) + "_use" + std::to_string(UI);
        if (Opts.ObjStyle == ObjectiveStyle::Traditional) {
          // [7]: II*B >= t_use + w*II - t_def + 1, with B integer.
          std::vector<Term> Terms;
          Terms.push_back({BufferVar[Reg], double(II)});
          Terms.push_back({kVar(U.Consumer), -double(II)});
          Terms.push_back({kVar(R.Def), double(II)});
          for (int Row = 1; Row < II; ++Row) {
            Terms.push_back({aVar(Row, U.Consumer), -double(Row)});
            Terms.push_back({aVar(Row, R.Def), double(Row)});
          }
          Ilp.addConstraint(std::move(Terms), ConstraintSense::GE,
                            double(U.Distance) * II + 1.0, Tag);
        } else {
          // Structured ([15]-style): the span [t_def, t_use + w*II]
          // covers row r exactly
          //   (k_u + w + [row_u >= r]) - (k_d + [row_d > r])
          // times, and the maximum over rows is ceil(span/II). One +/-1
          // constraint per row.
          for (int Row = 0; Row < II; ++Row) {
            std::vector<Term> Terms;
            Terms.push_back({kVar(U.Consumer), 1.0});
            Terms.push_back({kVar(R.Def), -1.0});
            Terms.push_back({BufferVar[Reg], -1.0});
            appendRowRange(Terms, ABase + U.Consumer * II, Row, II - 1, 1.0);
            if (Row + 1 <= II - 1)
              appendRowRange(Terms, ABase + R.Def * II, Row + 1, II - 1,
                             -1.0);
            Ilp.addConstraint(std::move(Terms), ConstraintSense::LE,
                              -double(U.Distance),
                              Tag + "_r" + std::to_string(Row));
          }
        }
      }
    }
    break;
  }

  case Objective::MinLife: {
    // Cumulative lifetime: sum over registers of
    //   t_kill - t_def + 1 = II*(killStage - k_def) + rowdiff + 1.
    if (Opts.ObjStyle == ObjectiveStyle::Traditional) {
      // [16]-style: auxiliary lifetime variable per register defined by
      // an equality with coefficient II, minimized directly.
      LifeVar.assign(NumRegs, -1);
      for (int Reg = 0; Reg < NumRegs; ++Reg) {
        const VirtualRegister &R = G.registers()[Reg];
        LifeVar[Reg] = Ilp.addVariable("life_v" + std::to_string(Reg),
                                       Frame.MinLifetime[Reg],
                                       infinity(), 1.0);
        std::vector<Term> Terms;
        Terms.push_back({LifeVar[Reg], 1.0});
        Terms.push_back({KillStage[Reg], -double(II)});
        Terms.push_back({kVar(R.Def), double(II)});
        for (int Row = 1; Row < II; ++Row) {
          Terms.push_back({KillRowBase[Reg] + Row, -double(Row)});
          Terms.push_back({aVar(Row, R.Def), double(Row)});
        }
        Ilp.addConstraint(std::move(Terms), ConstraintSense::EQ, 1.0,
                          "life_v" + std::to_string(Reg));
      }
    } else {
      // Structured: no auxiliary constraints at all; the total lifetime
      //   sum_r live[v][r] = II*(killStage - k_def)
      //                      + sum_z (z+1)*killRow[z] - sum_z z*a[z][def]
      // is placed directly in the objective (objective coefficients are
      // exempt from the 0-1-structure requirement).
      for (int Reg = 0; Reg < NumRegs; ++Reg) {
        const VirtualRegister &R = G.registers()[Reg];
        Ilp.setObjective(KillStage[Reg], double(II));
        Ilp.setObjective(kVar(R.Def),
                         Ilp.variable(kVar(R.Def)).Objective - II);
        for (int Row = 0; Row < II; ++Row) {
          Ilp.setObjective(KillRowBase[Reg] + Row, double(Row + 1));
          int AV = aVar(Row, R.Def);
          Ilp.setObjective(AV, Ilp.variable(AV).Objective - Row);
        }
      }
    }
    break;
  }
  }
}

int Formulation::decodeInstance(const std::vector<double> &Values, int Op,
                                int Resource) const {
  if (MapVarBase.empty())
    return -1;
  int Base = MapVarBase[size_t(Op) * M.numResources() + Resource];
  if (Base < 0)
    return -1;
  for (int Inst = 0; Inst < M.resource(Resource).Count; ++Inst)
    if (Values[Base + Inst] > 0.5)
      return Inst;
  return -1;
}

ModuloSchedule Formulation::decode(const std::vector<double> &Values) const {
  assert(Valid && "cannot decode from an invalid formulation");
  int N = G.numOperations();
  std::vector<int> Times(N, 0);
  for (int Op = 0; Op < N; ++Op) {
    int Row = -1;
    for (int R = 0; R < II; ++R) {
      if (Values[aVar(R, Op)] > 0.5) {
        assert(Row < 0 && "operation assigned to two MRT rows");
        Row = R;
      }
    }
    assert(Row >= 0 && "operation not assigned to any MRT row");
    int K = static_cast<int>(std::lround(Values[kVar(Op)]));
    Times[Op] = K * II + Row;
  }
  return ModuloSchedule(II, std::move(Times));
}
