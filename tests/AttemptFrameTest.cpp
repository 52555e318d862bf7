//===- tests/AttemptFrameTest.cpp - per-II windows and bounds -------------===//
//
// sched/AttemptFrame is the one place the schedule-length budget, the
// ASAP/ALAP windows and the stage, kill-stage and lifetime bounds of an
// attempt are computed. The contract under test, over the kernel library
// plus seeded synthetic loops on two machines at every II in
// [max(1, MII - 2), MII + 2], with stage tightening on and off:
//
//   * a frame is valid exactly when II >= RecMII;
//   * a valid frame's windows and stage ranges are never empty;
//   * both formulations read their bounds from the frame: a model built
//     from a frame is the model the (G, M, II, Opts) constructor builds.
//
//===----------------------------------------------------------------------===//

#include "sched/AttemptFrame.h"

#include "graph/GraphAlgorithms.h"
#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "sched/Mii.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace modsched;

namespace {

/// The kernel library plus 20 seeded synthetic loops on \p M.
std::vector<DependenceGraph> suiteLoops(const MachineModel &M) {
  std::vector<DependenceGraph> Loops = allKernels(M);
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    Loops.push_back(generateLoop(M, R));
  }
  return Loops;
}

/// Calls \p Check(G, M, II, Opts) over the whole suite.
template <typename CheckFn> int forEachPoint(CheckFn Check) {
  int Points = 0;
  for (const MachineModel &M :
       {MachineModel::cydraLike(), MachineModel::example3()})
    for (const DependenceGraph &G : suiteLoops(M)) {
      if (hasZeroDistanceCycle(G))
        continue; // No RecMII: unschedulable at any II.
      const int Mii_ = mii(G, M);
      for (bool Tighten : {true, false})
        for (int II = std::max(1, Mii_ - 2); II <= Mii_ + 2; ++II) {
          FormulationOptions Opts;
          Opts.TightenStageBounds = Tighten;
          Check(G, M, II, Opts);
          ++Points;
        }
    }
  return Points;
}

std::string where(const DependenceGraph &G, int II,
                  const FormulationOptions &Opts) {
  return G.name() + " II=" + std::to_string(II) +
         (Opts.TightenStageBounds ? " tight" : " loose");
}

void expectSameStats(const FormulationStats &A, const FormulationStats &B,
                     const std::string &What) {
  EXPECT_EQ(A.Rows, B.Rows) << What;
  EXPECT_EQ(A.Columns, B.Columns) << What;
  EXPECT_EQ(A.IntegerColumns, B.IntegerColumns) << What;
  EXPECT_EQ(A.Nonzeros, B.Nonzeros) << What;
  ASSERT_EQ(A.Families.size(), B.Families.size()) << What;
  for (size_t I = 0; I < A.Families.size(); ++I) {
    EXPECT_EQ(A.Families[I].Name, B.Families[I].Name) << What;
    EXPECT_EQ(A.Families[I].Rows, B.Families[I].Rows) << What;
    EXPECT_EQ(A.Families[I].Nonzeros, B.Families[I].Nonzeros) << What;
  }
}

/// Checks that every bounded column of the ILP \p Model carries the
/// bound \p Frame holds for it, matching columns by name.
void expectFrameBounds(const DependenceGraph &G, const AttemptFrame &Frame,
                       const lp::Model &Model, const std::string &What) {
  auto ExpectBounds = [&](const lp::Variable &V, double Lo, double Hi) {
    EXPECT_EQ(V.Lower, Lo) << What << " " << V.Name;
    EXPECT_EQ(V.Upper, Hi) << What << " " << V.Name;
  };
  int StageColumns = 0;
  for (const lp::Variable &V : Model.variables()) {
    const std::string &N = V.Name;
    if (N.rfind("k_", 0) == 0) {
      for (int Op = 0; Op < G.numOperations(); ++Op)
        if (N == "k_" + G.operation(Op).Name) {
          ExpectBounds(V, Frame.Stage[Op].Min, Frame.Stage[Op].Max);
          ++StageColumns;
        }
    } else if (N.rfind("killk_v", 0) == 0) {
      const StageBounds &K = Frame.KillStage[std::stoi(N.substr(7))];
      ExpectBounds(V, K.Min, K.Max);
    } else if (N.rfind("buf_v", 0) == 0) {
      EXPECT_EQ(V.Lower, Frame.BufferLowerBound[std::stoi(N.substr(5))])
          << What << " " << N;
    } else if (N.rfind("life_v", 0) == 0) {
      EXPECT_EQ(V.Lower, Frame.MinLifetime[std::stoi(N.substr(6))])
          << What << " " << N;
    } else if (N == "maxlive" && G.numRegisters() > 0) {
      EXPECT_EQ(V.Lower, Frame.MaxLiveLowerBound) << What;
    } else if (N == "sink_k") {
      ExpectBounds(V, Frame.MinLength / Frame.II,
                   (Frame.MaxTime + 1) / Frame.II);
    }
  }
  EXPECT_EQ(StageColumns, G.numOperations()) << What;
}

} // namespace

TEST(AttemptFrame, ValidExactlyFromRecMii) {
  int Invalid = 0;
  int Points = forEachPoint([&](const DependenceGraph &G,
                                const MachineModel &M, int II,
                                const FormulationOptions &Opts) {
    const AttemptFrame F(G, M, II, Opts);
    EXPECT_EQ(F.II, II);
    ASSERT_EQ(F.Valid, II >= recMii(G)) << where(G, II, Opts);
    Invalid += !F.Valid;
  });
  EXPECT_GT(Invalid, 0) << "no point below RecMII";
  EXPECT_GT(Points, Invalid);
}

TEST(AttemptFrame, WindowsAndStagesNeverEmpty) {
  int Valid = 0;
  forEachPoint([&](const DependenceGraph &G, const MachineModel &M, int II,
                   const FormulationOptions &Opts) {
    const AttemptFrame F(G, M, II, Opts);
    if (!F.Valid)
      return;
    ++Valid;
    const std::string What = where(G, II, Opts);
    EXPECT_EQ(F.MinLength, minScheduleLength(G, II).value_or(-1)) << What;
    EXPECT_EQ(F.MaxTime, F.StageCount * II - 1) << What;
    EXPECT_GE(F.MaxTime, F.MinLength - 1 + Opts.ScheduleLengthSlack) << What;
    const int N = G.numOperations();
    ASSERT_EQ(int(F.Asap.size()), N) << What;
    ASSERT_EQ(int(F.Alap.size()), N) << What;
    ASSERT_EQ(int(F.Stage.size()), N) << What;
    for (int Op = 0; Op < N; ++Op) {
      EXPECT_LE(F.Asap[Op], F.Alap[Op]) << What << " op " << Op;
      EXPECT_LE(F.Alap[Op], F.MaxTime) << What << " op " << Op;
      EXPECT_LE(F.Stage[Op].Min, F.Stage[Op].Max) << What << " op " << Op;
      if (Opts.TightenStageBounds) {
        EXPECT_EQ(F.Stage[Op].Min, F.Asap[Op] / II) << What;
        EXPECT_EQ(F.Stage[Op].Max, F.Alap[Op] / II) << What;
      } else {
        EXPECT_EQ(F.Stage[Op].Min, 0) << What;
        EXPECT_EQ(F.Stage[Op].Max, F.StageCount - 1) << What;
      }
    }
    ASSERT_EQ(int(F.KillStage.size()), G.numRegisters()) << What;
    for (int Reg = 0; Reg < G.numRegisters(); ++Reg) {
      const VirtualRegister &R = G.registers()[Reg];
      EXPECT_EQ(F.KillStage[Reg].Min, F.Stage[R.Def].Min) << What;
      EXPECT_GE(F.KillStage[Reg].Max, F.Stage[R.Def].Max) << What;
      EXPECT_GE(F.MinLifetime[Reg], 1) << What;
      EXPECT_EQ(F.BufferLowerBound[Reg], (F.MinLifetime[Reg] + II - 1) / II)
          << What;
    }
  });
  EXPECT_GT(Valid, 0);
}

TEST(AttemptFrame, FormulationsBuildTheSameModelFromTheFrame) {
  // The (G, M, II, Opts) constructors build a frame and delegate, so the
  // two paths must agree on every model, and the ILP's bounded columns
  // must carry the frame's numbers. One variant per frame field: stages
  // (all), kill stages and the MaxLive bound (MinReg), buffer bounds
  // (MinBuff), minimum lifetimes (traditional MinLife) and the minimum
  // length (MinSL).
  forEachPoint([](const DependenceGraph &G, const MachineModel &M, int II,
                  FormulationOptions Opts) {
    struct Variant {
      Objective Obj;
      ObjectiveStyle Style;
    };
    for (Variant V : {Variant{Objective::None, ObjectiveStyle::Structured},
                      Variant{Objective::MinReg, ObjectiveStyle::Structured},
                      Variant{Objective::MinBuff, ObjectiveStyle::Structured},
                      Variant{Objective::MinLife, ObjectiveStyle::Structured},
                      Variant{Objective::MinLife, ObjectiveStyle::Traditional},
                      Variant{Objective::MinSL, ObjectiveStyle::Structured}}) {
      Opts.Obj = V.Obj;
      Opts.ObjStyle = V.Style;
      const std::string What =
          where(G, II, Opts) + " " + toString(V.Obj) +
          (V.Style == ObjectiveStyle::Traditional ? " traditional" : "");
      const AttemptFrame Frame(G, M, II, Opts);
      Formulation FromFrame(G, M, Frame, Opts);
      Formulation FromIi(G, M, II, Opts);
      ASSERT_EQ(FromFrame.valid(), Frame.Valid) << What;
      ASSERT_EQ(FromIi.valid(), Frame.Valid) << What;
      expectSameStats(FromFrame.stats(), FromIi.stats(), What);
      if (Frame.Valid) {
        EXPECT_EQ(FromFrame.maxTime(), Frame.MaxTime) << What;
        expectFrameBounds(G, Frame, FromFrame.model(), What);
      }
      if (!PbFormulation::supports(Opts))
        continue;
      PbFormulation PbFromFrame(G, M, Frame, Opts);
      PbFormulation PbFromIi(G, M, II, Opts);
      ASSERT_EQ(PbFromFrame.valid(), Frame.Valid) << What;
      ASSERT_EQ(PbFromIi.valid(), Frame.Valid) << What;
      EXPECT_EQ(PbFromFrame.numVariables(), PbFromIi.numVariables()) << What;
      EXPECT_EQ(PbFromFrame.numConstraints(), PbFromIi.numConstraints())
          << What;
    }
  });
}

TEST(AttemptFrame, IntegerHelpers) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(-8, 2), -4);
  EXPECT_EQ(floorDiv<long>(-1, 5), -1);
  EXPECT_EQ(modPos(7, 3), 1);
  EXPECT_EQ(modPos(-7, 3), 2);
  EXPECT_EQ(modPos(-6, 3), 0);
  EXPECT_EQ(modPos<long>(-1, 4), 3);
}
