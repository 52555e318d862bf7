//===- ilpsched/PbFormulation.h - PB modulo scheduling models ---*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the paper's modulo-scheduling formulation for the
/// conflict-driven pseudo-Boolean backend (pb::Solver). The structured
/// formulation's whole point — every dependence/resource row is
/// 0-1-structured (Ineq. 20) — makes this encoding direct:
///
///   a[r][i]  row-assignment binaries become literals; Eq. (1) is an
///            at-least-one clause plus an at-most-one cardinality row.
///   k[i]     integer stages become ORDER-ENCODED bit vectors over the
///            ASAP/ALAP stage window [KMin, KMax]: bit s means
///            "k_i >= KMin + s + 1", with monotonicity clauses
///            bit_{s} -> bit_{s-1}, so k_i = KMin + sum of bits and any
///            +/-1 coefficient on k_i turns into +/-1 coefficients on
///            bits — the dependence rows stay cardinality constraints.
///   deps     Ineq. (20)/(19) per MRT row, or the traditional Ineq. (4)
///            as a general PB row (coefficients r and II) — the same
///            slow-by-design ablation the ILP backend offers.
///   res      Ineq. (5) counting rows (at-most-Count cardinalities;
///            duplicate terms merge into coefficient-2 PB rows exactly
///            like lp::Model does).
///
/// Secondary objectives (MinReg / MinBuff / MinLife, structured style)
/// reuse the kill pseudo-op machinery of ilpsched/Formulation with
/// order-encoded kill stages and buffer/MaxLive counters. The objective
/// is NOT part of the PB model: optimization runs as solution-improving
/// descent — each incumbent adds a selector-gated "objective <= best-1"
/// PB row and the next solve assumes the selector's negation, so learned
/// clauses persist across bounds (assumption-based incrementality).
///
/// The stage windows, schedule-length budget, and bounds come from the
/// same sched/AttemptFrame as ilpsched/Formulation's, so both backends
/// decide the same feasible set per II and agree on optimal objective
/// values — the ILP cross-validation the differential tests enforce.
///
/// Not supported (PbFormulation::supports returns false; the scheduler
/// falls back to ILP with a one-time warning): InstanceMapped resource
/// constraints, Objective::MinSL, and ObjectiveStyle::Traditional.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_PBFORMULATION_H
#define MODSCHED_ILPSCHED_PBFORMULATION_H

#include "graph/DependenceGraph.h"
#include "ilpsched/Formulation.h"
#include "machine/MachineModel.h"
#include "pb/PbSolver.h"
#include "sched/AttemptFrame.h"
#include "sched/ModuloSchedule.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace modsched {

/// The pseudo-Boolean model for one (graph, machine, II) triple, with
/// decoding metadata and the incremental objective-descent hooks.
class PbFormulation {
public:
  /// Builds the model at \p Frame's II into a private solver, reading
  /// every window and bound from the frame, which must have been computed
  /// for \p G, \p M and \p Opts. When the frame is not valid (II below
  /// the recurrence bound), valid() is false and the solver is left empty.
  PbFormulation(const DependenceGraph &G, const MachineModel &M,
                const AttemptFrame &Frame, const FormulationOptions &Opts);

  /// Builds the frame of (G, M, II, Opts) first.
  PbFormulation(const DependenceGraph &G, const MachineModel &M, int II,
                const FormulationOptions &Opts)
      : PbFormulation(G, M, AttemptFrame(G, M, II, Opts), Opts) {}

  /// True when \p Opts describes a formulation this backend can encode.
  static bool supports(const FormulationOptions &Opts);

  /// False when the frame proved II infeasible.
  bool valid() const { return Valid; }

  pb::Solver &solver() { return S; }
  int ii() const { return II; }
  /// Latest allowed start time (schedule-length budget).
  int maxTime() const { return MaxTime; }

  /// Solver variables / original constraint rows (model-shape telemetry,
  /// the PB analogue of lp::Model rows/columns).
  int numVariables() const { return S.numVars(); }
  int numConstraints() const { return int(S.exportRows().size()); }

  /// True when a secondary objective is being minimized.
  bool hasObjective() const { return !ObjTerms.empty() || ObjConst != 0; }

  /// Objective value of the solver's current model.
  int64_t evalObjective() const;

  /// Adds a selector-gated "objective <= Bound" row and replaces the
  /// descent assumption with the new selector's negation. Returns false
  /// when the solver became root-level unsatisfiable (the previous
  /// incumbent is optimal).
  bool pushObjectiveBound(int64_t Bound);

  /// Assumption literals for solve(): the current objective-descent
  /// selector (empty before the first pushObjectiveBound).
  const std::vector<pb::Lit> &assumptions() const { return Assumps; }

  /// Objective terms over literals plus constant (for OPB export).
  const std::vector<std::pair<pb::Lit, int64_t>> &objectiveTerms() const {
    return ObjTerms;
  }
  int64_t objectiveConstant() const { return ObjConst; }

  /// Decodes the solver's current model into a modulo schedule.
  ModuloSchedule decode() const;

private:
  /// An order-encoded bounded integer: value = Lo + number of true bits;
  /// bit s (variable BitBase + s) means "value >= Lo + s + 1".
  struct IntVar {
    int Lo = 0;
    int Hi = 0;
    pb::Var BitBase = -1;
    int numBits() const { return Hi - Lo; }
  };

  /// A linear expression over literals with an integer constant.
  struct LinExpr {
    std::vector<std::pair<pb::Lit, int64_t>> Terms;
    int64_t Constant = 0;
  };

  IntVar makeIntVar(int Lo, int Hi);
  int64_t intValue(const IntVar &V) const;
  /// Appends Coeff * V to \p E (constant + per-bit terms).
  void appendInt(LinExpr &E, const IntVar &V, int64_t Coeff) const;
  /// Appends Coeff * sum of row literals (Base + Lo .. Base + Hi).
  void appendRowRange(LinExpr &E, pb::Var RowBase, int Lo, int Hi,
                      int64_t Coeff) const;
  void addLe(LinExpr E, int64_t Rhs);
  void addGe(LinExpr E, int64_t Rhs);

  pb::Var aVar(int Row, int Op) const { return ABase + Op * II + Row; }
  pb::Lit aLit(int Row, int Op) const { return pb::posLit(aVar(Row, Op)); }

  void buildAssignment(pb::Var RowBase);
  void emitDependence(pb::Var SrcRowBase, const IntVar &SrcK,
                      pb::Var DstRowBase, const IntVar &DstK, int Latency,
                      int Distance);
  void buildResource(const AttemptFrame &Frame);
  void buildObjective(const AttemptFrame &Frame);
  void buildKillOps(const AttemptFrame &Frame);
  void appendLiveCount(LinExpr &E, int Reg, int Row) const;

  const DependenceGraph &G;
  const MachineModel &M;
  int II;
  FormulationOptions Opts;
  bool Valid = false;
  int MaxTime = 0;

  pb::Solver S;
  pb::Var ABase = 0;
  std::vector<IntVar> KVars;

  /// Kill pseudo-op variables (MinReg / MinLife / RegisterLimit).
  std::vector<pb::Var> KillRowBase;
  std::vector<IntVar> KillStage;
  /// MinBuff buffer counters / MinReg MaxLive counter.
  std::vector<IntVar> BufferVars;
  IntVar MaxLiveVar;

  std::vector<std::pair<pb::Lit, int64_t>> ObjTerms;
  int64_t ObjConst = 0;
  std::vector<pb::Lit> Assumps;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_PBFORMULATION_H
