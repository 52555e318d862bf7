//===- ilpsched/Formulation.h - ILP modulo scheduling models ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the integer linear programs of the paper for one candidate II:
///
///   variables   a[r][i] (binary MRT-row assignment, paper's A matrix)
///               k[i]    (integer stage numbers, paper's k vector)
///   constraints assignment   (Eq. 1)
///               dependence   (Ineq. 4 "traditional" or Ineq. 20
///                             "structured"; Ineq. 19 without the
///                             Chaudhuri tightening as an ablation)
///               resource     (Ineq. 5)
///
/// plus the secondary-objective machinery:
///
///   MinReg  exact MaxLive: per register a "kill" pseudo-operation with
///           its own row-assignment vector and stage, constrained to
///           follow every use; per-row live counts are +/-1 expressions
///           (see below); MaxLive bounds every row's total.
///   MinBuff sum of per-register buffer counts ceil(lifetime/II),
///           following [7] (traditional, coefficient-II constraints) or
///           the 0-1-structured reformulation in the spirit of [15].
///   MinLife cumulative lifetime, following [16] (traditional) or fully
///           structured.
///
/// The structured live-count identity: with count(T, r) = #{t in [0, T] :
/// t mod II == r} and time = stage * II + row, one has
///   count(time, r)     = stage + sum_{z=r}^{II-1} rowvar[z]
///   count(time - 1, r) = stage + sum_{z=r+1}^{II-1} rowvar[z]
/// so the number of times register v (defined at time_d, killed at
/// time_k) is live in row r is
///   live[v][r] = killStage_v - k_def + sum_{z=r}^{II-1} killRow[z][v]
///                - sum_{z=r+1}^{II-1} a[z][def],
/// an expression in which every variable has coefficient +/-1. This is
/// our concrete realization of the 0-1-structured MaxLive objective of
/// [4], which the paper reuses for both formulations of MinReg.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_FORMULATION_H
#define MODSCHED_ILPSCHED_FORMULATION_H

#include "graph/DependenceGraph.h"
#include "lp/Model.h"
#include "machine/MachineModel.h"
#include "sched/AttemptFrame.h"
#include "sched/ModuloSchedule.h"
#include "sched/Problem.h"

#include <optional>
#include <string>
#include <vector>

namespace modsched {

// Objective, DependenceStyle, ObjectiveStyle, and FormulationOptions
// live in sched/Problem.h (the sched layer owns the problem statement;
// this layer owns the ILP encodings of it).

/// Build telemetry for one formulation (see docs/OBSERVABILITY.md):
/// wall time and model shape, overall and per constraint family. A
/// family is a constraint-name prefix up to the first '_' ("assign",
/// "dep", "res", "inst", ...), so the paper's structured-vs-traditional
/// density argument can be checked per constraint class.
struct FormulationStats {
  /// Wall-clock seconds spent building the model (always measured; two
  /// clock reads are noise next to model construction).
  double BuildSeconds = 0.0;
  int Columns = 0;
  int IntegerColumns = 0;
  int Rows = 0;
  /// Total structural nonzeros over all constraints.
  int64_t Nonzeros = 0;

  struct Family {
    std::string Name;
    int Rows = 0;
    int64_t Nonzeros = 0;
  };
  /// Per-family row/nonzero counts, sorted by family name.
  std::vector<Family> Families;
};

/// The ILP for one (graph, machine, II) triple, with decoding metadata.
class Formulation {
public:
  /// Builds the model at \p Frame's II from its windows and bounds, which
  /// must have been computed for \p G, \p M and \p Opts. When the frame
  /// is not valid (II below the recurrence bound), valid() is false and
  /// the model is empty.
  Formulation(const DependenceGraph &G, const MachineModel &M,
              const AttemptFrame &Frame, const FormulationOptions &Opts);

  /// Builds the frame of (G, M, II, Opts) first.
  Formulation(const DependenceGraph &G, const MachineModel &M, int II,
              const FormulationOptions &Opts)
      : Formulation(G, M, AttemptFrame(G, M, II, Opts), Opts) {}

  /// False when the frame proved II infeasible.
  bool valid() const { return Valid; }

  const lp::Model &model() const { return Ilp; }
  int ii() const { return II; }
  /// Latest allowed start time (schedule-length budget).
  int maxTime() const { return MaxTime; }

  /// Build-time telemetry (valid even when valid() is false: an
  /// infeasible-window build reports zero rows/columns).
  const FormulationStats &stats() const { return BuildStats; }

  /// Variable index of a[r][i].
  int aVar(int Row, int Op) const { return ABase + Op * II + Row; }
  /// Variable index of k[i].
  int kVar(int Op) const { return KBase + Op; }

  /// Decodes an integral solver solution into a modulo schedule.
  ModuloSchedule decode(const std::vector<double> &Values) const;

  /// With InstanceMapped set: the resource instance operation \p Op was
  /// mapped to for resource type \p Resource, or -1 when the op does not
  /// use that type (or mapping is disabled / not needed for the type).
  int decodeInstance(const std::vector<double> &Values, int Op,
                     int Resource) const;

private:
  /// Computes BuildStats from the finished model (called on every
  /// constructor exit path) and publishes it to the telemetry layer.
  void finalizeBuildStats(double BuildSeconds);

  void buildAssignment();
  void buildDependence(const SchedEdge &E);
  void buildResource(const AttemptFrame &Frame);
  void buildObjective(const AttemptFrame &Frame);

  /// Creates the per-register kill pseudo-operations (row vectors,
  /// stages, assignment + kill dependence constraints) once; shared by
  /// MinReg, MinLife, and the RegisterLimit constraint.
  void buildKillOps(const AttemptFrame &Frame);

  /// Emits one dependence constraint between two scheduled events given
  /// by their (row-variable base, stage-variable) pairs; shared by real
  /// edges and register-kill edges. Latency may be <= 0 and distance may
  /// be negative (kill edges).
  void emitDependence(int SrcRowBase, int SrcK, int DstRowBase, int DstK,
                      int Latency, int Distance, const std::string &Tag);

  /// Appends sum_{z=Lo}^{Hi} of row variables (base + z) to \p Terms.
  void appendRowRange(std::vector<lp::Term> &Terms, int RowBase, int Lo,
                      int Hi, double Coeff) const;

  /// Appends the structured live-count expression of register \p Reg in
  /// row \p Row (see file comment) to \p Terms.
  void appendLiveCount(std::vector<lp::Term> &Terms, int Reg, int Row) const;

  const DependenceGraph &G;
  const MachineModel &M;
  int II;
  FormulationOptions Opts;
  bool Valid = false;
  int MaxTime = 0;
  FormulationStats BuildStats;

  lp::Model Ilp;
  int ABase = 0;
  int KBase = 0;
  /// Kill pseudo-op variables (MinReg / MinLife): row base and stage per
  /// register; -1 when unused.
  std::vector<int> KillRowBase;
  std::vector<int> KillStage;
  /// MinBuff: buffer variable per register; MinReg: MaxLive variable.
  std::vector<int> BufferVar;
  int MaxLiveVar = -1;
  /// MinSL: sink pseudo-operation (row base / stage variable).
  int SinkRowBase = -1;
  int SinkStage = -1;
  /// Traditional-style auxiliary lifetime variables (MinLife).
  std::vector<int> LifeVar;
  /// InstanceMapped: base of the w[i][q][e] mapping-choice binaries,
  /// indexed by MapVarBase[Op * numResources + Resource] (-1 = the op
  /// does not use the type or the type is not instance-mapped).
  std::vector<int> MapVarBase;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_FORMULATION_H
