//===- ilpsched/OptimalScheduler.h - Min-II ILP search ----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimal modulo scheduling framework of the paper's Section 3.4:
/// compute MII, build the ILP for the tentative II, solve it (optionally
/// minimizing a secondary objective), and increment II on infeasibility
/// until a schedule is found or the per-loop budget runs out. The four
/// schedulers evaluated in the paper (NoObj, MinReg, MinBuff, MinLife)
/// are this driver instantiated with different FormulationOptions.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_OPTIMALSCHEDULER_H
#define MODSCHED_ILPSCHED_OPTIMALSCHEDULER_H

#include "ilp/BranchAndBound.h"
#include "ilpsched/Formulation.h"
#include "sched/Explain.h"
#include "sched/ModuloSchedule.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace modsched {

namespace lp {
struct SolveContext; // lp/SolveContext.h
} // namespace lp

/// Which exact engine decides each tentative II.
enum class SchedulerBackend {
  /// LP-relaxation branch-and-bound over lp::Model (the paper's CPLEX
  /// stand-in) — the default.
  Ilp,
  /// Conflict-driven pseudo-Boolean search (pb::Solver) over the same
  /// feasible set, encoded by ilpsched/PbFormulation. Falls back to Ilp
  /// (with a one-time warning) for formulations the encoding does not
  /// support; see PbFormulation::supports.
  Pb,
  /// One engine per II attempt, picked from the objective: Pb when
  /// PbFormulation::supports the formulation and the objective is not
  /// MinLife, Ilp otherwise (EXPERIMENTS.md E11, E12, E23: the CDCL
  /// engine decides more NoObj, MinBuff and MinReg records, the LP
  /// relaxation more of MinLife's wide-coefficient ones). The chosen
  /// engine runs on the caller's thread and spends exactly what its own
  /// backend would; IiAttempt::Winner names it.
  Portfolio,
};

/// Printable name of \p Backend ("ilp" / "pb" / "portfolio").
const char *toString(SchedulerBackend Backend);

/// The backend \p Name names, the inverse of toString; nullopt for any
/// other text.
std::optional<SchedulerBackend> parseSchedulerBackend(std::string_view Name);

/// How the min-II search walks the tentative IIs. One value remains:
/// the type stays only while bench/e2e/Sweep.cpp still assigns it.
enum class IiSearchKind {
  /// One II at a time, MII upward — the paper's loop.
  Sequential,
};

/// Budgets and knobs for one scheduling run.
struct SchedulerOptions {
  FormulationOptions Formulation;
  /// Exact engine deciding each tentative II. The PB backend shares the
  /// node budget: one CDCL conflict counts as one branch-and-bound node
  /// (both are the unit of censored search effort; see
  /// ScheduleResult::budgetNodes).
  SchedulerBackend Backend = SchedulerBackend::Ilp;
  /// Per-loop wall-clock budget, shared across all tentative IIs (the
  /// paper used 15 minutes).
  double TimeLimitSeconds = 60.0;
  /// Per-loop branch-and-bound node budget (censoring alternative that
  /// is deterministic across machines), spent cumulatively across the
  /// II attempts.
  int64_t NodeLimit = INT64_MAX;
  /// Stop trying IIs after MII + MaxIiIncrease.
  int MaxIiIncrease = 64;
  /// Branch rule forwarded to the MIP solver (MostFractional is the
  /// only rule).
  ilp::BranchRule Branching = ilp::BranchRule::MostFractional;
  /// Warm-start node LPs from the parent basis (forwarded to
  /// ilp::MipOptions::WarmStart; ablation knob for the warm-vs-cold
  /// benchmark A/B, see bench/micro_solver).
  bool WarmStart = true;
  /// No behaviour: nothing reads it. Kept only while
  /// bench/e2e/Ladder.cpp copies it into ilp::MipOptions::Lp.Engine
  /// (see lp::SimplexEngine).
  lp::SimplexEngine LpEngine = lp::SimplexEngine::SparseRevised;
  /// II search strategy; Sequential is the only one.
  IiSearchKind Search = IiSearchKind::Sequential;
  /// Must be 1 (asserted): the II search is single-threaded. Kept only
  /// while bench/e2e/Sweep.cpp still assigns it.
  int SearchJobs = 1;
  /// Solve forensics (docs/OBSERVABILITY.md "Explanations & audit
  /// records"): attach a re-verified graph-level Explanation to every
  /// infeasible II attempt and an OptimalityAudit to every solved one.
  /// The witness comes from the graph alone (sched/Explain.h), so the
  /// engines search exactly as with it off; zero-cost when off — no
  /// trajectory samples, no witness search.
  bool Explain = false;
  /// Consult the process-wide content-addressed SolutionCache
  /// (ilpsched/SolutionCache.h) before running the II ladder, and
  /// insert clean solves afterwards. Hits are keyed on the canonical
  /// Problem hash — loops identical up to node renumbering and
  /// resource renaming share entries — and every hit is re-verified
  /// through sched/Verifier before being reported. Off by default so
  /// benchmark effort numbers mean what they say.
  bool Cache = false;
};

/// Optimality evidence for one solved II attempt (attached under
/// SchedulerOptions::Explain; see docs/OBSERVABILITY.md).
struct OptimalityAudit {
  /// True when the root LP relaxation bound is available (ILP backend
  /// with a successful root solve; the PB backend proves optimality by
  /// exhaustion and carries no numeric bound).
  bool HasRootBound = false;
  /// Rounded root relaxation bound on the secondary objective.
  double RootBound = 0.0;
  /// Objective value of the reported schedule.
  double FinalObjective = 0.0;
  /// FinalObjective - RootBound when HasRootBound (0 at proved-tight
  /// roots), else 0.
  double Gap = 0.0;
  /// How optimality was established: "optimal" (bound met / search
  /// exhausted), "first_solution" (Objective::None stops at the first
  /// schedule), or "censored" (budget expired with an unproven
  /// incumbent).
  std::string Proof = "optimal";
  /// Incumbent/bound trajectory in time order (ILP backend only).
  std::vector<ilp::BoundSample> Trajectory;
};

/// Telemetry record of one tentative-II solve attempt (see
/// docs/OBSERVABILITY.md). The attempts vector in ScheduleResult tells
/// the full story of a loop's min-II search: which IIs were tried, what
/// each cost, and why the search stopped.
struct IiAttempt {
  /// The tentative initiation interval.
  int II = 0;
  /// Solver outcome at this II. Window-infeasible attempts (II below
  /// RecMII, proved by the attempt frame without a model) report
  /// MipStatus::Infeasible with zero nodes and WindowInfeasible set.
  ilp::MipStatus Status = ilp::MipStatus::Infeasible;
  /// True when the attempt frame (sched/AttemptFrame.h) found no ASAP
  /// schedule at this II, so no model was built and no engine ran.
  bool WindowInfeasible = false;
  /// True when this attempt produced (and verified) a schedule.
  bool Scheduled = false;
  /// True when the attempt's solve was cancelled (the caller's token
  /// fired). A cancelled attempt is not a verdict about its II.
  bool Cancelled = false;
  int64_t Nodes = 0;
  int64_t SimplexIterations = 0;
  /// PB-backend effort at this II (0 under the ILP backend; the PB
  /// analogue of Nodes / SimplexIterations).
  int64_t PbConflicts = 0;
  int64_t PbPropagations = 0;
  int Variables = 0;
  int Constraints = 0;
  /// Wall-clock seconds spent on this attempt (build + solve).
  double Seconds = 0.0;
  /// With SchedulerOptions::Explain, on an infeasible verdict: the
  /// graph-level witness (checkExplanation-verified when
  /// Explain->Verified). Absent when the attempt was not infeasible,
  /// explanations were off, or II >= MII — an infeasibility only the
  /// engine proved ("unexplained").
  std::optional<Explanation> Explain;
  /// With SchedulerOptions::Explain, on a scheduled verdict: the
  /// optimality evidence trail.
  std::optional<OptimalityAudit> Audit;
  /// Portfolio backend only: the engine the objective picked for this
  /// II ("ilp" / "pb"), set when its verdict is conclusive. Empty under
  /// the single-engine backends, on censored or cancelled attempts, and
  /// on window-infeasible attempts, which no engine decides.
  std::string Winner;
};

/// Result of scheduling one loop.
struct ScheduleResult {
  /// True when a schedule was found and (unless the objective is None
  /// with StopAtFirstSolution semantics) proved optimal.
  bool Found = false;
  /// True when the per-loop wall-clock budget expired before a
  /// conclusion.
  bool TimedOut = false;
  /// True when a deterministic effort budget ran out before a
  /// conclusion: the per-loop node budget, or one node LP's pivot cap.
  /// Distinct from TimedOut so deterministic and machine-dependent
  /// (wall clock) censoring are attributed correctly; both can be set
  /// when the two budgets trip together.
  bool NodeLimitHit = false;
  ModuloSchedule Schedule;
  /// The achieved initiation interval (valid when Found).
  int II = 0;
  /// MII lower bound for the loop.
  int Mii = 0;
  /// Optimal secondary objective value at the achieved II (0 for NoObj).
  double SecondaryObjective = 0.0;

  // --- Statistics in the style of the paper's Tables 1 and 2 ---
  /// Branch-and-bound nodes summed over every tentative II attempted.
  int64_t Nodes = 0;
  /// Simplex iterations summed over every tentative II attempted.
  int64_t SimplexIterations = 0;
  /// Variables / constraints of the model at the final (achieved) II,
  /// prior to solver simplifications.
  int Variables = 0;
  int Constraints = 0;
  /// Node LPs warm-started from the parent basis, summed over attempts.
  int64_t WarmLpSolves = 0;
  /// Node LPs solved cold, summed over attempts.
  int64_t ColdLpSolves = 0;
  /// Simplex iterations inside warm-started LPs (subset of
  /// SimplexIterations), summed over attempts.
  int64_t WarmLpIterations = 0;
  /// LU factorizations of the basis, summed over attempts.
  int64_t LpRefactorizations = 0;
  /// Product-form eta nonzeros appended, summed over attempts.
  int64_t LpEtaNonzeros = 0;
  /// PB-backend effort summed over attempts (all 0 under the ILP
  /// backend; see docs/OBSERVABILITY.md "pb" counters).
  int64_t PbConflicts = 0;
  int64_t PbPropagations = 0;
  int64_t PbRestarts = 0;
  int64_t PbLearned = 0;
  /// Censored search effort against SchedulerOptions::NodeLimit: B&B
  /// nodes plus CDCL conflicts, so the deterministic budget means the
  /// same thing whichever backend (or mix, after a fallback) ran.
  int64_t budgetNodes() const { return Nodes + PbConflicts; }
  /// Total wall-clock time.
  double Seconds = 0.0;
  /// True when this result was served from the SolutionCache instead of
  /// a fresh solve: the II and SecondaryObjective are those of the
  /// cached (verifier-re-checked) solve, and every solver-effort field
  /// above is 0 with Attempts empty — cache hits never masquerade as
  /// solver work.
  bool CacheHit = false;
  /// Cache provenance (SchedulerOptions::Cache on, and the Problem's
  /// canonical labeling completed — Problem::hashExact): the content
  /// address this result was looked up / inserted under. 0 when the
  /// cache was off or the hash is inexact. Lets clients and forensics
  /// (`msched --explain`, the service protocol) tie a served-from-cache
  /// reply back to the canonical solve that produced it.
  uint64_t CacheCanonicalHash = 0;
  /// Request-option digest paired with CacheCanonicalHash (budgets and
  /// knobs that change what a "matching" cached solve means).
  uint64_t CacheRequestKey = 0;
  /// One record per tentative II tried, in search order (telemetry; see
  /// docs/OBSERVABILITY.md).
  std::vector<IiAttempt> Attempts;
};

/// The optimal modulo scheduler: the paper's Section 3.4 loop over
/// tentative IIs from MII upward. scheduleAtIi decides one II with the
/// attempt the configured backend names (ilpsched/Attempt.h) and
/// re-verifies the result through sched/Verifier as the uniform gate.
class OptimalModuloScheduler {
public:
  OptimalModuloScheduler(const MachineModel &M, SchedulerOptions Options);

  /// Schedules \p G for minimum II (and minimum secondary objective among
  /// all min-II schedules): probeCache then, on a miss, solve. With
  /// SchedulerOptions::Cache, the cache is consulted first and clean
  /// solves are inserted afterwards.
  ///
  /// \p Ctx, when non-null, is a persistent solve context the caller
  /// keeps across calls (one per worker thread, lp/SolveContext.h): its
  /// workspace carries warm simplex bases from one loop to the next.
  /// The caller owns its deadline / cancellation (arm before, reset
  /// after); the II search threads it through every attempt.
  ScheduleResult schedule(const DependenceGraph &G,
                          lp::SolveContext *Ctx = nullptr) const;

  /// The cache half of schedule(): with SchedulerOptions::Cache on,
  /// looks \p P up in the SolutionCache under this scheduler's request
  /// key and returns the re-verified replay (CacheHit set, zero solver
  /// effort, Seconds = the probe's time). nullopt on a miss, and at once
  /// with the cache off. Each call is one lookup: a caller that probes
  /// and then solves must hand the same \p P to solve().
  std::optional<ScheduleResult> probeCache(const Problem &P) const;

  /// The solve half of schedule(): runs the min-II search on \p P (built
  /// on this scheduler's machine and formulation options) without
  /// consulting the cache, then inserts a clean result when
  /// SchedulerOptions::Cache is on. \p Ctx as for schedule().
  ScheduleResult solve(const Problem &P,
                       lp::SolveContext *Ctx = nullptr) const;

  /// Solves a single tentative \p II of \p P. Returns nullopt when the
  /// problem is infeasible at this II (or the attempt was censored /
  /// cancelled); fills \p Stats regardless. \p Ctx, when non-null,
  /// supplies the solve environment — workspace, deadline, cancellation
  /// token — for this attempt (lp/SolveContext.h); a fresh local
  /// context is used otherwise. Reentrant: concurrent calls on one
  /// scheduler are safe as long as each uses its own \p Stats and
  /// \p Ctx.
  std::optional<ModuloSchedule>
  scheduleAtIi(const Problem &P, int II, ScheduleResult &Stats,
               double TimeBudget, lp::SolveContext *Ctx = nullptr) const;

  /// Convenience overload wrapping \p G (with this scheduler's machine
  /// and formulation options) in a transient Problem. Prefer the
  /// Problem overload when attempting several IIs of one loop — it
  /// shares the canonicalization.
  std::optional<ModuloSchedule>
  scheduleAtIi(const DependenceGraph &G, int II, ScheduleResult &Stats,
               double TimeBudget, lp::SolveContext *Ctx = nullptr) const;

  const SchedulerOptions &options() const { return Opts; }

private:
  /// What one request keeps across its attempts: solve() holds one for
  /// the whole II ladder, each scheduleAtIi call one of its own.
  struct RequestState {
    /// Set once the PB-fallback warning is printed, so it fires once
    /// per request, not once per II.
    bool PbFallbackWarned = false;
  };

  /// scheduleAtIi with the per-request state held by the caller.
  std::optional<ModuloSchedule>
  attempt(const Problem &P, int II, ScheduleResult &Stats, double TimeBudget,
          lp::SolveContext *Ctx, RequestState &Request) const;

  const MachineModel &M;
  SchedulerOptions Opts;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_OPTIMALSCHEDULER_H
