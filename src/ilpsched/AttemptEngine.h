//===- ilpsched/AttemptEngine.h - Uniform solve-attempt seam ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine seam: every exact backend that can decide one tentative II
/// of a Problem implements AttemptEngine, and everything an attempt
/// needs — the problem, the deterministic budget ledger, the deadline /
/// cancellation context, the telemetry scope, and the portfolio wiring
/// (shared-incumbent cell, race pool) — rides in one AttemptContext
/// instead of being threaded ad hoc.
///
///   IlpEngine        LP-relaxation branch-and-bound (the default).
///   PbEngine         conflict-driven pseudo-Boolean search.
///   PortfolioEngine  a composition of REGISTERED engines (not a
///                    hard-coded pair): it consults supports() /
///                    worthRacing() per child, runs a lone contestant
///                    inline, and races the rest with cross-engine
///                    incumbent exchange (ilpsched/PortfolioAttempt.h).
///
/// Contract: a conclusive solveAttempt() yields the true optimum (or
/// true infeasibility) at its II — engine choice never changes a
/// verdict, only the effort spent reaching it. Every schedule an engine
/// returns has already passed sched/Verifier (engines abort on a
/// self-check failure); OptimalModuloScheduler::scheduleAtIi re-verifies
/// once more as the uniform gate.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_ATTEMPTENGINE_H
#define MODSCHED_ILPSCHED_ATTEMPTENGINE_H

#include "ilpsched/OptimalScheduler.h"
#include "sched/Problem.h"

#include <memory>
#include <optional>
#include <vector>

namespace modsched {

class ThreadPool; // support/ThreadPool.h

/// Everything one solve attempt carries through the seam.
struct AttemptContext {
  /// The problem (graph + machine + formulation options).
  const Problem &P;
  /// The tentative initiation interval under trial.
  int II;
  /// Loop-level ledger: deterministic budget spend (budgetNodes()),
  /// work counters, and verdict flags accumulate here.
  ScheduleResult &Stats;
  /// Wall-clock seconds this attempt may spend.
  double TimeBudget;
  /// Deadline / cancellation environment; null = a fresh local context
  /// (the historical sequential behavior).
  lp::SolveContext *Ctx = nullptr;
  /// Telemetry scope: the attempt record this solve must fill
  /// truthfully on every exit path.
  IiAttempt &Attempt;
  /// Portfolio wiring (shared-incumbent cell, incumbent publication,
  /// refutation flags); null outside a race. Engines ignore the fields
  /// they have no use for.
  PortfolioEngineHooks *Hooks = nullptr;
  /// Holder of the loop-level pool the PortfolioEngine races on,
  /// created by the loop's first race and reused by the rest of its II
  /// ladder. Required by the PortfolioEngine; other engines ignore it.
  std::unique_ptr<ThreadPool> *RacePool = nullptr;
};

/// One exact engine capable of deciding "is there a schedule at this II,
/// and what is the optimal secondary objective?".
class AttemptEngine {
public:
  virtual ~AttemptEngine();

  /// Stable printable name ("ilp", "pb", "portfolio"); used for
  /// IiAttempt::Winner, counters, and bench records.
  virtual const char *name() const = 0;

  /// Hard capability: can this engine decide (\p P, \p II) at all?
  /// solveAttempt must never be invoked when this is false — the seam
  /// filters first, and engines assert it.
  virtual bool supports(const Problem &P, int II) const = 0;

  /// Soft preference, consulted ONLY by the PortfolioEngine when
  /// several supporting engines could contest an attempt: false means
  /// "racing me here burns a worker" (e.g. PB on wide-coefficient
  /// MinLife rows, ILP on tiny NoObj instances). Never affects the
  /// single-engine backends — a capability this engine lacks belongs in
  /// supports() instead.
  virtual bool worthRacing(const Problem & /*P*/, int /*II*/) const {
    return true;
  }

  /// Decides one tentative II. Returns the verified optimal schedule,
  /// or nullopt on infeasibility / censoring / cancellation, with
  /// C.Attempt and C.Stats telling the truthful story either way.
  virtual std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const = 0;
};

/// LP-relaxation branch-and-bound over ilpsched/Formulation.
class IlpEngine : public AttemptEngine {
public:
  explicit IlpEngine(const SchedulerOptions &Opts) : Opts(Opts) {}

  const char *name() const override { return "ilp"; }
  bool supports(const Problem &P, int II) const override;
  bool worthRacing(const Problem &P, int II) const override;
  std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const override;

private:
  const SchedulerOptions &Opts;
};

/// Conflict-driven pseudo-Boolean search over ilpsched/PbFormulation.
class PbEngine : public AttemptEngine {
public:
  explicit PbEngine(const SchedulerOptions &Opts) : Opts(Opts) {}

  const char *name() const override { return "pb"; }
  bool supports(const Problem &P, int II) const override;
  bool worthRacing(const Problem &P, int II) const override;
  std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const override;

private:
  const SchedulerOptions &Opts;
};

/// Races the registered child engines per II attempt (see
/// ilpsched/PortfolioAttempt.h for the coordination machinery). Child
/// order is the commit preference: when several verdicts are
/// conclusive, the earliest registered child's is committed, keeping
/// race outcomes deterministic.
class PortfolioEngine : public AttemptEngine {
public:
  PortfolioEngine(const SchedulerOptions &Opts,
                  std::vector<const AttemptEngine *> Children)
      : Opts(Opts), Children(std::move(Children)) {}

  const char *name() const override { return "portfolio"; }
  bool supports(const Problem &P, int II) const override;
  std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const override;

  const std::vector<const AttemptEngine *> &children() const {
    return Children;
  }

private:
  const SchedulerOptions &Opts;
  std::vector<const AttemptEngine *> Children;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_ATTEMPTENGINE_H
