//===- lp/SolveContext.h - Per-attempt solve environment --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit environment of one scheduling/solve attempt: the
/// persistent simplex workspace, the absolute wall-clock deadline, and
/// the cooperative cancellation token. Threading one SolveContext
/// through SimplexSolver and MipSolver (instead of hiding deadline and
/// workspace state in options structs and solver members) is what makes
/// the solve pipeline reentrant: any number of contexts — and therefore
/// any number of concurrent attempts — can coexist in one process, each
/// confined to the thread driving it.
///
/// Ownership rules (see DESIGN.md "Concurrency model"):
///  * One SolveContext per concurrent attempt. A context must only be
///    used by one thread at a time — its workspace and deadline are
///    plain (unsynchronized) state.
///  * The CancellationToken is the only cross-thread member: any thread
///    may cancel the source it observes while the owning thread solves.
///  * Telemetry rides thread-locally, not in the context: worker
///    threads record into the shard installed by their
///    telemetry::ThreadShardScope (automatic inside support/ThreadPool).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_SOLVECONTEXT_H
#define MODSCHED_LP_SOLVECONTEXT_H

#include "lp/Simplex.h"
#include "support/Cancellation.h"
#include "support/Timer.h"

#include <algorithm>

namespace modsched {
namespace lp {

/// Sentinel for "no deadline" (same convention the solvers use for
/// their own 1e30 "unlimited" budgets).
inline constexpr double NoDeadline = 1e30;

/// Explicit per-attempt solve environment. Default-constructed contexts
/// have a fresh workspace, no deadline, and a detached (never-cancelled)
/// token, so wrapping a single-threaded call site in a local context is
/// behavior-preserving.
struct SolveContext {
  /// Persistent sparse-engine state and scratch buffers, reused by
  /// every LP solved under this context (the warm-start path of the B&B
  /// node loop).
  SimplexWorkspace Workspace;

  /// Absolute wall-clock deadline on the modsched::monotonicSeconds()
  /// clock; NoDeadline when unlimited. Computed once by whoever owns
  /// the budget and shared by every nested solve — no per-node
  /// remaining-time arithmetic anywhere below.
  double DeadlineSeconds = NoDeadline;

  /// Cooperative cancellation: the solvers poll this at their budget
  /// checkpoints (between B&B nodes, every 64 simplex pivots).
  CancellationToken Cancel;

  /// True once cancellation was requested.
  bool cancelled() const { return Cancel.cancelled(); }

  /// True once the deadline has passed.
  bool deadlineExpired() const {
    return DeadlineSeconds < 1e29 && monotonicSeconds() > DeadlineSeconds;
  }

  /// Tightens the deadline to at most \p Budget seconds from now.
  /// Budgets >= 1e29 mean "unlimited" and leave the deadline unchanged.
  void tightenDeadline(double BudgetSeconds) {
    if (BudgetSeconds < 1e29)
      DeadlineSeconds =
          std::min(DeadlineSeconds, monotonicSeconds() + BudgetSeconds);
  }
};

/// RAII deadline tightening: narrows a context's deadline for the
/// duration of a nested solve (e.g. MipSolver imposing its per-solve
/// TimeLimitSeconds) and restores the outer deadline on exit.
class DeadlineScope {
public:
  DeadlineScope(SolveContext &Ctx, double BudgetSeconds)
      : Ctx(Ctx), Saved(Ctx.DeadlineSeconds) {
    Ctx.tightenDeadline(BudgetSeconds);
  }
  ~DeadlineScope() { Ctx.DeadlineSeconds = Saved; }
  DeadlineScope(const DeadlineScope &) = delete;
  DeadlineScope &operator=(const DeadlineScope &) = delete;

private:
  SolveContext &Ctx;
  double Saved;
};

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_SOLVECONTEXT_H
