//===- bench/e2e/Ladder.cpp - Traced II ladder ----------------------------===//

#include "Ladder.h"

#include "ilp/BranchAndBound.h"
#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "lp/SolveContext.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace modsched;

namespace e2e {

namespace {

/// Verifier gate of the engines and the attempt seam: a rejected
/// schedule is an engine bug and stops the benchmark, as it stops the
/// scheduler.
void verifyOrDie(const DependenceGraph &G, const MachineModel &M,
                 const ModuloSchedule &S, int MaxTime, Tracer &T,
                 int64_t Id) {
  SpanScope Span(T, "verifier", Id);
  std::optional<std::string> Err = verifySchedule(G, M, S, MaxTime);
  if (!Err)
    Err = verifySchedule(G, M, S);
  if (Err) {
    std::fprintf(stderr, "fatal: traced ladder produced an invalid "
                         "schedule: %s\n",
                 Err->c_str());
    std::abort();
  }
}

/// Loop-level verdict flags, as ScheduleResult carries them.
struct SearchState {
  bool TimedOut = false;
  bool NodeLimitHit = false;
};

/// IlpEngine::solveAttempt with the cache, hooks and explanations off.
std::optional<ModuloSchedule>
ilpAttempt(const DependenceGraph &G, const MachineModel &M,
           const SchedulerOptions &Opts, int II, double TimeBudget,
           LadderResult &L, SearchState &State, Tracer &T, int64_t Id) {
  std::optional<Formulation> F;
  {
    SpanScope Span(T, "formulation.build", Id);
    F.emplace(G, M, II, Opts.Formulation);
  }
  ++L.IlpBuilds;
  L.IlpRows += F->stats().Rows;
  L.IlpNonzeros += F->stats().Nonzeros;
  if (!F->valid()) {
    ++L.WindowInfeasible;
    return std::nullopt;
  }

  ilp::MipResult R;
  {
    SpanScope Span(T, "ilp.solve", Id);
    ilp::MipOptions MipOpts;
    MipOpts.TimeLimitSeconds = TimeBudget;
    MipOpts.NodeLimit = Opts.NodeLimit - L.budgetNodes();
    MipOpts.Branching = Opts.Branching;
    MipOpts.StopAtFirstSolution = Opts.Formulation.Obj == Objective::None;
    MipOpts.WarmStart = Opts.WarmStart;
    MipOpts.Lp.Engine = Opts.LpEngine;
    ilp::MipSolver Solver(MipOpts);
    lp::SolveContext Ctx;
    R = Solver.solve(F->model(), Ctx);
  }
  L.Nodes += R.Nodes;
  L.Iterations += R.SimplexIterations;
  L.WarmLpSolves += R.WarmLpSolves;
  L.ColdLpSolves += R.ColdLpSolves;
  L.Refactorizations += R.LpRefactorizations;
  L.EtaNonzeros += R.LpEtaNonzeros;

  if (R.Status == ilp::MipStatus::Cancelled)
    return std::nullopt;
  if (R.Status == ilp::MipStatus::Limit) {
    if (R.HitNodeLimit)
      State.NodeLimitHit = true;
    if (R.HitTimeLimit || !R.HitNodeLimit)
      State.TimedOut = true;
    return std::nullopt;
  }
  if (!R.HasSolution)
    return std::nullopt; // Proved infeasible at this II.

  std::optional<ModuloSchedule> S;
  {
    SpanScope Span(T, "decode", Id);
    S = F->decode(R.Values);
  }
  verifyOrDie(G, M, *S, F->maxTime(), T, Id);
  L.Objective = R.Objective;
  return S;
}

/// PbEngine::solveAttempt (fresh solver per attempt, no portfolio
/// hooks): solution-improving descent under the shared node budget.
std::optional<ModuloSchedule>
pbAttempt(const DependenceGraph &G, const MachineModel &M,
          const SchedulerOptions &Opts, int II, double TimeBudget,
          LadderResult &L, SearchState &State, Tracer &T, int64_t Id) {
  std::optional<PbFormulation> F;
  {
    SpanScope Span(T, "pbformulation.build", Id);
    F.emplace(G, M, II, Opts.Formulation);
  }
  ++L.PbBuilds;
  L.PbVariables += F->numVariables();
  L.PbConstraints += F->numConstraints();
  if (!F->valid()) {
    ++L.WindowInfeasible;
    return std::nullopt;
  }

  lp::SolveContext Ctx;
  lp::DeadlineScope Deadline(Ctx, TimeBudget);
  pb::Solver &S = F->solver();
  S.DeadlineSeconds = Ctx.DeadlineSeconds;
  S.Cancel = Ctx.Cancel;
  const pb::SolverStats Before = S.stats();
  const int64_t PriorBudget = L.budgetNodes();
  auto ConflictsLeft = [&]() {
    return Opts.NodeLimit - PriorBudget -
           (S.stats().Conflicts - Before.Conflicts);
  };
  // Effort is folded in on every exit, as the engine's AccountOnExit.
  auto Account = [&]() {
    const pb::SolverStats &After = S.stats();
    L.Conflicts += After.Conflicts - Before.Conflicts;
    L.Propagations += After.Propagations - Before.Propagations;
    L.Restarts += After.Restarts - Before.Restarts;
    L.Learned += After.Learned - Before.Learned;
  };

  bool HaveIncumbent = false;
  int64_t BestObj = 0;
  ModuloSchedule Best;
  for (;;) {
    if (Opts.NodeLimit != INT64_MAX) {
      int64_t Left = ConflictsLeft();
      if (Left <= 0) {
        State.NodeLimitHit = true;
        Account();
        return std::nullopt;
      }
      S.ConflictLimit = Left;
    }
    pb::SolveStatus R;
    {
      SpanScope Span(T, "pb.solve", Id);
      R = S.solve(F->assumptions());
    }
    if (R == pb::SolveStatus::Sat) {
      ModuloSchedule Sched;
      {
        SpanScope Span(T, "decode", Id);
        Sched = F->decode();
      }
      verifyOrDie(G, M, Sched, F->maxTime(), T, Id);
      Best = std::move(Sched);
      BestObj = F->evalObjective();
      HaveIncumbent = true;
      if (!F->hasObjective())
        break;
      bool Open;
      {
        SpanScope Span(T, "pbformulation.build", Id);
        Open = F->pushObjectiveBound(BestObj - 1);
      }
      if (!Open)
        break;
      continue;
    }
    if (R == pb::SolveStatus::Unsat) {
      if (HaveIncumbent)
        break;
      Account();
      return std::nullopt; // Proved infeasible at this II.
    }
    if (R == pb::SolveStatus::Cancelled) {
      Account();
      return std::nullopt;
    }
    if (Opts.NodeLimit != INT64_MAX && ConflictsLeft() <= 0)
      State.NodeLimitHit = true;
    else
      State.TimedOut = true;
    Account();
    return std::nullopt;
  }
  Account();
  L.Objective = double(BestObj);
  return Best;
}

} // namespace

LadderResult runLadder(const DependenceGraph &G, const MachineModel &M,
                       const SchedulerOptions &Opts, Tracer &T,
                       int64_t RequestId, int KnownMii) {
  LadderResult L;
  Stopwatch Watch;
  if (KnownMii >= 0) {
    L.Mii = KnownMii;
  } else {
    SpanScope Span(T, "mii", RequestId);
    L.Mii = mii(G, M);
  }
  const bool UsePb = Opts.Backend == SchedulerBackend::Pb &&
                     PbFormulation::supports(Opts.Formulation);
  SearchState State;
  bool Found = false;
  for (int II = L.Mii; II <= L.Mii + Opts.MaxIiIncrease; ++II) {
    double Remaining = Opts.TimeLimitSeconds - Watch.seconds();
    if (Remaining <= 0) {
      State.TimedOut = true;
      break;
    }
    if (L.budgetNodes() >= Opts.NodeLimit) {
      State.NodeLimitHit = true;
      break;
    }
    std::optional<ModuloSchedule> S;
    {
      SpanScope Span(T, "search.attempt", RequestId);
      ++L.Attempts;
      S = UsePb ? pbAttempt(G, M, Opts, II, Remaining, L, State, T,
                            RequestId)
                : ilpAttempt(G, M, Opts, II, Remaining, L, State, T,
                             RequestId);
    }
    if (State.TimedOut || State.NodeLimitHit)
      break;
    if (S) {
      Found = true;
      ++L.ScheduledAttempts;
      L.II = II;
      L.Schedule = std::move(*S);
      break;
    }
  }
  if (!Found)
    L.Objective = 0.0;
  L.St = classify(Found, State.TimedOut, State.NodeLimitHit, Watch.seconds());
  return L;
}

void LadderTotals::add(const LadderResult &L) {
  ++Records;
  if (L.St == Status::Ok) {
    ++Found;
    IiAboveMii += L.II - L.Mii;
  }
  Sum.Nodes += L.Nodes;
  Sum.Iterations += L.Iterations;
  Sum.WarmLpSolves += L.WarmLpSolves;
  Sum.ColdLpSolves += L.ColdLpSolves;
  Sum.Refactorizations += L.Refactorizations;
  Sum.EtaNonzeros += L.EtaNonzeros;
  Sum.Conflicts += L.Conflicts;
  Sum.Propagations += L.Propagations;
  Sum.Restarts += L.Restarts;
  Sum.Learned += L.Learned;
  Sum.Attempts += L.Attempts;
  Sum.WindowInfeasible += L.WindowInfeasible;
  Sum.ScheduledAttempts += L.ScheduledAttempts;
  Sum.IlpBuilds += L.IlpBuilds;
  Sum.IlpRows += L.IlpRows;
  Sum.IlpNonzeros += L.IlpNonzeros;
  Sum.PbBuilds += L.PbBuilds;
  Sum.PbVariables += L.PbVariables;
  Sum.PbConstraints += L.PbConstraints;
}

void addLayerMetrics(const Tracer &T, const LadderTotals &Totals,
                     double ExtraVerifyUs, int64_t ExtraVerifyCalls,
                     std::map<std::string, double> &Metrics,
                     std::map<std::string, double> &Diagnostics) {
  std::map<std::string, double> Self = T.selfTimeUs();
  std::map<std::string, int64_t> Calls = T.spanCounts();
  const double Wall = T.rootTimeUs();
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto Share = [&](const char *Span) { return Ratio(Self[Span], Wall); };

  Metrics["protocol.read_frame_share"] = Share("protocol.read_frame");
  Metrics["textio.parse_share"] = Share("textio.parse");
  Metrics["problem.canon_share"] = Share("problem.canon");
  Metrics["cache.lookup_share"] = Share("cache.lookup");
  Metrics["formulation.build_share"] = Share("formulation.build");
  Metrics["pbformulation.build_share"] = Share("pbformulation.build");
  Metrics["ilp.solve_share"] = Share("ilp.solve");
  Metrics["pb.solve_share"] = Share("pb.solve");
  Metrics["decode.share"] = Share("decode");
  Metrics["mii.us_mean"] = Ratio(Self["mii"], double(Calls["mii"]));
  Metrics["verifier.us_mean"] =
      Ratio(Self["verifier"] + ExtraVerifyUs,
            double(Calls["verifier"] + ExtraVerifyCalls));
  Metrics["trace.unattributed_frac"] =
      Ratio(Self["record"] + Self["frame"], Wall);

  const LadderResult &S = Totals.Sum;
  Metrics["search.attempts_per_record"] =
      Ratio(double(S.Attempts), double(Totals.Records));
  Metrics["search.useful_attempt_frac"] =
      Ratio(double(S.ScheduledAttempts), double(S.Attempts));
  Metrics["search.window_infeasible_frac"] =
      Ratio(double(S.WindowInfeasible), double(S.Attempts));
  Metrics["search.ii_minus_mii_mean"] =
      Ratio(double(Totals.IiAboveMii), double(Totals.Found));
  Metrics["formulation.rows_mean"] =
      Ratio(double(S.IlpRows), double(S.IlpBuilds));
  Metrics["formulation.nnz_mean"] =
      Ratio(double(S.IlpNonzeros), double(S.IlpBuilds));
  Metrics["pbformulation.vars_mean"] =
      Ratio(double(S.PbVariables), double(S.PbBuilds));
  Metrics["pbformulation.constraints_mean"] =
      Ratio(double(S.PbConstraints), double(S.PbBuilds));
  Metrics["ilp.nodes_total"] = double(S.Nodes);
  Metrics["lp.iterations_total"] = double(S.Iterations);
  Metrics["lp.warm_solve_frac"] =
      Ratio(double(S.WarmLpSolves), double(S.WarmLpSolves + S.ColdLpSolves));
  Metrics["lp.refactorizations_total"] = double(S.Refactorizations);
  Metrics["lp.eta_nnz_total"] = double(S.EtaNonzeros);
  Metrics["pb.conflicts_total"] = double(S.Conflicts);
  Metrics["pb.propagations_per_conflict"] =
      Ratio(double(S.Propagations), double(S.Conflicts));
  Metrics["pb.learned_total"] = double(S.Learned);
  Metrics["pb.restarts_total"] = double(S.Restarts);

  // Absolute layer times and rates, for reading a result file next to
  // its trace.
  Diagnostics["trace.root_us"] = Wall;
  for (const auto &[Name, Us] : Self)
    Diagnostics["self_us." + Name] = Us;
  for (const auto &[Name, N] : Calls)
    Diagnostics["calls." + Name] = double(N);
  Diagnostics["ilp.nodes_per_s"] =
      Ratio(double(S.Nodes), Self["ilp.solve"] / 1e6);
  Diagnostics["lp.iterations_per_s"] =
      Ratio(double(S.Iterations), Self["ilp.solve"] / 1e6);
  Diagnostics["pb.conflicts_per_s"] =
      Ratio(double(S.Conflicts), Self["pb.solve"] / 1e6);
  Diagnostics["trace.roots_unattributed_over_5pct"] =
      double(T.rootsUnattributedAbove(0.05));
}

std::string ladderDivergence(const LadderResult &L, const UntracedOutcome &U) {
  auto Field = [](const char *Name, double Traced, double Untraced) {
    return std::string(Name) + " " + std::to_string(Traced) +
           " != untraced " + std::to_string(Untraced);
  };
  if (L.St != U.St)
    return std::string("status ") + statusName(L.St) + " != untraced " +
           statusName(U.St);
  if (L.St == Status::Ok && L.II != U.II)
    return Field("II", L.II, U.II);
  if (L.St == Status::Ok && std::abs(L.Objective - U.Objective) > 1e-6)
    return Field("objective", L.Objective, U.Objective);
  if (L.Nodes != U.Nodes)
    return Field("nodes", double(L.Nodes), double(U.Nodes));
  if (U.Iterations >= 0 && L.Iterations != U.Iterations)
    return Field("iterations", double(L.Iterations), double(U.Iterations));
  if (L.Conflicts != U.Conflicts)
    return Field("conflicts", double(L.Conflicts), double(U.Conflicts));
  return "";
}

} // namespace e2e
