//===- bench/e2e/Sweep.cpp - Fresh-solve sweep workloads ------------------===//

#include "Sweep.h"

#include "Ladder.h"
#include "Trace.h"

#include "support/Timer.h"
#include "textio/DdgFormat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace modsched;

namespace e2e {

namespace {

/// Most passes over the records. A record's time is its fastest pass:
/// the one that other tenants of a shared host disturbed least. A PB
/// record costs about 1.6 times an ILP one, so with these counts and
/// SweepLoopsPerSecond either sweep fills about --seconds on a quiet
/// 4-core x86 host; a slower host runs fewer (see runSweep). Runs
/// shorter than 10 s (the self-test's) make 2.
int maxSweepPasses(SchedulerBackend Backend, double Seconds) {
  if (Seconds < 10)
    return 2;
  return Backend == SchedulerBackend::Pb ? 5 : 9;
}

/// Loops per second of --seconds (17 loops at 30 s).
constexpr double SweepLoopsPerSecond = 0.57;

/// Set-up runs this many times at evenly spaced points of the run (see
/// runSweep).
constexpr int SetupRepetitions = 25;

struct Record {
  int Loop = 0;
  int ObjIndex = 0;
};

/// What set-up produces: the loops, the records in a fixed shuffled
/// order, and one scheduler per objective.
struct SweepInput {
  std::vector<DependenceGraph> Loops;
  std::vector<Record> Order;
  std::vector<std::unique_ptr<OptimalModuloScheduler>> Schedulers;
};

/// Draws the suite and loads every loop the way msched loads a .ddg
/// file: the scheduler sees the parsed text, as a compiler handing loops
/// over in the text format would.
SweepInput setUp(const MachineModel &M, SchedulerBackend Backend,
                 const RunOptions &O) {
  SweepInput In;
  for (const DependenceGraph &G :
       sweepLoops(M, O.SuiteSeed, sweepLoopCount(O.Seconds))) {
    std::string Error;
    std::optional<DependenceGraph> Parsed = parseDdg(printDdg(G, M), M, &Error);
    if (!Parsed) {
      std::fprintf(stderr, "fatal: suite loop %s does not round-trip: %s\n",
                   G.name().c_str(), Error.c_str());
      std::exit(2);
    }
    In.Loops.push_back(std::move(*Parsed));
  }
  const std::vector<Objective> &Objs = suiteObjectives();
  for (int L = 0; L < int(In.Loops.size()); ++L)
    for (int Obj = 0; Obj < int(Objs.size()); ++Obj)
      In.Order.push_back({L, Obj});
  // The order is fixed by the suite, not by --seed: records are
  // independent, and reordering them only adds cache and allocator
  // noise (it doubled the per-record timing spread).
  Rng R(mixSeed(O.SuiteSeed, 7));
  for (size_t I = In.Order.size(); I > 1; --I)
    std::swap(In.Order[I - 1], In.Order[R.nextBelow(I)]);
  for (Objective Obj : Objs)
    In.Schedulers.push_back(
        std::make_unique<OptimalModuloScheduler>(M, solveOptions(Backend, Obj)));
  return In;
}

} // namespace

SchedulerOptions solveOptions(SchedulerBackend Backend, Objective Obj) {
  SchedulerOptions O;
  O.Formulation.Obj = Obj;
  O.Formulation.DepStyle = DependenceStyle::Structured;
  O.Backend = Backend;
  O.TimeLimitSeconds = WallClockLimitSeconds;
  O.NodeLimit =
      Backend == SchedulerBackend::Pb ? PbConflictBudget : IlpNodeBudget;
  O.Search = IiSearchKind::Sequential;
  O.SearchJobs = 1;
  O.Explain = false;
  O.Cache = false;
  return O;
}

int sweepLoopCount(double Seconds) {
  return std::max(2, int(std::lround(Seconds * SweepLoopsPerSecond)));
}

RunResult runSweep(const RunOptions &O, SchedulerBackend Backend) {
  RunResult Out;
  const MachineModel M = MachineModel::cydraLike();
  const ExpectedTable Expect =
      loadExpected(expectedPath(O.ExpectedDir, O.Workload, O.SuiteSeed));

  // Set-up takes about half a millisecond. Like a record, it is reported
  // at its fastest: its repetitions are spread over the run (between
  // records, outside the timed calls), because back-to-back ones all land
  // in the same stretch of other tenants' load.
  std::vector<double> SetupSeconds;
  auto TimedSetUp = [&]() {
    Stopwatch Watch;
    SweepInput In = setUp(M, Backend, O);
    SetupSeconds.push_back(Watch.seconds());
    return In;
  };
  const SweepInput In = TimedSetUp();

  // Timed phase: one closed loop, one schedule() call per record, the
  // whole record list once per pass. A pass starts only before --seconds
  // have passed, beyond the first two, so that a slow host shortens the
  // run rather than stretching it; a quiet one runs every pass. Every
  // pass must reproduce the first one's verdict and effort exactly.
  const int MaxPasses = maxSweepPasses(Backend, O.Seconds);
  const size_t N = In.Order.size();
  const size_t SetupStride =
      std::max<size_t>(1, N * size_t(MaxPasses) / (SetupRepetitions - 1));
  std::vector<ScheduleResult> Results(N);
  std::vector<double> Ms(N, INFINITY);
  std::vector<double> PassSeconds;
  const double Deadline = monotonicSeconds() + O.Seconds;
  for (size_t Pass = 0; Pass < size_t(MaxPasses); ++Pass) {
    if (Pass >= 2 && monotonicSeconds() >= Deadline)
      break;
    PassSeconds.push_back(0.0);
    for (size_t I = 0; I < N; ++I) {
      const size_t Call = Pass * N + I;
      if (Call > 0 && Call % SetupStride == 0)
        TimedSetUp();
      const Record &Rec = In.Order[I];
      Stopwatch One;
      ScheduleResult R = In.Schedulers[size_t(Rec.ObjIndex)]->schedule(
          In.Loops[size_t(Rec.Loop)]);
      const double T = One.seconds();
      Ms[I] = std::min(Ms[I], T * 1e3);
      PassSeconds[Pass] += T;
      if (Pass == 0) {
        Results[I] = std::move(R);
        continue;
      }
      const ScheduleResult &First = Results[I];
      if (R.Found != First.Found || R.NodeLimitHit != First.NodeLimitHit ||
          R.II != First.II ||
          R.SecondaryObjective != First.SecondaryObjective ||
          R.Nodes != First.Nodes ||
          R.SimplexIterations != First.SimplexIterations ||
          R.PbConflicts != First.PbConflicts)
        Out.Verdicts.fail(
            recordId(In.Loops[size_t(Rec.Loop)].name(),
                     suiteObjectives()[size_t(Rec.ObjIndex)]) +
            ": pass " + std::to_string(Pass) + " differs from the first");
    }
  }
  double WallSeconds = 0.0;
  for (double T : Ms)
    WallSeconds += T / 1e3;
  Out.Metrics["setup_s"] =
      *std::min_element(SetupSeconds.begin(), SetupSeconds.end());

  // Verdict checks and deterministic counts.
  const std::vector<Objective> &Objs = suiteObjectives();
  int64_t Decided = 0, Nodes = 0, Iterations = 0, Conflicts = 0;
  int64_t Unpinned = 0;
  ObjectiveTally ObjTally;
  for (size_t I = 0; I < N; ++I) {
    const Record &Rec = In.Order[I];
    const DependenceGraph &G = In.Loops[size_t(Rec.Loop)];
    const Objective Obj = Objs[size_t(Rec.ObjIndex)];
    const ScheduleResult &R = Results[I];
    const std::string Id = recordId(G.name(), Obj);
    auto It = Expect.find(Id);
    const Expected *E = It == Expect.end() ? nullptr : &It->second;
    if (!E)
      ++Unpinned;
    Verdict V;
    V.St = classify(R.Found, R.TimedOut, R.NodeLimitHit, R.Seconds);
    V.II = R.II;
    V.Objective = R.SecondaryObjective;
    V.Mii = R.Mii;
    V.Schedule = R.Found ? &R.Schedule : nullptr;
    if (std::optional<std::string> Err = checkVerdict(G, M, Obj, V, E))
      Out.Verdicts.fail(Id + ": " + *Err);
    else
      Out.Verdicts.pass();
    Decided += V.St == Status::Ok;
    Nodes += R.Nodes;
    Iterations += R.SimplexIterations;
    Conflicts += R.PbConflicts;
    ObjTally.add(objectiveName(Obj), V.St == Status::Ok, Ms[I]);
  }

  Out.Metrics["verdicts_per_s"] = double(N) / WallSeconds;
  addLatencyMetrics(Ms, Out);
  Out.Metrics["decided_frac"] = double(Decided) / double(N);
  Out.Counts["records"] = int64_t(N);
  Out.Counts["decided"] = Decided;
  Out.Counts["nodes"] = Nodes;
  Out.Counts["iterations"] = Iterations;
  Out.Counts["conflicts"] = Conflicts;
  Out.Diagnostics["unpinned_records"] = double(Unpinned);
  Out.Diagnostics["timed_wall_s"] = WallSeconds;
  Out.Diagnostics["passes"] = double(PassSeconds.size());
  for (size_t Pass = 0; Pass < PassSeconds.size(); ++Pass)
    Out.Diagnostics["pass" + std::to_string(Pass) + "_s"] = PassSeconds[Pass];
  Out.Diagnostics["loops"] = double(In.Loops.size());

  if (!O.Trace)
    return Out;

  // Traced pass: the same records, in the same order, through the
  // traced ladder; each must reproduce its untraced verdict and effort.
  // Its overhead is measured against an average untraced pass.
  double MeanPassSeconds = 0.0;
  for (double S : PassSeconds)
    MeanPassSeconds += S / double(PassSeconds.size());
  Tracer T(true);
  LadderTotals Totals;
  int64_t Unfaithful = 0;
  for (size_t I = 0; I < N; ++I) {
    const Record &Rec = In.Order[I];
    const DependenceGraph &G = In.Loops[size_t(Rec.Loop)];
    const Objective Obj = Objs[size_t(Rec.ObjIndex)];
    LadderResult L;
    {
      SpanScope Root(T, "record", int64_t(I));
      L = runLadder(G, M, solveOptions(Backend, Obj), T, int64_t(I));
    }
    Totals.add(L);
    const ScheduleResult &R = Results[I];
    UntracedOutcome U;
    U.St = classify(R.Found, R.TimedOut, R.NodeLimitHit, R.Seconds);
    U.II = R.II;
    U.Objective = R.SecondaryObjective;
    U.Nodes = R.Nodes;
    U.Iterations = R.SimplexIterations;
    U.Conflicts = R.PbConflicts;
    std::string Why = ladderDivergence(L, U);
    if (!Why.empty()) {
      ++Unfaithful;
      std::fprintf(stderr, "e2e: trace unfaithful on %s: %s\n",
                   recordId(G.name(), Obj).c_str(), Why.c_str());
    }
  }
  addLayerMetrics(T, Totals, 0.0, 0, Out.Metrics, Out.Diagnostics);
  addObjectiveMetrics(ObjTally, Out.Metrics);
  for (const char *Idle :
       {"server.overhead_share", "problem.hash_exact_frac", "cache.hit_frac"})
    Out.Metrics[Idle] = 0.0;
  Out.Metrics["trace.unfaithful_records"] = double(Unfaithful);
  Out.Metrics["trace.overhead_frac"] =
      MeanPassSeconds > 0 ? T.rootTimeUs() / 1e6 / MeanPassSeconds - 1.0
                          : 0.0;
  T.writeChromeTrace(O.ResultsDir + "/trace-" + O.Workload + ".json",
                     O.Workload);
  return Out;
}

ExpectedInputs sweepInputs(uint64_t SuiteSeed) {
  const MachineModel M = MachineModel::cydraLike();
  ExpectedInputs Out;
  for (const DependenceGraph &G : sweepLoops(M, SuiteSeed, PinnedSweepLoops))
    for (Objective Obj : suiteObjectives()) {
      ExpectedInput &In = Out[recordId(G.name(), Obj)];
      In.G = G;
      In.Obj = Obj;
      In.E.Ops = G.numOperations();
    }
  return Out;
}

} // namespace e2e
