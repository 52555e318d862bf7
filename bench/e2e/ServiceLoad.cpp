//===- bench/e2e/ServiceLoad.cpp - Service replay workload ----------------===//

#include "ServiceLoad.h"

#include "Ladder.h"
#include "Sweep.h"
#include "Trace.h"

#include "ilpsched/SolutionCache.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/Telemetry.h"
#include "support/Timer.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <sched.h>

using namespace modsched;
using namespace modsched::service;

namespace e2e {

namespace {

constexpr int Workers = 2;
constexpr int QueueLimit = 64;
constexpr int VariantsPerEntry = 8;
constexpr double ZipfSkew = 1.1;
/// Pool size per second of --seconds, capped: runs of 15 s and more
/// replay 60 entries.
constexpr double PoolEntriesPerSecond = 4.0;
constexpr int PoolMax = 60;
/// The pool is solved afresh this many times (see runServiceReplay).
constexpr int SetupRepetitions = 3;

int poolCount(double Seconds) {
  return std::clamp(int(std::lround(Seconds * PoolEntriesPerSecond)), 8,
                    PoolMax);
}

ServerOptions serverOptions() {
  ServerOptions S;
  S.Workers = Workers;
  S.QueueLimit = QueueLimit;
  S.DefaultTimeLimitSeconds = WallClockLimitSeconds;
  S.MaxTimeLimitSeconds = 2 * WallClockLimitSeconds;
  S.DefaultNodeLimit = IlpNodeBudget;
  S.Cache = true;
  S.Backend = SchedulerBackend::Ilp;
  S.EmitSchedules = true;
  return S;
}

int countLines(const std::string &Text) {
  return int(std::count(Text.begin(), Text.end(), '\n'));
}

/// One SCHED frame with inline machine and loop payloads and the
/// benchmark's budgets.
std::string frameText(const std::string &Id, Objective Obj,
                      const std::string &MachineText,
                      const std::string &DdgText) {
  std::string F = "SCHED id=" + Id + " objective=" + objectiveName(Obj) +
                  " nodes=" + std::to_string(IlpNodeBudget) +
                  " time=" + std::to_string(int(WallClockLimitSeconds)) + "\n";
  F += "MACHINE " + std::to_string(countLines(MachineText)) + "\n" +
       MachineText;
  F += "DDG " + std::to_string(countLines(DdgText)) + "\n" + DdgText;
  F += "END\n";
  return F;
}

/// The raw text of "key":<value> in a one-line reply (strings without
/// their quotes); empty when absent.
std::string field(const std::string &Line, const std::string &Key) {
  const std::string Needle = "\"" + Key + "\":";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  if (At < Line.size() && Line[At] == '"') {
    size_t End = Line.find('"', At + 1);
    return End == std::string::npos ? "" : Line.substr(At + 1, End - At - 1);
  }
  size_t End = Line.find_first_of(",}", At);
  return Line.substr(At, End == std::string::npos ? End : End - At);
}

double numberField(const std::string &Line, const std::string &Key) {
  return std::strtod(field(Line, Key).c_str(), nullptr);
}

/// The schedule of an ok reply ("schedule":{"ii":..,"times":[..]}).
std::optional<ModuloSchedule> replySchedule(const std::string &Line) {
  const size_t At = Line.find("\"schedule\":");
  if (At == std::string::npos)
    return std::nullopt;
  const std::string Sched = Line.substr(At);
  const int II = std::atoi(field(Sched, "ii").c_str());
  const size_t Open = Sched.find("\"times\":[");
  const size_t Close = Sched.find(']', Open);
  if (II < 1 || Open == std::string::npos || Close == std::string::npos)
    return std::nullopt;
  std::vector<int> Times;
  std::istringstream List(
      Sched.substr(Open + 9, Close - (Open + 9)));
  std::string Item;
  while (std::getline(List, Item, ','))
    Times.push_back(std::atoi(Item.c_str()));
  return ModuloSchedule(II, std::move(Times));
}

/// Status of a reply; nullopt for error, shed and cancelled replies.
std::optional<Status> replyStatus(const std::string &Line) {
  const std::string S = field(Line, "status");
  if (S == "ok")
    return Status::Ok;
  if (S == "node_limit")
    return Status::NodeLimit;
  if (S == "unsolved")
    return Status::Unsolved;
  if (S == "timeout")
    return classify(false, true, false, numberField(Line, "seconds"));
  return std::nullopt;
}

/// Full check of one reply against loop \p G (in the frame's labeling).
std::optional<std::string> checkReply(const std::string &Line,
                                      const DependenceGraph &G,
                                      const MachineModel &M, Objective Obj,
                                      const Expected *E) {
  std::optional<Status> St = replyStatus(Line);
  if (!St)
    return "reply status '" + field(Line, "status") + "': " + Line;
  Verdict V;
  V.St = *St;
  V.II = std::atoi(field(Line, "ii").c_str());
  V.Objective = numberField(Line, "secondary");
  V.Mii = std::atoi(field(Line, "mii").c_str());
  std::optional<ModuloSchedule> Sched = replySchedule(Line);
  if (V.St == Status::Ok && !Sched)
    return std::string("ok reply without a schedule");
  V.Schedule = Sched ? &*Sched : nullptr;
  return checkVerdict(G, M, Obj, V, E);
}

/// One closed-loop exchange: a stream holding one frame in, its reply
/// line out.
std::string roundTrip(Server &Srv, const std::string &Frame,
                      const std::string &Client) {
  std::istringstream In(Frame);
  std::ostringstream Out;
  Srv.serveStream(In, Out, Client);
  std::string Line = Out.str();
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line;
}

/// Zipf sampler over ranks [0, N) with exponent S.
class ZipfSampler {
public:
  ZipfSampler(int N, double S) : Cdf(size_t(std::max(N, 1))) {
    double Sum = 0;
    for (int I = 0; I < N; ++I)
      Sum += 1.0 / std::pow(double(I + 1), S);
    double Acc = 0;
    for (int I = 0; I < N; ++I) {
      Acc += 1.0 / std::pow(double(I + 1), S) / Sum;
      Cdf[size_t(I)] = Acc;
    }
    Cdf.back() = 1.0;
  }
  int sample(Rng &R) const {
    double U = R.nextDouble();
    return int(std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  }

private:
  std::vector<double> Cdf;
};

/// A pool entry: one loop under a fixed objective, its set-up verdict,
/// and its relabeled variants.
struct Entry {
  std::string Id;
  DependenceGraph G;
  Objective Obj = Objective::None;
  const Expected *E = nullptr;
  std::string Frame; ///< Original labeling, solved during set-up.
  std::vector<DependenceGraph> Variants;
  std::vector<std::string> VariantFrames;
  bool Replayable = false;
  /// Verdict text of the set-up reply; every replay must echo it.
  std::string Ii, Secondary;
};

/// One replayed frame: pool entry \p Index in relabeling \p Variant.
struct FrameRef {
  int Index = 0;
  int Variant = 0;
};

struct ServiceInput {
  std::vector<Entry> Pool;
  /// Replayable pool entries by zipf rank (a suite-seeded order).
  std::vector<int> Hot;
  /// Round trip of each pool entry's set-up solve.
  std::vector<double> SolveMs;
  Tally SetupVerdicts;
};

/// Set-up: clears the cache, solves the pool through a server (one
/// client), checks every verdict and builds the relabeled replay frames.
ServiceInput setUp(const RunOptions &O, const MachineModel &M,
                   const ExpectedTable &Expect) {
  ServiceInput In;
  SolutionCache::global().clear();
  const std::string MachineText = printMachine(M);

  std::vector<DependenceGraph> Loops =
      poolLoops(M, O.SuiteSeed, poolCount(O.Seconds));
  for (size_t I = 0; I < Loops.size(); ++I) {
    Entry E;
    E.G = std::move(Loops[I]);
    E.Obj = entryObjective(int(I));
    E.Id = recordId(E.G.name(), E.Obj);
    auto It = Expect.find(E.Id);
    E.E = It == Expect.end() ? nullptr : &It->second;
    E.Frame = frameText("p" + std::to_string(I), E.Obj, MachineText,
                        printDdg(E.G, M));
    In.Pool.push_back(std::move(E));
  }

  // Fresh solves of the pool by one closed-loop client. A server worker's
  // persistent solver state changes the branch-and-bound path of the
  // loops it solves later, so only a fixed request order on one worker
  // state makes the pool's node counts, and with them which entries
  // are decided and replayable, repeat from run to run.
  const int N = int(In.Pool.size());
  std::vector<std::string> Replies;
  {
    Server Srv(serverOptions());
    for (const Entry &E : In.Pool) {
      Stopwatch Watch;
      Replies.push_back(roundTrip(Srv, E.Frame, "setup"));
      In.SolveMs.push_back(Watch.seconds() * 1e3);
    }
  }
  for (int I = 0; I < N; ++I) {
    Entry &E = In.Pool[size_t(I)];
    const std::string &Line = Replies[size_t(I)];
    if (std::optional<std::string> Err = checkReply(Line, E.G, M, E.Obj, E.E))
      In.SetupVerdicts.fail(E.Id + " (set-up): " + *Err);
    else
      In.SetupVerdicts.pass();
    E.Replayable = field(Line, "status") == "ok";
    E.Ii = field(Line, "ii");
    E.Secondary = field(Line, "secondary");
    if (E.Replayable)
      In.Hot.push_back(I);
  }
  Rng HotOrder(mixSeed(O.SuiteSeed, 4));
  for (size_t I = In.Hot.size(); I > 1; --I)
    std::swap(In.Hot[I - 1], In.Hot[HotOrder.nextBelow(I)]);

  Rng Relabel(mixSeed(O.Seed, 3));
  for (int I = 0; I < N; ++I) {
    Entry &E = In.Pool[size_t(I)];
    for (int V = 0; V < VariantsPerEntry; ++V) {
      E.Variants.push_back(relabelGraph(E.G, Relabel));
      E.VariantFrames.push_back(
          frameText("p" + std::to_string(I) + "v" + std::to_string(V), E.Obj,
                    MachineText, printDdg(E.Variants.back(), M)));
    }
  }
  return In;
}

/// Everything the client observed during the timed phase.
struct ClientLog {
  LatencyHistogram Ms;
  /// Per (entry, variant), at Index * VariantsPerEntry + Variant: frames
  /// sent and the fastest round trip among them.
  std::vector<int64_t> Sent;
  std::vector<double> BestMs;
  double LatencySumMs = 0.0;
  double OverheadSumMs = 0.0;
  int64_t Decided = 0;
  Tally Verdicts;
  ObjectiveTally Objectives;
  /// First reply per (entry, variant), fully checked after the run.
  std::map<std::pair<int, int>, std::string> FirstReplies;
  double EndSeconds = 0.0;
};

/// Sends frame \p Ref, records its latency, and checks what can be
/// checked inline: a replay must come back ok with the set-up verdict.
void exchange(Server &Srv, const ServiceInput &In, const FrameRef &Ref,
              const std::string &Client, ClientLog &Log) {
  const Entry &E = In.Pool[size_t(Ref.Index)];
  Stopwatch Watch;
  std::string Line = roundTrip(Srv, E.VariantFrames[size_t(Ref.Variant)],
                               Client);
  const double Ms = Watch.seconds() * 1e3;
  Log.Ms.add(Ms);
  const size_t Kind = size_t(Ref.Index * VariantsPerEntry + Ref.Variant);
  ++Log.Sent[Kind];
  Log.BestMs[Kind] = std::min(Log.BestMs[Kind], Ms);
  Log.LatencySumMs += Ms;
  Log.OverheadSumMs += Ms - numberField(Line, "seconds") * 1e3;
  const bool Ok = field(Line, "status") == "ok";
  Log.Decided += Ok;
  Log.Objectives.add(objectiveName(E.Obj), Ok, Ms);
  if (!Ok)
    Log.Verdicts.fail(E.Id + " (replay): " + Line);
  else if (field(Line, "ii") != E.Ii || field(Line, "secondary") != E.Secondary)
    Log.Verdicts.fail(E.Id + " (replay): verdict differs from set-up: " +
                      Line);
  else
    Log.Verdicts.pass();
  Log.FirstReplies.try_emplace(std::make_pair(Ref.Index, Ref.Variant),
                               std::move(Line));
}

/// The path a replay takes through the layers, driven from outside on
/// the calling thread: framing, payload parsing, MII, canonical labeling
/// and the cache lookup (replay and re-verify inside).
struct FrameTrace {
  bool Hit = false;
  bool Exact = false;
  int II = 0;
  double Objective = 0.0;
  bool Clean = false;    ///< The replayed schedule passes the verifier.
  double VerifyUs = 0.0; ///< Re-verify of a hit, timed outside any span.
};

FrameTrace traceFrame(const std::string &Text, Tracer &T, int64_t Id) {
  FrameTrace Out;
  SpanScope Root(T, "frame", Id);
  Frame F;
  {
    SpanScope Span(T, "protocol.read_frame", Id);
    std::istringstream In(Text);
    F = readFrame(In, ProtocolLimits());
  }
  std::optional<MachineModel> M;
  std::optional<DependenceGraph> G;
  {
    SpanScope Span(T, "textio.parse", Id);
    M = parseMachine(F.Req.MachineText);
    if (M)
      G = parseDdg(F.Req.DdgText, *M);
  }
  if (F.Kind != FrameKind::Sched || !M || !G) {
    std::fprintf(stderr, "fatal: benchmark frame %lld does not parse\n",
                 static_cast<long long>(Id));
    std::exit(2);
  }
  {
    SpanScope Span(T, "mii", Id);
    mii(*G, *M);
  }
  SchedulerOptions SOpts = solveOptions(SchedulerBackend::Ilp, F.Req.Obj);
  SOpts.Formulation.DepStyle = F.Req.DepStyle;
  SOpts.NodeLimit = F.Req.NodeLimit;
  SOpts.Cache = true;
  Problem P(*G, *M, SOpts.Formulation);
  {
    SpanScope Span(T, "problem.canon", Id);
    P.canonicalHash();
    Out.Exact = P.hashExact();
  }
  std::optional<SolutionCache::Hit> Hit;
  {
    SpanScope Span(T, "cache.lookup", Id);
    Hit = SolutionCache::global().lookup(P, SolutionCache::requestKey(SOpts));
  }
  if (!Hit)
    return Out;
  Out.Hit = true;
  Out.II = Hit->II;
  Out.Objective = Hit->SecondaryObjective;
  Stopwatch Watch;
  Out.Clean = !verifySchedule(*G, *M, Hit->Schedule);
  Out.VerifyUs = Watch.seconds() * 1e6;
  return Out;
}

/// Confines the calling thread, and the threads it starts, to the CPU it
/// runs on; restores its CPU set on destruction.
class PinToCurrentCpu {
public:
  PinToCurrentCpu() {
    CPU_ZERO(&Saved);
    Cpu = sched_getcpu();
    Pinned = Cpu >= 0 && sched_getaffinity(0, sizeof(Saved), &Saved) == 0;
    if (!Pinned)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  ~PinToCurrentCpu() {
    if (Pinned)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  PinToCurrentCpu(const PinToCurrentCpu &) = delete;
  PinToCurrentCpu &operator=(const PinToCurrentCpu &) = delete;

  /// The CPU pinned to, or -1.
  int cpu() const { return Pinned ? Cpu : -1; }

private:
  cpu_set_t Saved;
  int Cpu = -1;
  bool Pinned = false;
};

/// Reads a cache counter by name (merged shards only).
int64_t cacheCounter(const char *Name) {
  telemetry::Counter *C = telemetry::findCounter(std::string("ilpsched/") +
                                                 Name);
  return C ? C->value() : 0;
}

} // namespace

RunResult runServiceReplay(const RunOptions &O) {
  RunResult Out;
  const MachineModel M = MachineModel::cydraLike();
  const ExpectedTable Expect =
      loadExpected(expectedPath(O.ExpectedDir, O.Workload, O.SuiteSeed));

  // Set-up is reported at its best, as the replays are: each pool solve
  // at its fastest repetition, plus the fastest remainder (drawing the
  // pool and building the relabeled frames).
  ServiceInput In;
  std::vector<double> BestSolveMs;
  double BestRestSeconds = INFINITY;
  for (int Rep = 0; Rep < SetupRepetitions; ++Rep) {
    Stopwatch Watch;
    In = setUp(O, M, Expect);
    double Seconds = Watch.seconds();
    BestSolveMs.resize(In.SolveMs.size(), INFINITY);
    for (size_t I = 0; I < In.SolveMs.size(); ++I) {
      BestSolveMs[I] = std::min(BestSolveMs[I], In.SolveMs[I]);
      Seconds -= In.SolveMs[I] / 1e3;
    }
    BestRestSeconds = std::min(BestRestSeconds, Seconds);
    Out.Verdicts.merge(In.SetupVerdicts);
  }
  double SetupSeconds = BestRestSeconds;
  for (double Ms : BestSolveMs)
    SetupSeconds += Ms / 1e3;
  Out.Metrics["setup_s"] = SetupSeconds;
  if (In.Hot.empty()) {
    Out.Verdicts.fail("set-up solved no pool entry");
    return Out;
  }
  ZipfSampler Zipf(int(In.Hot.size()), ZipfSkew);
  auto ReplayRef = [&](Rng &R) {
    FrameRef Ref;
    Ref.Index = In.Hot[size_t(Zipf.sample(R))];
    Ref.Variant = int(R.nextBelow(VariantsPerEntry));
    return Ref;
  };

  // Traced pass (trace runs only), before the timed phase: a sample of
  // replays, once with tracing off and once on.
  Tracer T(true);
  std::vector<std::pair<FrameRef, FrameTrace>> Traced;
  double UntracedUs = 0.0, ExtraVerifyUs = 0.0;
  int64_t ExtraVerifyCalls = 0, ExactCount = 0;
  if (O.Trace) {
    std::vector<FrameRef> Sample;
    Rng R(mixSeed(O.Seed, 100));
    const int K = std::clamp(int(O.Seconds * 250), 500, 5000);
    for (int I = 0; I < K; ++I)
      Sample.push_back(ReplayRef(R));
    auto TextOf = [&](const FrameRef &Ref) -> const std::string & {
      return In.Pool[size_t(Ref.Index)].VariantFrames[size_t(Ref.Variant)];
    };
    Tracer Off(false);
    for (size_t I = 0; I < Sample.size(); ++I) {
      Stopwatch Watch;
      traceFrame(TextOf(Sample[I]), Off, int64_t(I));
      UntracedUs += Watch.seconds() * 1e6;
    }
    for (size_t I = 0; I < Sample.size(); ++I) {
      FrameTrace F = traceFrame(TextOf(Sample[I]), T, int64_t(I));
      if (F.Hit) {
        ExtraVerifyUs += F.VerifyUs;
        ++ExtraVerifyCalls;
      }
      ExactCount += F.Exact;
      Traced.emplace_back(Sample[I], F);
    }
  }

  // Timed phase on a fresh server (the cache keeps the set-up's
  // entries), with one closed-loop client on this thread. The client and
  // the server's workers share one CPU: the client blocks while a worker
  // serves its frame, so they never compete for it, and every hand-off
  // is a local context switch. Across CPUs each hand-off is a wake-up
  // whose cost the hypervisor sets; on a 4-vCPU shared host that made
  // throughput 38% lower and its run-to-run spread five times wider.
  // Counters are read once the workers have merged them.
  const int64_t Hits0 = cacheCounter("cache.hits"),
                Misses0 = cacheCounter("cache.misses");
  ClientLog Log;
  ServerStats SrvStats;
  double Start = 0.0;
  {
    PinToCurrentCpu Pin;
    Out.Diagnostics["pinned_cpu"] = Pin.cpu();
    Server Srv(serverOptions());
    Start = monotonicSeconds();
    const double Deadline = Start + O.Seconds;
    Log.Sent.assign(In.Pool.size() * VariantsPerEntry, 0);
    Log.BestMs.assign(In.Pool.size() * VariantsPerEntry, INFINITY);
    Rng R(mixSeed(O.Seed, 100));
    while (monotonicSeconds() < Deadline)
      exchange(Srv, In, ReplayRef(R), "client", Log);
    Log.EndSeconds = monotonicSeconds();
    SrvStats = Srv.stats();
  }
  const double End = Log.EndSeconds;

  // The deferred full checks.
  Out.Verdicts.merge(Log.Verdicts);
  for (const auto &[Key, Line] : Log.FirstReplies) {
    const Entry &E = In.Pool[size_t(Key.first)];
    if (std::optional<std::string> Err =
            checkReply(Line, E.Variants[size_t(Key.second)], M, E.Obj, E.E))
      Out.Verdicts.fail(E.Id + " (replay schedule): " + *Err);
  }
  if (SrvStats.Shed + SrvStats.Errors + SrvStats.Cancelled > 0)
    Out.Verdicts.fail("server shed " + std::to_string(SrvStats.Shed) +
                      ", errors " + std::to_string(SrvStats.Errors) +
                      ", cancelled " + std::to_string(SrvStats.Cancelled));

  // Every frame of one (entry, relabeling) pair is the same request,
  // and other tenants of a shared host only ever slow a request down, so
  // each frame counts with the fastest round trip of its pair: the
  // latencies are percentiles over the frames of those times, and the
  // throughput is frames over their sum, as on the sweeps. Whole-run
  // values are in the diagnostics.
  const int64_t Frames = Log.Ms.count();
  Out.Diagnostics["run.verdicts_per_s"] = double(Frames) / (End - Start);
  Out.Diagnostics["run.latency_ms_p50"] = Log.Ms.percentile(50);
  Out.Diagnostics["run.latency_ms_p90"] = Log.Ms.percentile(90);
  Out.Diagnostics["run.latency_ms_p99"] = Log.Ms.percentile(99);
  std::vector<std::pair<double, int64_t>> Best;
  double BestSumMs = 0.0;
  int64_t FewestSends = 0;
  for (size_t Kind = 0; Kind < Log.Sent.size(); ++Kind)
    if (Log.Sent[Kind] > 0) {
      Best.emplace_back(Log.BestMs[Kind], Log.Sent[Kind]);
      BestSumMs += Log.BestMs[Kind] * double(Log.Sent[Kind]);
      FewestSends = Best.size() == 1 ? Log.Sent[Kind]
                                     : std::min(FewestSends, Log.Sent[Kind]);
    }
  Out.Metrics["verdicts_per_s"] = double(Frames) / (BestSumMs / 1e3);
  Out.Metrics["latency_ms_p50"] = weightedPercentile(Best, 50);
  Out.Metrics["latency_ms_p90"] = weightedPercentile(Best, 90);
  Out.Diagnostics["request_kinds"] = double(Best.size());
  Out.Diagnostics["request_sends_min"] = double(FewestSends);
  Out.Diagnostics["latency_samples"] = double(Frames);
  Out.Diagnostics["timed_wall_s"] = End - Start;
  Out.Metrics["decided_frac"] = double(Log.Decided) / double(Frames);
  Out.Counts["pool_entries"] = int64_t(In.Pool.size());
  Out.Counts["pool_replayable"] = int64_t(In.Hot.size());

  if (!O.Trace)
    return Out;

  // Fidelity: a traced replay must serve the service's verdict.
  int64_t Unfaithful = 0;
  for (const auto &[Ref, F] : Traced) {
    const Entry &E = In.Pool[size_t(Ref.Index)];
    const char *Why = nullptr;
    if (!F.Hit)
      Why = "replay missed the cache";
    else if (!F.Clean || std::to_string(F.II) != E.Ii ||
             std::abs(F.Objective - std::strtod(E.Secondary.c_str(),
                                                nullptr)) > 1e-6)
      Why = "replayed verdict differs from the service's";
    if (Why) {
      ++Unfaithful;
      std::fprintf(stderr, "e2e: trace unfaithful on frame %d/%d: %s\n",
                   Ref.Index, Ref.Variant, Why);
    }
  }

  addLayerMetrics(T, LadderTotals(), ExtraVerifyUs, ExtraVerifyCalls,
                  Out.Metrics, Out.Diagnostics);
  addObjectiveMetrics(Log.Objectives, Out.Metrics);
  const int64_t Hits = cacheCounter("cache.hits") - Hits0;
  const int64_t Misses = cacheCounter("cache.misses") - Misses0;
  Out.Metrics["server.overhead_share"] =
      Log.LatencySumMs > 0 ? Log.OverheadSumMs / Log.LatencySumMs : 0.0;
  Out.Metrics["problem.hash_exact_frac"] =
      Traced.empty() ? 0.0 : double(ExactCount) / double(Traced.size());
  Out.Metrics["cache.hit_frac"] =
      Hits + Misses > 0 ? double(Hits) / double(Hits + Misses) : 0.0;
  Out.Metrics["trace.unfaithful_records"] = double(Unfaithful);
  Out.Metrics["trace.overhead_frac"] =
      UntracedUs > 0 ? T.rootTimeUs() / UntracedUs - 1.0 : 0.0;
  T.writeChromeTrace(O.ResultsDir + "/trace-" + O.Workload + ".json",
                     O.Workload);
  return Out;
}

ExpectedInputs serviceInputs(uint64_t SuiteSeed) {
  const MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Pool = poolLoops(M, SuiteSeed, PoolMax);
  ExpectedInputs Out;
  for (size_t I = 0; I < Pool.size(); ++I) {
    const DependenceGraph &G = Pool[I];
    const Objective Obj = entryObjective(int(I));
    ExpectedInput &In = Out[recordId(G.name(), Obj)];
    In.G = G;
    In.Obj = Obj;
    In.E.Ops = G.numOperations();
  }
  return Out;
}

} // namespace e2e
