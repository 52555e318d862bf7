//===- bench/service_bench.cpp - Service QPS/latency benchmark ------------===//
//
// Closed-loop benchmark of the scheduling service (src/service,
// docs/SERVICE.md), replaying a zipf-skewed corpus of kernel-library
// loops end-to-end through the wire protocol — frame text in, JSON
// response out — against an in-process Server:
//
//   phase 1 (warm):     every distinct corpus loop once; fresh solves
//                       populate the cache and record the reference
//                       II / secondary objective per loop.
//   phase 2 (steady):   >= 1000 zipf-sampled requests, one closed loop;
//                       measures per-request latency (p50/p95/p99), QPS
//                       and the cache-served rate, and checks every
//                       cached reply matches the fresh-solve reference.
//                       Loops the warm pass censored (budget timeouts
//                       never enter the cache) are excluded from the
//                       sampling pool — each re-sample would re-burn a
//                       full budget measuring the censor, not replay —
//                       and the exclusion is printed, never silent.
//   phase 3 (overload): the whole corpus blasted down one stream into a
//                       tiny admission queue — exercises load shedding.
//   phase 4 (abuse):    the malformed-request corpus; the daemon must
//                       reply with structured errors and never abort.
//
// Emits BENCH_service.json (its "service" object: qps, latency
// percentiles, cache hit rate, shed count, status histogram) through
// bench/Harness, and exits nonzero when the steady-state cache rate
// falls below 90% or any cached verdict drifts from the fresh solve —
// this doubles as the CI gate for the service.
//
// Env: MODSCHED_SERVICE_BENCH_REQUESTS (default 1000, min 1),
//      MODSCHED_SERVICE_BENCH_SKEW (zipf exponent, default 1.1),
// plus the usual MODSCHED_BENCH_* budget knobs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/Server.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "workloads/KernelLibrary.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace modsched;
using namespace modsched::bench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  ++Failures;
  std::fprintf(stderr, "service_bench FAIL: %s\n", What.c_str());
}

/// Extracts a "key":<value> field from a one-line machine-written JSON
/// response (no whitespace, no nesting ambiguity for the keys used
/// here). Returns the raw value text up to the next ',' / '}'.
std::string field(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  std::size_t End = At;
  if (End < Line.size() && Line[End] == '"') {
    ++End;
    while (End < Line.size() && Line[End] != '"')
      ++End;
    return Line.substr(At + 1, End - At - 1);
  }
  while (End < Line.size() && Line[End] != ',' && Line[End] != '}')
    ++End;
  return Line.substr(At, End - At);
}

/// One SCHED frame for corpus entry \p Id with inline machine payload.
std::string makeFrame(const std::string &Id, const std::string &MachineText,
                      int MachineLines, const std::string &DdgText,
                      int DdgLines) {
  std::string F = "SCHED id=" + Id + " objective=minreg\n";
  F += "MACHINE " + std::to_string(MachineLines) + "\n" + MachineText;
  F += "DDG " + std::to_string(DdgLines) + "\n" + DdgText;
  F += "END\n";
  return F;
}

int countLines(const std::string &Text) {
  int N = 0;
  for (char C : Text)
    if (C == '\n')
      ++N;
  return N;
}

/// Zipf sampler over \p N ranks with exponent \p S: precomputed CDF,
/// one uniform draw per sample (xoshiro supplies the uniforms; no
/// std::random anywhere, matching the suite generator's determinism).
class ZipfSampler {
public:
  ZipfSampler(int N, double S) : Cdf(static_cast<std::size_t>(N)) {
    double Sum = 0;
    for (int I = 0; I < N; ++I)
      Sum += 1.0 / std::pow(double(I + 1), S);
    double Acc = 0;
    for (int I = 0; I < N; ++I) {
      Acc += 1.0 / std::pow(double(I + 1), S) / Sum;
      Cdf[static_cast<std::size_t>(I)] = Acc;
    }
    Cdf.back() = 1.0;
  }
  int sample(Rng &R) const {
    double U = R.nextDouble();
    for (std::size_t I = 0; I < Cdf.size(); ++I)
      if (U <= Cdf[I])
        return static_cast<int>(I);
    return static_cast<int>(Cdf.size()) - 1;
  }

private:
  std::vector<double> Cdf;
};

int64_t envRequests() {
  const char *Env = std::getenv("MODSCHED_SERVICE_BENCH_REQUESTS");
  if (!Env || !*Env)
    return 1000;
  long long V = std::atoll(Env);
  return V >= 1 ? V : 1000;
}

double envSkew() {
  const char *Env = std::getenv("MODSCHED_SERVICE_BENCH_SKEW");
  if (!Env || !*Env)
    return 1.1;
  double V = std::atof(Env);
  return V > 0 ? V : 1.1;
}

/// The malformed-request corpus of docs/SERVICE.md: every frame must
/// come back as a structured error (or be survivably ignored), never
/// an abort. Mirrors tests/ServiceTest.cpp so the bench exercises the
/// same surface under the benchmark's budgets.
const char *MalformedCorpus[] = {
    "FROB x\n",
    "SCHED\nEND\n",
    "SCHED id=dup id=dup2\nEND\n",
    "SCHED id=a objective=fastest\nEND\n",
    "SCHED id=b dep=quantum\nEND\n",
    "SCHED id=c time=-5\nEND\n",
    "SCHED id=d nodes=zero\nEND\n",
    "SCHED id=e machine=pdp11\nEND\n",
    "SCHED id=f machine=example3\nDDG nope\nEND\n",
    "SCHED id=g machine=example3\nDDG 3\nloop l\nEND\n",
    "SCHED id=h machine=example3\nMACHINE 1\nmachine m\nDDG 0\nEND\n",
    "SCHED id=i machine=example3\nDDG 1\nthis is not a ddg\nEND\n",
    "SCHED id=j\nEND\n",
    "SCHED id=k machine=example3\nDDG 2\nloop l\nop a add\nEN",
};

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnv();
  Config.Cache = true;

  service::ServerOptions SOpts;
  SOpts.Workers = 1;
  SOpts.QueueLimit = 4; // Tiny on purpose: phase 3 must shed.
  SOpts.ClientInFlightLimit = 4;
  SOpts.DefaultTimeLimitSeconds = Config.TimeLimitSeconds;
  SOpts.MaxTimeLimitSeconds = Config.TimeLimitSeconds * 4;
  SOpts.Cache = true;
  SOpts.Backend = Config.Backend;
  SOpts.EmitSchedules = false; // Latency of verdicts, not echo bytes.
  service::Server Server(SOpts);

  // Corpus: the whole kernel library against the Cydra-like machine,
  // framed once; zipf rank == library order.
  MachineModel M = MachineModel::cydraLike();
  std::string MachineText = printMachine(M);
  int MachineLines = countLines(MachineText);
  std::vector<DependenceGraph> Corpus = allKernels(M);
  std::vector<std::string> Frames;
  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    std::string Ddg = printDdg(Corpus[I], M);
    Frames.push_back(makeFrame("k" + std::to_string(I), MachineText,
                               MachineLines, Ddg, countLines(Ddg)));
  }

  const int64_t Requests = envRequests();
  const double Skew = envSkew();
  std::printf("service bench: %zu corpus loops, %lld steady-state "
              "requests, zipf %.2f, %d workers, backend=%s\n",
              Corpus.size(), static_cast<long long>(Requests), Skew,
              SOpts.Workers, toString(SOpts.Backend));

  ServiceSummary Summary;
  auto Reply = [&](const std::string &Frame) {
    std::istringstream In(Frame);
    std::ostringstream Out;
    Server.serveStream(In, Out, "bench");
    std::string Line = Out.str();
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    return Line;
  };
  auto Count = [&](const std::string &Line) {
    std::string Status = field(Line, "status");
    if (Status.empty())
      Status = "error";
    ++Summary.Statuses[Status];
    if (Status == "retry_after")
      ++Summary.Shed;
    if (Status == "error")
      ++Summary.Errors;
  };

  // --- Phase 1: warm the cache, record the fresh-solve reference.
  struct Reference {
    std::string Ii, Secondary;
    bool Solved = false;
  };
  std::vector<Reference> Ref(Frames.size());
  for (std::size_t I = 0; I < Frames.size(); ++I) {
    std::string Line = Reply(Frames[I]);
    ++Summary.Requests;
    Count(Line);
    Ref[I].Solved = field(Line, "status") == "ok";
    Ref[I].Ii = field(Line, "ii");
    Ref[I].Secondary = field(Line, "secondary");
    check(field(Line, "cache_hit") != "true",
          "warm pass served from cache: " + Line);
  }

  // --- Phase 2: steady-state zipf replay, closed loop. Only loops the
  // warm pass actually solved are in the pool: a censored loop is not
  // cached, so every re-sample would repeat the full budget timeout and
  // the phase would measure the censor instead of the replay.
  std::vector<int> Pool;
  for (std::size_t I = 0; I < Frames.size(); ++I)
    if (Ref[I].Solved)
      Pool.push_back(static_cast<int>(I));
  check(!Pool.empty(), "warm pass solved no corpus loop at all");
  if (Pool.size() < Frames.size())
    std::printf("steady pool: %zu/%zu loops (%zu censored in the warm "
                "pass excluded)\n",
                Pool.size(), Frames.size(), Frames.size() - Pool.size());
  if (Pool.empty())
    return 1;
  Rng R(Config.Seed);
  ZipfSampler Zipf(static_cast<int>(Pool.size()), Skew);
  SummaryStats LatencyMs;
  int64_t SteadyOk = 0, SteadyHits = 0, Mismatches = 0;
  Stopwatch Steady;
  for (int64_t N = 0; N < Requests; ++N) {
    int I = Pool[static_cast<std::size_t>(Zipf.sample(R))];
    Stopwatch One;
    std::string Line = Reply(Frames[static_cast<std::size_t>(I)]);
    LatencyMs.add(One.seconds() * 1e3);
    ++Summary.Requests;
    Count(Line);
    if (field(Line, "status") != "ok")
      continue;
    ++SteadyOk;
    if (field(Line, "cache_hit") == "true")
      ++SteadyHits;
    if (Ref[static_cast<std::size_t>(I)].Solved &&
        (field(Line, "ii") != Ref[static_cast<std::size_t>(I)].Ii ||
         field(Line, "secondary") !=
             Ref[static_cast<std::size_t>(I)].Secondary))
      ++Mismatches;
  }
  const double SteadySeconds = Steady.seconds();

  // --- Phase 3: overload one stream; the bounded queue must shed.
  {
    std::string Blast;
    for (int Round = 0; Round < 4; ++Round)
      for (std::size_t I = 0; I < Frames.size(); ++I)
        Blast += Frames[I];
    std::istringstream In(Blast);
    std::ostringstream Out;
    Server.serveStream(In, Out, "blast");
    std::istringstream Lines(Out.str());
    std::string Line;
    while (std::getline(Lines, Line))
      if (!Line.empty()) {
        ++Summary.Requests;
        Count(Line);
      }
  }

  // --- Phase 4: the malformed corpus; structured errors, no aborts.
  for (const char *Bad : MalformedCorpus) {
    std::string Line = Reply(Bad);
    ++Summary.Requests;
    if (!Line.empty())
      Count(Line);
  }

  // --- Summary, gates, artifact.
  Summary.CacheHits = SteadyHits;
  Summary.Qps = SteadySeconds > 0 ? double(Requests) / SteadySeconds : 0;
  Summary.P50Ms = LatencyMs.percentile(50);
  Summary.P95Ms = LatencyMs.percentile(95);
  Summary.P99Ms = LatencyMs.percentile(99);
  Summary.CacheHitRate = SteadyOk > 0 ? double(SteadyHits) / double(SteadyOk)
                                      : 0.0;

  std::printf("steady state: %lld requests in %.2fs (%.0f QPS), "
              "p50=%.3fms p95=%.3fms p99=%.3fms\n",
              static_cast<long long>(Requests), SteadySeconds, Summary.Qps,
              Summary.P50Ms, Summary.P95Ms, Summary.P99Ms);
  std::printf("cache: %lld/%lld ok replies served from cache (%.1f%%), "
              "%lld verdict mismatches; shed=%lld errors=%lld\n",
              static_cast<long long>(SteadyHits),
              static_cast<long long>(SteadyOk),
              100.0 * Summary.CacheHitRate,
              static_cast<long long>(Mismatches),
              static_cast<long long>(Summary.Shed),
              static_cast<long long>(Summary.Errors));

  check(Summary.CacheHitRate >= 0.9,
        "steady-state cache-served rate below 90%");
  check(Mismatches == 0, "cached II/objective drifted from fresh solves");
  check(Summary.Shed > 0, "overload phase shed nothing (admission "
                          "control not exercised)");
  check(Summary.Errors >= 10, "malformed corpus produced too few "
                              "structured errors");

  BenchJson Json("service");
  Json.setConfig(Config);
  Json.setServiceSummary(Summary);
  Json.addMetric("steady_cache_hit_rate", Summary.CacheHitRate);
  Json.addMetric("steady_qps", Summary.Qps);
  Json.addMetric("verdict_mismatches", double(Mismatches));
  Json.write();

  // Graceful drain: ~Server stops admission and waits for in-flight
  // solves; reaching the return statement without an assert IS the
  // drain test (assertions stay on in every build type).
  if (Failures == 0)
    std::printf("service bench: all gates passed\n");
  return Failures == 0 ? 0 : 1;
}
