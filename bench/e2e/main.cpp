//===- bench/e2e/main.cpp - End-to-end benchmark driver -------------------===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
// Runs one workload of the end-to-end benchmark and reports it:
//
//   e2e_bench --workload W [--seed N] [--suite-seed S] [--seconds X]
//             [--trace 0|1] [--results-dir D]
//
// prints one "METRIC <workload> <name> <value> <unit>" line per metric
// (the end-to-end table untraced, the per-layer table traced), writes
// <results-dir>/<workload>[-traced].json and appends the same record to
// <results-dir>/runs.jsonl, and ends stdout with one JSON line
// {"correct", "attempted", "failed", "metrics"}. It exits 1 when any
// verdict is wrong.
//
// Maintenance modes (on the same workload and suite; they cover the
// sweep loops and pool entries the expected files pin, whatever
// --seconds says):
//
//   --write-expected   solve every record, pin entries with <= 6 ops by
//                      exhaustive search, write the expected file
//   --check-expected   re-run the exhaustive search on every entry the
//                      expected file pins as "brute" (--check-limit K:
//                      only the first K)
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "BruteForce.h"
#include "ServiceLoad.h"
#include "Suite.h"
#include "Sweep.h"

#include "ilpsched/OptimalScheduler.h"
#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

using namespace modsched;
using namespace e2e;

namespace {

const char *const Workloads[] = {"sweep-ilp", "sweep-pb", "service-replay"};

/// Entries with at most this many operations are pinned by exhaustive
/// search.
constexpr int BruteForceMaxOps = 6;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload sweep-ilp|sweep-pb|service-replay "
               "[--seed N] [--suite-seed N] [--seconds X] "
               "[--trace 0|1] [--results-dir D] "
               "[--write-expected | --check-expected [--check-limit K]]\n",
               Why);
  std::exit(2);
}

uint64_t parseU64(const char *Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End)
    usage("expected a non-negative integer");
  return V;
}

std::string formatValue(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

SchedulerBackend backendOf(const std::string &Workload) {
  return Workload == "sweep-pb" ? SchedulerBackend::Pb : SchedulerBackend::Ilp;
}

ExpectedInputs inputsOf(const RunOptions &O) {
  if (O.Workload.rfind("sweep-", 0) == 0)
    return sweepInputs(O.SuiteSeed);
  return serviceInputs(O.SuiteSeed);
}

/// --write-expected: solve, re-check, pin small entries by exhaustive
/// search, and cross-check decided verdicts against the other sweep.
int writeExpectedFile(const RunOptions &O) {
  const MachineModel M = MachineModel::cydraLike();
  ExpectedInputs In = inputsOf(O);
  const SchedulerBackend Backend = backendOf(O.Workload);
  ExpectedTable Other;
  if (O.Workload == "sweep-ilp" || O.Workload == "sweep-pb")
    Other = loadExpected(expectedPath(
        O.ExpectedDir, O.Workload == "sweep-ilp" ? "sweep-pb" : "sweep-ilp",
        O.SuiteSeed));
  int Failures = 0, Brute = 0, Decided = 0;
  ExpectedTable Table;
  for (auto &[Id, Entry] : In) {
    OptimalModuloScheduler S(M, solveOptions(Backend, Entry.Obj));
    ScheduleResult R = S.schedule(Entry.G);
    Expected &E = Entry.E;
    E.St = classify(R.Found, R.TimedOut, R.NodeLimitHit, R.Seconds);
    E.II = R.II;
    E.Value = R.SecondaryObjective;
    E.Pin = E.St == Status::Ok ? "regress" : "-";
    Verdict V{E.St, R.II, R.SecondaryObjective, R.Mii,
              R.Found ? &R.Schedule : nullptr};
    if (std::optional<std::string> Err =
            checkVerdict(Entry.G, M, Entry.Obj, V, nullptr)) {
      std::fprintf(stderr, "FAIL %s: %s\n", Id.c_str(), Err->c_str());
      ++Failures;
    }
    auto OtherIt = Other.find(Id);
    if (E.St == Status::Ok && OtherIt != Other.end() &&
        OtherIt->second.St == Status::Ok &&
        (OtherIt->second.II != E.II ||
         std::abs(OtherIt->second.Value - E.Value) > 1e-6)) {
      std::fprintf(stderr, "FAIL %s: backends disagree (%d/%g vs %d/%g)\n",
                   Id.c_str(), E.II, E.Value, OtherIt->second.II,
                   OtherIt->second.Value);
      ++Failures;
    }
    if (E.St == Status::Ok) {
      ++Decided;
      if (E.Ops <= BruteForceMaxOps) {
        BruteVerdict B = bruteForceCheck(Entry.G, M, Entry.Obj, E.II, E.Value);
        if (B.Match) {
          E.Pin = "brute";
          ++Brute;
        } else if (B.Conclusive) {
          std::fprintf(stderr, "FAIL %s: exhaustive search: %s\n", Id.c_str(),
                       B.Detail.c_str());
          ++Failures;
        } else {
          std::fprintf(stderr, "note %s: exhaustive search inconclusive: %s\n",
                       Id.c_str(), B.Detail.c_str());
        }
      }
    }
    Table[Id] = E;
  }
  const std::string Path = expectedPath(O.ExpectedDir, O.Workload, O.SuiteSeed);
  char Header[256];
  std::snprintf(Header, sizeof(Header),
                "%s on suite %llu: %zu records; pin brute = confirmed by "
                "exhaustive search, regress = regression pin",
                O.Workload.c_str(), static_cast<unsigned long long>(O.SuiteSeed),
                Table.size());
  if (!writeExpected(Path, Table, Header)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("%s: %zu records, %d decided, %d pinned by exhaustive search, "
              "%d failures\n",
              Path.c_str(), Table.size(), Decided, Brute, Failures);
  return Failures ? 1 : 0;
}

/// --check-expected: re-prove every brute-pinned entry.
int checkExpectedFile(const RunOptions &O, int64_t Limit) {
  const MachineModel M = MachineModel::cydraLike();
  const std::string Path = expectedPath(O.ExpectedDir, O.Workload, O.SuiteSeed);
  ExpectedTable Table = loadExpected(Path);
  ExpectedInputs In = inputsOf(O);
  int64_t Checked = 0, Failures = 0;
  for (const auto &[Id, E] : Table) {
    if (E.Pin != "brute" || Checked >= Limit)
      continue;
    auto It = In.find(Id);
    if (It == In.end()) {
      std::fprintf(stderr, "FAIL %s: not an input of this workload\n",
                   Id.c_str());
      ++Failures;
      continue;
    }
    ++Checked;
    BruteVerdict B = bruteForceCheck(It->second.G, M, It->second.Obj, E.II,
                                     E.Value);
    if (!B.Match) {
      std::fprintf(stderr, "FAIL %s: %s\n", Id.c_str(), B.Detail.c_str());
      ++Failures;
    }
  }
  std::printf("%s: %lld brute-pinned entries re-proved, %lld failures\n",
              Path.c_str(), static_cast<long long>(Checked),
              static_cast<long long>(Failures));
  return Failures ? 1 : 0;
}

/// Result record of one run (result file and runs.jsonl line).
std::string resultJson(const RunOptions &O, const RunResult &R, bool Correct,
                       const std::vector<MetricSpec> &Table) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("workload").value(O.Workload);
  W.key("seed").value(O.Seed);
  W.key("suite_seed").value(O.SuiteSeed);
  W.key("seconds").value(O.Seconds);
  W.key("trace").value(O.Trace);
  W.key("correct").value(Correct);
  W.key("attempted").value(R.Verdicts.Attempted);
  W.key("failed").value(R.Verdicts.Failed);
  W.key("metrics").beginObject();
  for (const MetricSpec &S : Table) {
    W.key(S.Name).beginObject();
    W.key("value").value(R.Metrics.at(S.Name));
    W.key("unit").value(S.Unit);
    W.endObject();
  }
  W.endObject();
  W.key("counts").beginObject();
  for (const auto &[Name, V] : R.Counts)
    W.key(Name).value(V);
  W.endObject();
  W.key("diagnostics").beginObject();
  for (const auto &[Name, V] : R.Diagnostics)
    W.key(Name).value(V);
  W.endObject();
  W.key("failures").beginArray();
  for (const std::string &Why : R.Verdicts.Reasons)
    W.value(Why);
  W.endArray();
  W.endObject();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool WriteExpected = false, CheckExpected = false;
  int64_t CheckLimit = INT64_MAX;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value after " + Arg).c_str());
      return Argv[++I];
    };
    if (Arg == "--workload")
      O.Workload = Next();
    else if (Arg == "--seed")
      O.Seed = parseU64(Next());
    else if (Arg == "--suite-seed")
      O.SuiteSeed = parseU64(Next());
    else if (Arg == "--seconds") {
      char *End = nullptr;
      const char *Text = Next();
      O.Seconds = std::strtod(Text, &End);
      if (!*Text || *End || !(O.Seconds > 0) || O.Seconds > 3600)
        usage("--seconds wants a positive number");
    } else if (Arg == "--trace") {
      const std::string V = Next();
      if (V != "0" && V != "1")
        usage("--trace wants 0 or 1");
      O.Trace = V == "1";
    } else if (Arg == "--results-dir")
      O.ResultsDir = Next();
    else if (Arg == "--write-expected")
      WriteExpected = true;
    else if (Arg == "--check-expected")
      CheckExpected = true;
    else if (Arg == "--check-limit")
      CheckLimit = int64_t(parseU64(Next()));
    else
      usage(("unknown argument " + Arg).c_str());
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known = Known || O.Workload == W;
  if (!Known)
    usage("unknown or missing --workload");

  if (WriteExpected)
    return writeExpectedFile(O);
  if (CheckExpected)
    return checkExpectedFile(O, CheckLimit);

  std::error_code Ec;
  std::filesystem::create_directories(O.ResultsDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "e2e_bench: cannot create %s\n", O.ResultsDir.c_str());
    return 2;
  }

  const CpuTicks Before = readCpuTicks();
  RunResult R;
  if (O.Workload == "sweep-ilp" || O.Workload == "sweep-pb")
    R = runSweep(O, backendOf(O.Workload));
  else
    R = runServiceReplay(O);
  R.Metrics["peak_rss_mb"] = peakRssMb();
  // How much of the host the hypervisor withheld during the run: a
  // clue when a run reads slow.
  const CpuTicks After = readCpuTicks();
  if (After.Total > Before.Total)
    R.Diagnostics["host.steal_frac"] = double(After.Steal - Before.Steal) /
                                       double(After.Total - Before.Total);

  const std::vector<MetricSpec> &Table =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricSpec &S : Table)
    if (!R.Metrics.count(S.Name)) {
      std::fprintf(stderr, "e2e_bench: internal error: %s did not set %s\n",
                   O.Workload.c_str(), S.Name);
      return 3;
    }
  const bool Correct = R.Verdicts.Failed == 0 && R.Verdicts.Attempted > 0;
  for (const std::string &Why : R.Verdicts.Reasons)
    std::fprintf(stderr, "e2e: FAIL %s\n", Why.c_str());

  const std::string Record = resultJson(O, R, Correct, Table);
  const std::string Base =
      O.ResultsDir + "/" + O.Workload + (O.Trace ? "-traced" : "");
  std::ofstream(Base + ".json") << Record << '\n';
  std::ofstream(O.ResultsDir + "/runs.jsonl", std::ios::app) << Record << '\n';

  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Verdicts.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Verdicts.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Table.size(); ++I) {
    const MetricSpec &S = Table[I];
    const std::string V = formatValue(R.Metrics.at(S.Name));
    std::printf("METRIC %s %s %s %s\n", O.Workload.c_str(), S.Name, V.c_str(),
                S.Unit);
    Line += std::string(I ? ", " : "") + "\"" + S.Name + "\": {\"value\": " +
            V + ", \"unit\": \"" + S.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 1;
}
