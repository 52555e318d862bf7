//===- support/Telemetry.cpp - Solver telemetry layer ---------------------===//

#include "support/Telemetry.h"

#include "support/Json.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace modsched;
using namespace modsched::telemetry;

//===----------------------------------------------------------------------===//
// Global state
//===----------------------------------------------------------------------===//

std::atomic<TraceSink *> telemetry::detail::ActiveSink{nullptr};
std::atomic<bool> telemetry::detail::StatsActive{false};
constinit thread_local bool telemetry::detail::ShardActive = false;

namespace {

/// Serializes sink installation and event emission: TraceSink
/// implementations are single-threaded by contract, so concurrent
/// solves funnel their (already rare — tracing only) events through
/// this lock. Function-local so static-init-order cannot bite counters
/// constructed in other translation units.
std::mutex &sinkMutex() {
  static std::mutex M;
  return M;
}

/// Small sequential id per emitting thread (1 = first emitter).
int currentThreadTid() {
  static std::atomic<int> NextTid{1};
  thread_local int Tid = 0;
  if (Tid == 0)
    Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

/// Owns the installed sink (detail::ActiveSink is the borrowed fast-path
/// pointer). File-scope so process exit flushes and closes the file.
/// Guarded by sinkMutex().
std::unique_ptr<TraceSink> OwnedSink;

/// Trace epoch: timestamps are microseconds since this point.
std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

/// Registries use function-local statics so counters constructed during
/// static initialization of other translation units register safely.
std::vector<Counter *> &counterRegistry() {
  static std::vector<Counter *> Registry;
  return Registry;
}

std::vector<PhaseTimer *> &timerRegistry() {
  static std::vector<PhaseTimer *> Registry;
  return Registry;
}

} // namespace

double telemetry::detail::nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - traceEpoch())
      .count();
}

void telemetry::installSink(std::unique_ptr<TraceSink> Sink) {
  std::lock_guard<std::mutex> Lock(sinkMutex());
  if (OwnedSink)
    OwnedSink->flush();
  OwnedSink = std::move(Sink);
  detail::ActiveSink.store(OwnedSink.get(), std::memory_order_release);
}

void telemetry::uninstallSink() { installSink(nullptr); }

void telemetry::setStatsEnabled(bool Enabled) {
  detail::StatsActive.store(Enabled, std::memory_order_relaxed);
}

void telemetry::detail::emitSlow(EventPhase Phase, const char *Cat,
                                 const char *Name, double Value,
                                 const Arg *Args, size_t NumArgs) {
  // Resolve the tid outside the lock (touches only thread-local state).
  int Tid = currentThreadTid();
  std::lock_guard<std::mutex> Lock(sinkMutex());
  TraceSink *Sink = ActiveSink.load(std::memory_order_acquire);
  if (!Sink)
    return; // Uninstalled between the fast-path test and the lock.
  TraceEvent E;
  E.Phase = Phase;
  E.Category = Cat;
  E.Name = Name;
  E.TimestampUs = nowUs();
  E.Value = Value;
  E.Args = Args;
  E.NumArgs = NumArgs;
  E.Tid = Tid;
  Sink->event(E);
}

//===----------------------------------------------------------------------===//
// Counters / timers
//===----------------------------------------------------------------------===//

telemetry::Counter::Counter(const char *Category, const char *Name,
                            const char *Description)
    : Cat(Category), Nm(Name), Desc(Description) {
  Index = static_cast<uint32_t>(counterRegistry().size());
  counterRegistry().push_back(this);
}

telemetry::PhaseTimer::PhaseTimer(const char *Category, const char *Name,
                                  const char *Description)
    : Cat(Category), Nm(Name), Desc(Description) {
  Index = static_cast<uint32_t>(timerRegistry().size());
  timerRegistry().push_back(this);
}

void telemetry::PhaseTimer::mergeShardDelta(double SampleSeconds,
                                            uint64_t NumInvocations) {
  // CAS add: std::atomic<double>::fetch_add is C++20 but spelled as a
  // loop here so every toolchain in CI lowers it identically.
  double Cur = MergedSeconds.load(std::memory_order_relaxed);
  while (!MergedSeconds.compare_exchange_weak(Cur, Cur + SampleSeconds,
                                              std::memory_order_relaxed))
    ;
  MergedInvocations.fetch_add(NumInvocations, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Thread shards
//===----------------------------------------------------------------------===//

namespace {

/// Per-thread stats accumulator: one slot per registered counter/timer,
/// indexed by registration index. Touched only by its owning thread;
/// merged into the registry's atomic cells on scope exit / flush.
struct StatsShard {
  std::vector<int64_t> Counters;
  struct TimerDelta {
    double Seconds = 0.0;
    uint64_t Invocations = 0;
  };
  std::vector<TimerDelta> Timers;

  void mergeAndClear() {
    const std::vector<Counter *> &Cs = allCounters();
    for (size_t I = 0; I < Counters.size(); ++I)
      if (Counters[I] != 0) {
        Cs[I]->mergeShardDelta(Counters[I]);
        Counters[I] = 0;
      }
    const std::vector<PhaseTimer *> &Ts = allPhaseTimers();
    for (size_t I = 0; I < Timers.size(); ++I)
      if (Timers[I].Invocations != 0) {
        Ts[I]->mergeShardDelta(Timers[I].Seconds, Timers[I].Invocations);
        Timers[I] = {};
      }
  }
};

/// The calling thread's shard storage (valid iff detail::ShardActive).
thread_local StatsShard *TlsShard = nullptr;

} // namespace

void telemetry::detail::shardAddCounter(uint32_t Index, int64_t N) {
  StatsShard *S = TlsShard;
  if (S->Counters.size() <= Index)
    S->Counters.resize(Index + 1, 0);
  S->Counters[Index] += N;
}

void telemetry::detail::shardAddTimer(uint32_t Index, double Seconds) {
  StatsShard *S = TlsShard;
  if (S->Timers.size() <= Index)
    S->Timers.resize(Index + 1);
  S->Timers[Index].Seconds += Seconds;
  ++S->Timers[Index].Invocations;
}

telemetry::ThreadShardScope::ThreadShardScope()
    : Installed(!detail::ShardActive) {
  if (Installed) {
    TlsShard = new StatsShard;
    detail::ShardActive = true;
  }
}

telemetry::ThreadShardScope::~ThreadShardScope() {
  if (!Installed)
    return;
  TlsShard->mergeAndClear();
  delete TlsShard;
  TlsShard = nullptr;
  detail::ShardActive = false;
}

void telemetry::flushThreadShard() {
  if (detail::ShardActive)
    TlsShard->mergeAndClear();
}

const std::vector<Counter *> &telemetry::allCounters() {
  return counterRegistry();
}

const std::vector<PhaseTimer *> &telemetry::allPhaseTimers() {
  return timerRegistry();
}

Counter *telemetry::findCounter(const std::string &CategorySlashName) {
  for (Counter *C : counterRegistry())
    if (CategorySlashName ==
        std::string(C->category()) + "/" + C->name())
      return C;
  return nullptr;
}

PhaseTimer *telemetry::findPhaseTimer(const std::string &CategorySlashName) {
  for (PhaseTimer *T : timerRegistry())
    if (CategorySlashName ==
        std::string(T->category()) + "/" + T->name())
      return T;
  return nullptr;
}

void telemetry::reportStats(std::FILE *Out) {
  std::fprintf(Out, "=== modsched telemetry ===\n");
  for (const Counter *C : counterRegistry()) {
    if (C->value() == 0)
      continue;
    std::fprintf(Out, "%12lld  %s/%-32s %s\n",
                 static_cast<long long>(C->value()), C->category(),
                 C->name(), C->description());
  }
  for (const PhaseTimer *T : timerRegistry()) {
    if (T->invocations() == 0)
      continue;
    std::fprintf(Out, "%11.3fs  %s/%-32s %s (%llu calls)\n", T->seconds(),
                 T->category(), T->name(), T->description(),
                 static_cast<unsigned long long>(T->invocations()));
  }
}

void telemetry::resetAllStats() {
  for (Counter *C : counterRegistry())
    C->reset();
  for (PhaseTimer *T : timerRegistry())
    T->reset();
}

//===----------------------------------------------------------------------===//
// JSON file sink
//===----------------------------------------------------------------------===//

namespace {
constexpr size_t FlushThresholdBytes = 1 << 16;
} // namespace

std::unique_ptr<JsonTraceSink>
JsonTraceSink::open(const std::string &Path, TraceFormat Format) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    std::fprintf(stderr,
                 "modsched: warning: cannot open trace file '%s'; "
                 "tracing disabled\n",
                 Path.c_str());
    return nullptr;
  }
  return std::unique_ptr<JsonTraceSink>(new JsonTraceSink(File, Format));
}

JsonTraceSink::JsonTraceSink(std::FILE *File, TraceFormat Format)
    : File(File), Format(Format) {
  Buffer.reserve(FlushThresholdBytes + 1024);
  if (Format == TraceFormat::ChromeJson)
    Buffer += "[\n";
}

JsonTraceSink::~JsonTraceSink() {
  if (Format == TraceFormat::ChromeJson)
    Buffer += "\n]\n";
  flush();
  std::fclose(File);
}

void JsonTraceSink::event(const TraceEvent &E) {
  if (Format == TraceFormat::ChromeJson && WroteAnyEvent)
    Buffer += ",\n";
  WroteAnyEvent = true;

  json::JsonWriter W(Buffer);
  W.beginObject();
  char Phase[2] = {static_cast<char>(E.Phase), '\0'};
  W.key("ph").value(Phase);
  W.key("cat").value(E.Category);
  W.key("name").value(E.Name);
  W.key("ts").value(E.TimestampUs);
  W.key("pid").value(1);
  W.key("tid").value(E.Tid);
  if (E.Phase == EventPhase::Instant)
    W.key("s").value("t"); // Instant scope: thread.
  if (E.Phase == EventPhase::Counter) {
    W.key("args").beginObject();
    W.key("value").value(E.Value);
    W.endObject();
  } else if (E.NumArgs > 0) {
    W.key("args").beginObject();
    for (size_t I = 0; I < E.NumArgs; ++I) {
      const Arg &A = E.Args[I];
      W.key(A.Key);
      switch (A.K) {
      case Arg::Kind::Int:
        W.value(A.Int);
        break;
      case Arg::Kind::Float:
        W.value(A.Float);
        break;
      case Arg::Kind::CStr:
        W.value(A.CStr ? A.CStr : "");
        break;
      }
    }
    W.endObject();
  }
  W.endObject();
  if (Format == TraceFormat::Jsonl)
    Buffer += '\n';

  if (Buffer.size() >= FlushThresholdBytes)
    flush();
}

void JsonTraceSink::flush() {
  if (!Buffer.empty()) {
    std::fwrite(Buffer.data(), 1, Buffer.size(), File);
    Buffer.clear();
  }
  std::fflush(File);
}

//===----------------------------------------------------------------------===//
// Environment hook
//===----------------------------------------------------------------------===//

namespace {

void reportStatsAtExit() { reportStats(stderr); }

/// atexit-ordering safety: uninstall the sink before static destructors
/// of OTHER translation units could run (OwnedSink's own destructor also
/// closes the file if the handler never ran, e.g. on std::abort paths
/// where atexit handlers are skipped entirely).
void closeTraceAtExit() { uninstallSink(); }

bool envFlagSet(const char *Name) {
  const char *V = std::getenv(Name);
  return V && V[0] != '\0' && std::strcmp(V, "0") != 0;
}

} // namespace

void telemetry::initFromEnvironment() {
  static bool StatsHookRegistered = false;
  if (envFlagSet("MODSCHED_STATS")) {
    setStatsEnabled(true);
    if (!StatsHookRegistered) {
      std::atexit(reportStatsAtExit);
      StatsHookRegistered = true;
    }
  }

  static bool TraceHookRegistered = false;
  if (const char *Path = std::getenv("MODSCHED_TRACE")) {
    if (Path[0] != '\0' && !tracingEnabled()) {
      std::string P(Path);
      TraceFormat Format = TraceFormat::ChromeJson;
      if (P.size() >= 6 && P.compare(P.size() - 6, 6, ".jsonl") == 0)
        Format = TraceFormat::Jsonl;
      if (auto Sink = JsonTraceSink::open(P, Format)) {
        installSink(std::move(Sink));
        if (!TraceHookRegistered) {
          std::atexit(closeTraceAtExit);
          TraceHookRegistered = true;
        }
      }
    }
  }
}

namespace {

/// Static initializer: every binary linking modsched_support honors
/// MODSCHED_TRACE / MODSCHED_STATS with no code changes.
struct EnvInitializer {
  EnvInitializer() { initFromEnvironment(); }
};
EnvInitializer InitTelemetryFromEnv;

} // namespace
