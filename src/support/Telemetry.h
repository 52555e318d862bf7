//===- support/Telemetry.h - Solver telemetry layer -------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-cutting observability for the solver stack: named counters,
/// phase timers, and a structured trace-event sink. The paper's entire
/// argument is quantitative (branch-and-bound nodes, simplex iterations,
/// wall-clock time); this layer makes those quantities — and many more —
/// visible per instance instead of only as end-of-run aggregates.
///
/// Design constraints (see docs/OBSERVABILITY.md):
///  * Pay-for-use. With no sink installed and stats disabled, every
///    recording call is an inlined pointer/flag test; counters are a
///    thread-local-flag test plus a non-atomic add; timers never read
///    the clock.
///  * No allocation on the disabled path. TraceEvent argument lists are
///    passed as pointers into the caller's stack frame and only
///    serialized when a sink is installed.
///  * Environment-driven. MODSCHED_TRACE=<file> installs a file sink at
///    startup (Chrome trace_event JSON for .json, JSONL otherwise);
///    MODSCHED_STATS=1 prints every registered counter and phase timer
///    to stderr at process exit. No code changes needed in binaries.
///
/// Thread model (the reentrant solve pipeline; see DESIGN.md):
///  * The thread that owns a counter's direct field — by convention the
///    main thread — increments it with a plain add. Every other thread
///    must record under a ThreadShardScope: increments then accumulate
///    into a thread-local shard (still plain adds) that is merged into
///    the counter's atomic merge cell on scope exit or
///    flushThreadShard(). support/ThreadPool.h installs a shard scope in
///    every worker automatically.
///  * Trace emission is serialized behind an internal mutex; the
///    enabled/disabled fast path is a single atomic pointer load.
///    Events carry a small per-thread tid so multi-threaded traces get
///    one track per thread in Perfetto.
///  * reset()/resetAllStats() are not synchronized against concurrent
///    recording — call them only while the solver stack is quiescent.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SUPPORT_TELEMETRY_H
#define MODSCHED_SUPPORT_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace modsched {
namespace telemetry {

//===----------------------------------------------------------------------===//
// Trace events
//===----------------------------------------------------------------------===//

/// Chrome trace_event phase letters (the subset we emit).
enum class EventPhase : char {
  Begin = 'B',   ///< Duration span open (nests on one track).
  End = 'E',     ///< Duration span close.
  Instant = 'i', ///< Point event.
  Counter = 'C', ///< Sampled counter track.
};

/// One key/value argument attached to a trace event. Keys and C-string
/// values must outlive the emit call (use static strings); numeric
/// construction never allocates, so building an argument list on the
/// disabled path is free.
struct Arg {
  enum class Kind : uint8_t { Int, Float, CStr };

  constexpr Arg(const char *Key, int64_t V)
      : Key(Key), K(Kind::Int), Int(V) {}
  constexpr Arg(const char *Key, int V) : Arg(Key, int64_t(V)) {}
  constexpr Arg(const char *Key, double V)
      : Key(Key), K(Kind::Float), Float(V) {}
  constexpr Arg(const char *Key, const char *V)
      : Key(Key), K(Kind::CStr), CStr(V) {}

  const char *Key;
  Kind K;
  int64_t Int = 0;
  double Float = 0.0;
  const char *CStr = nullptr;
};

/// A structured trace event handed to the sink. Name/Category must be
/// string literals (or otherwise outlive the sink call); Args points
/// into the emitting frame and is only valid during TraceSink::event().
struct TraceEvent {
  EventPhase Phase;
  const char *Category;
  const char *Name;
  /// Microseconds since the process trace epoch.
  double TimestampUs;
  /// Value for Counter events.
  double Value = 0.0;
  const Arg *Args = nullptr;
  size_t NumArgs = 0;
  /// Small sequential id of the emitting thread (1 = first thread to
  /// emit); becomes the trace_event "tid" so concurrent solves render
  /// as separate tracks.
  int Tid = 1;
};

/// Consumer of trace events. Implementations must not re-enter the
/// telemetry emit API from event().
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent &E) = 0;
  virtual void flush() {}
};

namespace detail {
/// Installed sink, or nullptr when tracing is off. Read (lock-free) on
/// every emit fast path; written by installSink()/uninstallSink() under
/// the sink mutex.
extern std::atomic<TraceSink *> ActiveSink;
/// True when MODSCHED_STATS (or a test) enabled stats collection.
extern std::atomic<bool> StatsActive;
/// Microseconds since the trace epoch (process start).
double nowUs();
/// True when the calling thread records stats into a thread-local shard
/// (set by ThreadShardScope). Tested on every counter/timer fast path.
/// constinit tells every including translation unit that the flag has
/// no dynamic initializer, so reads go straight to the TLS slot instead
/// of through a TLS wrapper call, whose result UBSan's null check
/// misreports as "load of null pointer of type bool".
extern constinit thread_local bool ShardActive;
/// Accumulate into the calling thread's shard (ShardActive threads
/// only). \p Index is the registration index of the counter/timer.
void shardAddCounter(uint32_t Index, int64_t N);
void shardAddTimer(uint32_t Index, double Seconds);
} // namespace detail

/// True when a trace sink is installed (the single-pointer fast path).
inline bool tracingEnabled() {
  return detail::ActiveSink.load(std::memory_order_acquire) != nullptr;
}

/// True when end-of-run statistics collection is on.
inline bool statsEnabled() {
  return detail::StatsActive.load(std::memory_order_relaxed);
}

/// True when either consumer is active (timers read the clock only then).
inline bool enabled() { return tracingEnabled() || statsEnabled(); }

/// Installs \p Sink as the process-wide trace sink (taking ownership and
/// replacing any previous sink). Passing nullptr uninstalls.
void installSink(std::unique_ptr<TraceSink> Sink);

/// Flushes and destroys the installed sink, disabling tracing.
void uninstallSink();

/// Enables/disables stats collection programmatically (tests; the env
/// hook sets this from MODSCHED_STATS).
void setStatsEnabled(bool Enabled);

//===----------------------------------------------------------------------===//
// Emission helpers (no-ops without a sink)
//===----------------------------------------------------------------------===//

namespace detail {
/// Out-of-line slow paths; called only when a sink is installed.
void emitSlow(EventPhase Phase, const char *Cat, const char *Name,
              double Value, const Arg *Args, size_t NumArgs);
} // namespace detail

/// Emits a point event.
inline void instant(const char *Cat, const char *Name,
                    std::initializer_list<Arg> Args = {}) {
  if (tracingEnabled())
    detail::emitSlow(EventPhase::Instant, Cat, Name, 0.0, Args.begin(),
                     Args.size());
}

/// Emits a sampled counter value (its own track in the trace viewer),
/// e.g. the branch-and-bound open-list size or search depth gauges.
inline void gauge(const char *Cat, const char *Name, double Value) {
  if (tracingEnabled())
    detail::emitSlow(EventPhase::Counter, Cat, Name, Value, nullptr, 0);
}

/// Opens a duration span; prefer SpanScope.
inline void spanBegin(const char *Cat, const char *Name,
                      std::initializer_list<Arg> Args = {}) {
  if (tracingEnabled())
    detail::emitSlow(EventPhase::Begin, Cat, Name, 0.0, Args.begin(),
                     Args.size());
}

/// Closes the innermost open span with this name.
inline void spanEnd(const char *Cat, const char *Name,
                    std::initializer_list<Arg> Args = {}) {
  if (tracingEnabled())
    detail::emitSlow(EventPhase::End, Cat, Name, 0.0, Args.begin(),
                     Args.size());
}

/// RAII duration span. Captures whether tracing was on at construction
/// so an install/uninstall mid-scope cannot unbalance Begin/End.
class SpanScope {
public:
  SpanScope(const char *Cat, const char *Name,
            std::initializer_list<Arg> Args = {})
      : Cat(Cat), Name(Name), Active(tracingEnabled()) {
    if (Active)
      detail::emitSlow(EventPhase::Begin, Cat, Name, 0.0, Args.begin(),
                       Args.size());
  }
  ~SpanScope() {
    if (Active)
      detail::emitSlow(EventPhase::End, Cat, Name, 0.0, nullptr, 0);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  const char *Cat;
  const char *Name;
  bool Active;
};

//===----------------------------------------------------------------------===//
// Named counters and phase timers
//===----------------------------------------------------------------------===//

/// A process-lifetime named counter, self-registered at construction.
/// Define at namespace scope next to the code it measures:
/// \code
///   static telemetry::Counter SimplexPivots("lp", "simplex.iterations",
///                                           "total simplex pivots");
///   ...
///   SimplexPivots += Iters;
/// \endcode
/// Incrementing is a plain add on the owning thread and a plain add into
/// a thread-local shard on ThreadShardScope threads (see the thread
/// model in the file header); the registry is only walked by
/// reportStats(). Threads other than the main thread must record under
/// a ThreadShardScope.
class Counter {
public:
  Counter(const char *Category, const char *Name, const char *Description);

  void add(int64_t N) {
    if (detail::ShardActive)
      detail::shardAddCounter(Index, N);
    else
      Val += N;
  }
  Counter &operator+=(int64_t N) {
    add(N);
    return *this;
  }
  Counter &operator++() {
    add(1);
    return *this;
  }
  /// Owner-thread value plus everything merged from thread shards.
  /// Increments still sitting in a live shard are not visible until
  /// that shard merges (thread exit or flushThreadShard()).
  int64_t value() const {
    return Val + Merged.load(std::memory_order_relaxed);
  }
  /// Not synchronized; call while recording threads are quiescent.
  void reset() {
    Val = 0;
    Merged.store(0, std::memory_order_relaxed);
  }

  /// Internal: folds a thread shard's delta into the merge cell. Safe
  /// from any thread, concurrently with owner-thread add().
  void mergeShardDelta(int64_t N) {
    Merged.fetch_add(N, std::memory_order_relaxed);
  }

  /// Registration index (position in allCounters()); shard slot key.
  uint32_t index() const { return Index; }

  const char *category() const { return Cat; }
  const char *name() const { return Nm; }
  const char *description() const { return Desc; }

private:
  const char *Cat;
  const char *Nm;
  const char *Desc;
  uint32_t Index = 0;
  /// Owner-thread (main-thread) accumulator: plain adds, no atomics.
  int64_t Val = 0;
  /// Deltas merged in from thread shards.
  std::atomic<int64_t> Merged{0};
};

/// Accumulated wall-clock time of a named phase, self-registered at
/// construction. Only TimerScope (or a caller that timed the phase
/// itself, through addSample) mutates it, and only while enabled().
/// Shares the Counter thread model: plain adds on the owning thread,
/// shard accumulation on ThreadShardScope threads.
class PhaseTimer {
public:
  PhaseTimer(const char *Category, const char *Name,
             const char *Description);

  void addSample(double SampleSeconds) {
    if (detail::ShardActive) {
      detail::shardAddTimer(Index, SampleSeconds);
      return;
    }
    Seconds += SampleSeconds;
    ++Invocations;
  }
  double seconds() const {
    return Seconds + MergedSeconds.load(std::memory_order_relaxed);
  }
  uint64_t invocations() const {
    return Invocations + MergedInvocations.load(std::memory_order_relaxed);
  }
  /// Not synchronized; call while recording threads are quiescent.
  void reset() {
    Seconds = 0;
    Invocations = 0;
    MergedSeconds.store(0.0, std::memory_order_relaxed);
    MergedInvocations.store(0, std::memory_order_relaxed);
  }

  /// Internal: folds a thread shard's delta into the merge cells.
  void mergeShardDelta(double SampleSeconds, uint64_t NumInvocations);

  /// Registration index (position in allPhaseTimers()); shard slot key.
  uint32_t index() const { return Index; }

  const char *category() const { return Cat; }
  const char *name() const { return Nm; }
  const char *description() const { return Desc; }

private:
  const char *Cat;
  const char *Nm;
  const char *Desc;
  uint32_t Index = 0;
  /// Owner-thread (main-thread) accumulators: plain adds, no atomics.
  double Seconds = 0.0;
  uint64_t Invocations = 0;
  /// Deltas merged in from thread shards.
  std::atomic<double> MergedSeconds{0.0};
  std::atomic<uint64_t> MergedInvocations{0};
};

/// RAII phase measurement: accumulates into a PhaseTimer and, when a
/// sink is installed, emits a matching trace span. Reads the clock only
/// when telemetry is active — a disabled TimerScope is two branch tests.
class TimerScope {
public:
  explicit TimerScope(PhaseTimer &Timer,
                      std::initializer_list<Arg> Args = {})
      : Timer(Timer), Armed(enabled()), Tracing(tracingEnabled()) {
    if (Armed)
      Start = std::chrono::steady_clock::now();
    if (Tracing)
      detail::emitSlow(EventPhase::Begin, Timer.category(), Timer.name(),
                       0.0, Args.begin(), Args.size());
  }
  ~TimerScope() {
    if (Tracing)
      detail::emitSlow(EventPhase::End, Timer.category(), Timer.name(), 0.0,
                       nullptr, 0);
    if (Armed)
      Timer.addSample(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Start)
                          .count());
  }
  TimerScope(const TimerScope &) = delete;
  TimerScope &operator=(const TimerScope &) = delete;

private:
  PhaseTimer &Timer;
  bool Armed;
  bool Tracing;
  std::chrono::steady_clock::time_point Start;
};

//===----------------------------------------------------------------------===//
// Registry / reporting
//===----------------------------------------------------------------------===//

/// All registered counters / timers, in registration order. Stable for
/// the life of the process (registration happens at static-init).
const std::vector<Counter *> &allCounters();
const std::vector<PhaseTimer *> &allPhaseTimers();

/// Finds a registered counter / timer by "category/name", or nullptr.
Counter *findCounter(const std::string &CategorySlashName);
PhaseTimer *findPhaseTimer(const std::string &CategorySlashName);

/// Prints every non-zero counter and every invoked phase timer to \p Out
/// in a stable, grep-friendly layout (what MODSCHED_STATS=1 triggers at
/// exit, to stderr).
void reportStats(std::FILE *Out);

/// Zeroes every registered counter and timer (tests, or per-experiment
/// deltas in the bench harness). Not synchronized; call while recording
/// threads are quiescent (live shards are not cleared).
void resetAllStats();

//===----------------------------------------------------------------------===//
// Thread shards
//===----------------------------------------------------------------------===//

/// RAII thread-shard installation for worker threads. While a scope is
/// active on a thread, every Counter/PhaseTimer recording made from
/// that thread accumulates into a thread-local shard (plain adds, no
/// atomics, no locks); destruction merges the shard into the registry's
/// atomic merge cells. support/ThreadPool.h installs one per worker, so
/// pool tasks need no telemetry awareness. Nesting is allowed (inner
/// scopes are no-ops). The main thread does not need a scope — it owns
/// the counters' direct fields.
class ThreadShardScope {
public:
  ThreadShardScope();
  ~ThreadShardScope();
  ThreadShardScope(const ThreadShardScope &) = delete;
  ThreadShardScope &operator=(const ThreadShardScope &) = delete;

private:
  /// True when this scope installed the shard (outermost on the thread).
  bool Installed;
};

/// Merges the calling thread's live shard into the registry now
/// (leaving the shard installed and empty). No-op without an active
/// ThreadShardScope. Lets long-lived workers publish between tasks.
void flushThreadShard();

//===----------------------------------------------------------------------===//
// File sinks
//===----------------------------------------------------------------------===//

/// On-disk trace formats.
enum class TraceFormat {
  ChromeJson, ///< One JSON array of trace_event objects ("[ {...}, ... ]").
  Jsonl,      ///< One JSON object per line (stream-friendly).
};

/// Buffered file sink serializing events in Chrome trace_event schema
/// (ts/ph/cat/name/pid/tid/args). Both formats load in Perfetto and
/// chrome://tracing; JSONL additionally greps/streams well.
class JsonTraceSink : public TraceSink {
public:
  /// Opens \p Path for writing. Returns nullptr (with a warning to
  /// stderr) when the file cannot be opened.
  static std::unique_ptr<JsonTraceSink> open(const std::string &Path,
                                             TraceFormat Format);

  ~JsonTraceSink() override;
  void event(const TraceEvent &E) override;
  void flush() override;

private:
  JsonTraceSink(std::FILE *File, TraceFormat Format);

  std::FILE *File;
  TraceFormat Format;
  std::string Buffer;
  bool WroteAnyEvent = false;
};

/// Reads MODSCHED_TRACE / MODSCHED_STATS and installs the corresponding
/// sink / stats hook. Called automatically at process start from a
/// static initializer in Telemetry.cpp; safe to call again (idempotent
/// per distinct env state; re-installs the trace sink when called after
/// uninstallSink()).
void initFromEnvironment();

} // namespace telemetry
} // namespace modsched

#endif // MODSCHED_SUPPORT_TELEMETRY_H
