//===- service/Server.cpp - Persistent scheduling daemon ------------------===//

#include "service/Server.h"

#include "graph/DependenceGraph.h"
#include "ilpsched/SolutionCache.h"
#include "lp/SolveContext.h"
#include "machine/MachineModel.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <istream>
#include <limits>
#include <list>
#include <ostream>
#include <streambuf>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace modsched;
using namespace modsched::service;

namespace {

telemetry::Counter StatConnections("service", "connections",
                                   "Streams served (stdio or socket)");
telemetry::Counter StatRequests("service", "requests",
                                "SCHED frames received (incl. malformed)");
telemetry::Counter StatAccepted("service", "accepted",
                                "Requests admitted (queued, or answered "
                                "on the reader)");
telemetry::Counter StatShed("service", "shed",
                            "Requests load-shed with retry_after");
telemetry::Counter StatErrors("service", "errors",
                              "Error replies (framing or payload)");
telemetry::Counter StatCompleted("service", "completed",
                                 "Requests concluded (any status)");
telemetry::Counter StatCacheHits("service", "cache_hits",
                                 "Completed requests served from the "
                                 "solution cache");
telemetry::Counter StatReaderHits("service", "reader_hits",
                                  "Cache hits answered on the "
                                  "connection's reader thread");
telemetry::Counter StatCancelled("service", "cancelled",
                                 "Requests cancelled by client disconnect");
telemetry::Counter StatInternHits("service", "machine_intern.hits",
                                  "Inline MACHINE payloads served by an "
                                  "interned model (no parse)");
telemetry::Counter StatInternMisses("service", "machine_intern.misses",
                                    "Inline MACHINE payloads parsed (not "
                                    "interned yet, or malformed)");
telemetry::Counter StatLoopInternHits("service", "loop_intern.hits",
                                      "DDG payloads served by an interned "
                                      "loop and Problem (no parse, no "
                                      "canonical labeling)");
telemetry::Counter StatLoopInternMisses("service", "loop_intern.misses",
                                        "DDG payloads parsed (not interned "
                                        "yet, or malformed)");

/// Strict env parsing in the bench/Harness style: malformed values warn
/// on stderr and keep the compiled-in default.
int64_t parseEnvInt(const char *Name, int64_t Default, int64_t Min,
                    int64_t Max) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(Env, &End, 10);
  if (*End != '\0' || V < Min || V > Max) {
    std::fprintf(stderr,
                 "modsched: invalid %s='%s' (want integer in [%lld, %lld]); "
                 "keeping %lld\n",
                 Name, Env, static_cast<long long>(Min),
                 static_cast<long long>(Max),
                 static_cast<long long>(Default));
    return Default;
  }
  return V;
}

double parseEnvSeconds(const char *Name, double Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  double V = std::strtod(Env, &End);
  if (*End != '\0' || !(V > 0) || V > 1e9) {
    std::fprintf(stderr,
                 "modsched: invalid %s='%s' (want positive seconds); "
                 "keeping %g\n",
                 Name, Env, Default);
    return Default;
  }
  return V;
}

bool parseEnvBool(const char *Name, bool Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  if (std::strcmp(Env, "1") == 0 || std::strcmp(Env, "on") == 0)
    return true;
  if (std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0)
    return false;
  std::fprintf(stderr,
               "modsched: invalid %s='%s' (want 0|1|on|off); keeping %s\n",
               Name, Env, Default ? "on" : "off");
  return Default;
}

SchedulerBackend parseEnvBackend(const char *Name, SchedulerBackend Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  if (std::optional<SchedulerBackend> B = parseSchedulerBackend(Env))
    return *B;
  std::fprintf(stderr,
               "modsched: invalid %s='%s' (want ilp|pb|portfolio); "
               "keeping %s\n",
               Name, Env, toString(Default));
  return Default;
}

/// Seals \p M for sharing between concurrent requests: its signature
/// is memoized while it is still private, so no reader ever writes.
std::shared_ptr<const MachineModel> shareMachine(MachineModel M) {
  M.memoizeSignature();
  return std::make_shared<const MachineModel>(std::move(M));
}

/// The model `machine=<Name>` names, built once per process; nullptr
/// for a name the protocol does not define.
std::shared_ptr<const MachineModel> builtinMachine(const std::string &Name) {
  if (Name == "example3") {
    static const auto M = shareMachine(MachineModel::example3());
    return M;
  }
  if (Name == "cydra") {
    static const auto M = shareMachine(MachineModel::cydraLike());
    return M;
  }
  if (Name == "vliw2") {
    static const auto M = shareMachine(MachineModel::vliw2());
    return M;
  }
  return nullptr;
}

/// The scheduler options request \p Req asks for under server options
/// \p Opts. The one place a request becomes SchedulerOptions, so a
/// frame probed on the reader and one resolved on a worker get the same
/// cache request key.
SchedulerOptions requestOptions(const Request &Req, const ServerOptions &Opts) {
  SchedulerOptions SOpts;
  SOpts.Formulation.Obj = Req.Obj;
  SOpts.Formulation.DepStyle = Req.DepStyle;
  SOpts.Backend = Opts.Backend;
  SOpts.TimeLimitSeconds =
      std::min(Req.TimeLimitSeconds > 0 ? Req.TimeLimitSeconds
                                        : Opts.DefaultTimeLimitSeconds,
               Opts.MaxTimeLimitSeconds);
  SOpts.NodeLimit = Req.NodeLimit > 0 ? Req.NodeLimit : Opts.DefaultNodeLimit;
  if (Req.MaxIiIncrease >= 0)
    SOpts.MaxIiIncrease = Req.MaxIiIncrease;
  SOpts.Explain = false;
  SOpts.Cache = Opts.Cache;
  return SOpts;
}

/// Renders a 64-bit content address the way the forensics docs write
/// them: 16 lowercase hex digits.
std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Blocking streambuf over a POSIX fd; sockets write with MSG_NOSIGNAL
/// so a vanished client surfaces as a write error, never SIGPIPE.
/// Write failures latch: the stream goes bad and later lines are
/// dropped (the client is gone; solves still complete for the cache).
class FdStreamBuf : public std::streambuf {
public:
  FdStreamBuf(int Fd, bool IsSocket) : Fd(Fd), IsSocket(IsSocket) {
    setg(InBuf, InBuf, InBuf);
    setp(OutBuf, OutBuf + sizeof(OutBuf));
  }
  ~FdStreamBuf() override { sync(); }

protected:
  int_type underflow() override {
    if (gptr() < egptr())
      return traits_type::to_int_type(*gptr());
    ssize_t N;
    do
      N = ::read(Fd, InBuf, sizeof(InBuf));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return traits_type::eof();
    setg(InBuf, InBuf, InBuf + N);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type C) override {
    if (flushOut() != 0)
      return traits_type::eof();
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(C);
      pbump(1);
    }
    return traits_type::not_eof(C);
  }

  int sync() override { return flushOut(); }

private:
  int flushOut() {
    const char *P = pbase();
    std::size_t Len = static_cast<std::size_t>(pptr() - pbase());
    while (Len > 0) {
      ssize_t N = IsSocket ? ::send(Fd, P, Len, MSG_NOSIGNAL)
                           : ::write(Fd, P, Len);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        setp(OutBuf, OutBuf + sizeof(OutBuf));
        return -1;
      }
      P += N;
      Len -= static_cast<std::size_t>(N);
    }
    setp(OutBuf, OutBuf + sizeof(OutBuf));
    return 0;
  }

  int Fd;
  bool IsSocket;
  char InBuf[8192];
  char OutBuf[8192];
};

} // namespace

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

ServerOptions ServerOptions::fromEnv() {
  ServerOptions O;
  O.Workers = static_cast<int>(
      parseEnvInt("MODSCHED_SERVICE_WORKERS", O.Workers, 1, 256));
  O.QueueLimit = static_cast<int>(
      parseEnvInt("MODSCHED_SERVICE_QUEUE", O.QueueLimit, 1, 1 << 20));
  O.ClientInFlightLimit = static_cast<int>(parseEnvInt(
      "MODSCHED_SERVICE_CLIENT_INFLIGHT", O.ClientInFlightLimit, 1, 1 << 20));
  O.DefaultTimeLimitSeconds = parseEnvSeconds("MODSCHED_SERVICE_TIME_LIMIT",
                                              O.DefaultTimeLimitSeconds);
  O.MaxTimeLimitSeconds = parseEnvSeconds("MODSCHED_SERVICE_MAX_TIME_LIMIT",
                                          O.MaxTimeLimitSeconds);
  O.DefaultNodeLimit = parseEnvInt("MODSCHED_SERVICE_NODE_LIMIT",
                                   O.DefaultNodeLimit, 1, INT64_MAX);
  O.Cache = parseEnvBool("MODSCHED_SERVICE_CACHE", O.Cache);
  O.Backend = parseEnvBackend("MODSCHED_SERVICE_BACKEND", O.Backend);
  O.RetryAfterMs = static_cast<int>(parseEnvInt(
      "MODSCHED_SERVICE_RETRY_AFTER_MS", O.RetryAfterMs, 1, 3600000));
  O.Limits.MaxLineBytes = static_cast<std::size_t>(
      parseEnvInt("MODSCHED_SERVICE_MAX_LINE",
                  static_cast<int64_t>(O.Limits.MaxLineBytes), 256, 1 << 24));
  O.Limits.MaxPayloadLines = static_cast<int>(
      parseEnvInt("MODSCHED_SERVICE_MAX_PAYLOAD_LINES",
                  O.Limits.MaxPayloadLines, 16, 1 << 20));
  return O;
}

//===----------------------------------------------------------------------===//
// Connection bookkeeping
//===----------------------------------------------------------------------===//

/// Per-stream state shared between the reader (serveStream) and the
/// solve tasks it admitted. Held by shared_ptr so a task outliving an
/// aborted reader still finds its bookkeeping alive; the reader never
/// returns before Pending drains, so Out stays valid for every write.
struct Server::Connection {
  std::string ClientId;
  std::ostream *Out = nullptr;
  std::mutex OutMu; ///< One response line at a time.

  std::mutex Mu; ///< Guards Pending / Active.
  std::condition_variable AllDone;
  int Pending = 0;
  /// Cancellation sources of the in-flight requests, for
  /// disconnect-triggered cancellation.
  std::vector<std::shared_ptr<CancellationSource>> Active;

  void writeLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(OutMu);
    *Out << Line << '\n';
    Out->flush();
  }

  /// True when none of this connection's requests is queued or running.
  /// Only the reader adds pending requests, so on the reader an idle
  /// connection stays idle until it admits the next one.
  bool idle() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Pending == 0;
  }
};

/// A DDG payload resolved on one machine under one set of formulation
/// options: the parsed loop and its Problem, whose canonical labeling is
/// computed by the first request that needs it and kept. Immutable and
/// shared by every request naming the same LoopKey.
struct Server::ResolvedLoop {
  ResolvedLoop(std::shared_ptr<const MachineModel> Machine,
               DependenceGraph Graph, const FormulationOptions &Opts)
      : M(std::move(Machine)), G(std::move(Graph)), P(G, *M, Opts) {}

  const std::shared_ptr<const MachineModel> M;
  const DependenceGraph G;
  const Problem P; ///< Refers to G and *M.
};

std::size_t Server::LoopKeyHash::operator()(const LoopKey &K) const {
  // The server varies only the objective and dependence style between
  // requests; the key compare checks every option.
  std::uint64_t H = std::hash<std::string>()(K.Ddg);
  H = hashCombine(H, reinterpret_cast<std::uintptr_t>(K.M.get()));
  H = hashCombine(H, static_cast<std::uint64_t>(K.Opts.Obj));
  H = hashCombine(H, static_cast<std::uint64_t>(K.Opts.DepStyle));
  return static_cast<std::size_t>(H);
}

/// One SCHED request and, once resolved, everything its answer needs.
/// Resolved and probed once, on the reader or on the worker, and never
/// moved: Scheduler refers to Loop's machine. A job the reader resolved
/// reaches a worker only as a cache miss.
struct Server::Job {
  Request Req;
  std::shared_ptr<const ResolvedLoop> Loop;
  std::optional<OptimalModuloScheduler> Scheduler;
};

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Options)
    : Opts(std::move(Options)),
      Machines(MaxInternedMachines, std::numeric_limits<std::size_t>::max(),
               StatInternHits, StatInternMisses),
      Loops(MaxInternedLoops, MaxInternedLoopBytes, StatLoopInternHits,
            StatLoopInternMisses) {
  Pool = std::make_unique<ThreadPool>(Opts.Workers);
  for (int I = 0; I < Opts.Workers; ++I)
    FreeContexts.push_back(std::make_unique<lp::SolveContext>());
}

Server::~Server() {
  requestShutdown();
  drain();
  Pool.reset(); // Joins the workers (drain left nothing queued).
  if (ListenFd >= 0)
    ::close(ListenFd);
}

std::unique_ptr<lp::SolveContext> Server::borrowContext() {
  std::lock_guard<std::mutex> Lock(Mu);
  assert(!FreeContexts.empty() &&
         "more concurrent solve tasks than pool workers");
  std::unique_ptr<lp::SolveContext> Ctx = std::move(FreeContexts.back());
  FreeContexts.pop_back();
  return Ctx;
}

void Server::returnContext(std::unique_ptr<lp::SolveContext> Ctx) {
  std::lock_guard<std::mutex> Lock(Mu);
  FreeContexts.push_back(std::move(Ctx));
}

void Server::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  Idle.wait(Lock, [this] { return InFlight == 0; });
}

ServerStats Server::stats() const {
  ServerStats S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S = Stat;
  }
  S.MachineInternHits = Machines.hits();
  S.MachinesInterned = static_cast<std::int64_t>(Machines.size());
  S.LoopInternHits = Loops.hits();
  S.LoopsInterned = static_cast<std::int64_t>(Loops.size());
  S.LoopInternBytes = static_cast<std::int64_t>(Loops.bytes());
  return S;
}

std::shared_ptr<const MachineModel>
Server::internMachine(const std::string &Text, std::string *Error) {
  return Machines.intern(
      Text, Text.size(),
      [&](const std::string &T) -> std::shared_ptr<const MachineModel> {
        std::optional<MachineModel> Parsed = parseMachine(T, Error);
        if (!Parsed)
          return nullptr;
        return shareMachine(std::move(*Parsed));
      });
}

std::string Server::statsResponse() const {
  ServerStats S = stats();
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("proto").value(ProtocolVersion);
  W.key("status").value("ok");
  W.key("stats").beginObject();
  W.key("connections").value(S.Connections);
  W.key("requests").value(S.Requests);
  W.key("accepted").value(S.Accepted);
  W.key("shed").value(S.Shed);
  W.key("errors").value(S.Errors);
  W.key("completed").value(S.Completed);
  W.key("cache_hits").value(S.CacheHits);
  W.key("reader_hits").value(S.ReaderHits);
  W.key("cancelled").value(S.Cancelled);
  W.key("machines_interned").value(S.MachinesInterned);
  W.key("machine_intern_hits").value(S.MachineInternHits);
  W.key("loops_interned").value(S.LoopsInterned);
  W.key("loop_intern_hits").value(S.LoopInternHits);
  W.key("workers").value(Opts.Workers);
  W.key("queue_limit").value(Opts.QueueLimit);
  W.key("cache_entries")
      .value(static_cast<uint64_t>(SolutionCache::global().size()));
  W.endObject();
  W.endObject();
  return Out;
}

bool Server::resolve(Job &J, Connection &Conn) {
  // A machine text seen before is not parsed again (internMachine), nor
  // a DDG text seen before on that machine under the same options.
  std::string Error;
  const char *What = "bad machine: ";
  std::shared_ptr<const MachineModel> M =
      J.Req.BuiltinMachine.empty() ? internMachine(J.Req.MachineText, &Error)
                                   : builtinMachine(J.Req.BuiltinMachine);
  SchedulerOptions SOpts = requestOptions(J.Req, Opts);
  if (M) {
    What = "bad ddg: ";
    // The payload moves into the key; the request needs it no more.
    const std::size_t Bytes = J.Req.DdgText.size();
    const LoopKey Key{std::move(M), SOpts.Formulation,
                      std::move(J.Req.DdgText)};
    J.Loop = Loops.intern(
        Key, Bytes,
        [&](const LoopKey &K) -> std::shared_ptr<const ResolvedLoop> {
          std::optional<DependenceGraph> G = parseDdg(K.Ddg, *K.M, &Error);
          if (!G)
            return nullptr;
          return std::make_shared<const ResolvedLoop>(K.M, std::move(*G),
                                                      K.Opts);
        });
  }
  if (!J.Loop) {
    ++StatErrors;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Stat.Errors;
    }
    Conn.writeLine(errorResponse(J.Req.Id, What + Error));
    return false;
  }
  J.Scheduler.emplace(*J.Loop->M, std::move(SOpts));
  return true;
}

void Server::reply(const Job &J, const ScheduleResult &R, const char *Status,
                   Connection &Conn, bool OnReader) {
  ++StatCompleted;
  if (R.CacheHit)
    ++StatCacheHits;
  if (OnReader) {
    ++StatRequests;
    ++StatAccepted;
    ++StatReaderHits;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stat.Completed;
    if (R.CacheHit)
      ++Stat.CacheHits;
    if (OnReader) {
      ++Stat.Requests;
      ++Stat.Accepted;
      ++Stat.ReaderHits;
    }
  }

  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("proto").value(ProtocolVersion);
  W.key("id").value(J.Req.Id);
  W.key("status").value(Status);
  W.key("loop").value(J.Loop->G.name());
  W.key("ops").value(static_cast<int>(J.Loop->G.numOperations()));
  W.key("objective").value(toString(J.Req.Obj));
  W.key("mii").value(R.Mii);
  W.key("cache_hit").value(R.CacheHit);
  if (R.CacheCanonicalHash != 0) {
    W.key("canonical_hash").value(hex64(R.CacheCanonicalHash));
    W.key("request_key").value(hex64(R.CacheRequestKey));
  }
  W.key("nodes").value(R.Nodes);
  W.key("pb_conflicts").value(R.PbConflicts);
  W.key("seconds").value(R.Seconds);
  if (R.Found) {
    W.key("ii").value(R.II);
    W.key("secondary").value(R.SecondaryObjective);
    if (Opts.EmitSchedules) {
      W.key("schedule").beginObject();
      W.key("ii").value(R.Schedule.ii());
      W.key("times").beginArray();
      for (int T : R.Schedule.times())
        W.value(T);
      W.endArray();
      W.endObject();
    }
  }
  W.endObject();
  Conn.writeLine(Out);
}

void Server::runRequest(Job &J, lp::SolveContext &Ctx, Connection &Conn,
                        const CancellationToken &Cancel) {
  // A request the reader did not resolve is parsed and probed here, on
  // the worker: its connection was busy, or the cache is off.
  std::optional<ScheduleResult> R;
  if (!J.Scheduler) {
    if (!resolve(J, Conn))
      return;
    R = J.Scheduler->probeCache(J.Loop->P);
  }
  const OptimalModuloScheduler &Scheduler = *J.Scheduler;
  if (!R) {
    // Arm the worker's persistent context for this request: absolute
    // deadline plus the connection's cancellation token. Restored below
    // — the workspace is what persists, never budgets.
    Ctx.DeadlineSeconds =
        monotonicSeconds() + Scheduler.options().TimeLimitSeconds;
    Ctx.Cancel = Cancel;
    R = Scheduler.solve(J.Loop->P, &Ctx);
    Ctx.DeadlineSeconds = lp::NoDeadline;
    Ctx.Cancel = CancellationToken();
  }

  const char *Status = "unsolved";
  if (R->Found)
    Status = "ok";
  else if (Cancel.cancelled())
    Status = "cancelled";
  else if (R->TimedOut)
    Status = "timeout";
  else if (R->NodeLimitHit)
    Status = "node_limit";
  reply(J, *R, Status, Conn, /*OnReader=*/false);
}

void Server::admit(Request Req, const std::shared_ptr<Connection> &Conn) {
  auto J = std::make_shared<Job>();
  J->Req = std::move(Req);

  // On an idle connection the reader resolves and probes the request
  // itself: a hit is answered here without a worker or a queue slot,
  // and no reply of this connection can be overtaken by it. A bad
  // payload is answered here too; a miss goes to a worker with its
  // parsed loop and Problem.
  if (Opts.Cache && !stopping() && Conn->idle()) {
    if (!resolve(*J, *Conn)) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Stat.Requests;
      ++Stat.Accepted;
      ++StatRequests;
      ++StatAccepted;
      return;
    }
    if (std::optional<ScheduleResult> Hit =
            J->Scheduler->probeCache(J->Loop->P)) {
      reply(*J, *Hit, "ok", *Conn, /*OnReader=*/true);
      return;
    }
  }

  auto Source = std::make_shared<CancellationSource>();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stat.Requests;
    ++StatRequests;
    const bool QueueFull = InFlight >= Opts.QueueLimit;
    const bool ClientFull =
        ClientInFlight[Conn->ClientId] >= Opts.ClientInFlightLimit;
    if (stopping() || QueueFull || ClientFull) {
      ++Stat.Shed;
      ++StatShed;
      // The reply is one line on the connection's own mutex; holding Mu
      // here is fine (no lock-order cycle — writeLine never takes Mu).
      Conn->writeLine(retryAfterResponse(J->Req.Id, Opts.RetryAfterMs));
      return;
    }
    ++Stat.Accepted;
    ++StatAccepted;
    ++InFlight;
    ++ClientInFlight[Conn->ClientId];
  }
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    ++Conn->Pending;
    Conn->Active.push_back(Source);
  }

  Pool->submit([this, J, Conn, Source]() {
    std::unique_ptr<lp::SolveContext> Ctx = borrowContext();
    runRequest(*J, *Ctx, *Conn, Source->token());
    returnContext(std::move(Ctx));
    {
      std::lock_guard<std::mutex> Lock(Mu);
      --InFlight;
      --ClientInFlight[Conn->ClientId];
      if (InFlight == 0)
        Idle.notify_all();
    }
    {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      for (std::size_t I = 0; I < Conn->Active.size(); ++I)
        if (Conn->Active[I] == Source) {
          Conn->Active.erase(Conn->Active.begin() +
                             static_cast<std::ptrdiff_t>(I));
          break;
        }
      if (--Conn->Pending == 0)
        Conn->AllDone.notify_all();
    }
  });
}

void Server::serveStream(std::istream &In, std::ostream &Out,
                         const std::string &ClientId) {
  auto Conn = std::make_shared<Connection>();
  Conn->ClientId = ClientId;
  Conn->Out = &Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stat.Connections;
    ++StatConnections;
  }

  bool Disconnected = false;
  for (;;) {
    Frame F = readFrame(In, Opts.Limits);
    if (F.Kind == FrameKind::Eof || F.Kind == FrameKind::Quit)
      break;
    if (F.Kind == FrameKind::Ping) {
      Conn->writeLine(pingResponse());
      continue;
    }
    if (F.Kind == FrameKind::Stats) {
      Conn->writeLine(statsResponse());
      continue;
    }
    if (F.Kind == FrameKind::Error) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Stat.Requests;
        ++Stat.Errors;
        ++StatRequests;
        ++StatErrors;
      }
      Conn->writeLine(errorResponse(F.Id, F.Error));
      if (F.Fatal) {
        // Lost framing (oversized line, truncated frame, payload
        // overflow): the rest of the stream is garbage. A truncated
        // frame is the mid-request disconnect case — cancel whatever
        // this client still has in flight.
        Disconnected = true;
        break;
      }
      continue;
    }
    admit(std::move(F.Req), Conn);
  }

  if (Disconnected) {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    for (const std::shared_ptr<CancellationSource> &S : Conn->Active) {
      S->cancel();
      ++StatCancelled;
    }
    std::lock_guard<std::mutex> StatLock(Mu);
    Stat.Cancelled += static_cast<std::int64_t>(Conn->Active.size());
  }

  // Graceful per-connection drain: every admitted request still gets
  // its response line (cancelled ones report status "cancelled").
  std::unique_lock<std::mutex> Lock(Conn->Mu);
  Conn->AllDone.wait(Lock, [&Conn] { return Conn->Pending == 0; });
}

//===----------------------------------------------------------------------===//
// Unix-domain socket transport
//===----------------------------------------------------------------------===//

bool Server::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Path;
    return false;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Path.c_str());
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    if (Error)
      *Error = std::string("bind/listen ") + Path + ": " +
               std::strerror(errno);
    ::close(Fd);
    return false;
  }
  ListenFd = Fd;
  return true;
}

void Server::acceptLoop() {
  assert(ListenFd >= 0 && "acceptLoop requires a successful listenUnix");
  // One thread per connection. A finished handler keeps its stack (and
  // its malloc arena) until it is joined, so every pass joins the
  // handlers that are done, after the poll: a sequential client's
  // previous handler has then exited before the next one is spawned,
  // which reuses its stack and arena instead of adding another.
  struct Handler {
    std::atomic<bool> Done{false};
    std::thread Thread;
  };
  std::list<Handler> Handlers; // Stable addresses: each thread holds &Done.
  auto JoinIfDone = [](Handler &H) {
    if (!H.Done.load(std::memory_order_acquire))
      return false;
    H.Thread.join();
    return true;
  };
  int64_t NextConn = 0;
  while (!stopping()) {
    pollfd P{ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, /*timeout_ms=*/200);
    Handlers.remove_if(JoinIfDone);
    if (N <= 0)
      continue; // Timeout or EINTR: re-check the stop flag.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    std::string ClientId = "sock:" + std::to_string(NextConn++);
    Handler &H = Handlers.emplace_back();
    H.Thread = std::thread([this, Fd, ClientId, &Done = H.Done]() {
      // Handler threads record service/* counters; every non-main
      // recording thread needs a telemetry shard (support/Telemetry.h
      // thread model).
      telemetry::ThreadShardScope Shard;
      FdStreamBuf InBuf(Fd, /*IsSocket=*/true);
      FdStreamBuf OutBuf(Fd, /*IsSocket=*/true);
      std::istream In(&InBuf);
      std::ostream Out(&OutBuf);
      serveStream(In, Out, ClientId);
      Out.flush();
      {
        // The id names this connection only, and serveStream returned
        // with nothing of it in flight: drop its admission entry.
        std::lock_guard<std::mutex> Lock(Mu);
        ClientInFlight.erase(ClientId);
      }
      // Mark the handler reapable before closing: the close lets a
      // sequential client reconnect at once, and the accept loop must
      // then see this handler as done.
      Done.store(true, std::memory_order_release);
      ::close(Fd);
    });
  }
  for (Handler &H : Handlers)
    H.Thread.join();
  drain();
}
