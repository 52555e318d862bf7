//===- service/Server.h - Persistent scheduling daemon ----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduling-as-a-service: a long-lived Server accepting streams of
/// protocol frames (service/Protocol.h) over stdin/stdout batch mode or
/// a Unix-domain socket, and dispatching solves onto a ThreadPool whose
/// workers each keep one persistent lp::SolveContext — warm simplex
/// workspaces survive across requests — and the process-wide
/// SolutionCache (on by default here) turns repeated submissions of
/// canonically equal loops into verified replays.
///
/// A SCHED frame that arrives on a connection with nothing in flight is
/// resolved (machine, parseDdg) and probed against the cache on the
/// connection's reader thread; a hit is answered there and never takes
/// a worker. Misses, frames behind an in-flight request of the same
/// connection, and every frame with the cache off go to a worker, a
/// probed miss carrying its parsed loop and Problem along.
///
/// Resolution is interned (service/InternTable.h): a MACHINE payload's
/// bytes map to one shared model, and a DDG payload's bytes, under one
/// machine and one set of formulation options, map to one shared parsed
/// loop and its Problem, canonical labeling included. A resubmitted
/// payload is neither parsed nor labeled again; its cache probe still
/// looks the Problem up and re-verifies the hit against its graph.
///
/// Admission control (docs/SERVICE.md): the queue of queued-plus-running
/// requests is bounded; a full queue or a client exceeding its in-flight
/// cap gets an immediate "retry_after" reply instead of unbounded
/// buffering. A hit answered on the reader takes no queue slot.
/// Responses are one JSON line each, tagged with the request id;
/// completion order is not arrival order (clients match on id).
///
/// Shutdown is a graceful drain: stop admitting, let in-flight solves
/// finish (their responses are still written), then join the workers.
/// A client vanishing mid-stream cancels its outstanding solves through
/// their per-request cancellation tokens.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SERVICE_SERVER_H
#define MODSCHED_SERVICE_SERVER_H

#include "ilpsched/OptimalScheduler.h"
#include "service/InternTable.h"
#include "service/Protocol.h"
#include "support/Cancellation.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace modsched {

class ThreadPool; // support/ThreadPool.h

namespace service {

/// Server configuration; every knob has a MODSCHED_SERVICE_* override
/// (see fromEnv and docs/SERVICE.md).
struct ServerOptions {
  /// Solver worker threads (one persistent lp::SolveContext each).
  int Workers = 4;
  /// Queued-plus-running request bound; admission beyond it sheds.
  int QueueLimit = 64;
  /// Per-client in-flight cap (client = one stream / connection id).
  int ClientInFlightLimit = 16;
  /// Wall-clock budget for requests that do not ask for one.
  double DefaultTimeLimitSeconds = 10.0;
  /// Hard ceiling a request's time=<sec> is clamped to.
  double MaxTimeLimitSeconds = 60.0;
  /// Node budget for requests that do not ask for one (INT64_MAX = off).
  std::int64_t DefaultNodeLimit = INT64_MAX;
  /// Consult/populate the process-wide SolutionCache. ON by default in
  /// the server — replay is the daemon's whole point.
  bool Cache = true;
  /// Exact engine behind every attempt.
  SchedulerBackend Backend = SchedulerBackend::Ilp;
  /// Milliseconds suggested to shed clients ("retry_after_ms").
  int RetryAfterMs = 100;
  /// Include the schedule times vector in ok responses.
  bool EmitSchedules = true;
  /// Frame-reader hard limits.
  ProtocolLimits Limits;

  /// Reads the MODSCHED_SERVICE_* environment overrides (WORKERS,
  /// QUEUE, CLIENT_INFLIGHT, TIME_LIMIT, MAX_TIME_LIMIT, NODE_LIMIT,
  /// CACHE, BACKEND, RETRY_AFTER_MS, MAX_LINE, MAX_PAYLOAD_LINES).
  /// Invalid values warn on stderr and keep the defaults above. Only
  /// the msched-serve entry point calls it; the library itself reads
  /// no configuration from the environment.
  static ServerOptions fromEnv();
};

/// Monotonic counters mirrored by the service/* telemetry, plus the
/// intern tables' sizes.
struct ServerStats {
  std::int64_t Connections = 0; ///< Streams served (stdio or socket).
  std::int64_t Requests = 0;    ///< SCHED frames received (incl. bad).
  /// Requests admitted: queued for a worker or answered on the reader.
  std::int64_t Accepted = 0;
  std::int64_t Shed = 0;        ///< Requests load-shed (retry_after).
  std::int64_t Errors = 0;      ///< Error replies (parse or payload).
  std::int64_t Completed = 0;   ///< Requests concluded (any status).
  std::int64_t CacheHits = 0;   ///< Completed requests served from cache.
  /// Cache hits answered on the connection's reader thread (a subset of
  /// CacheHits that never took a worker or a queue slot).
  std::int64_t ReaderHits = 0;
  std::int64_t Cancelled = 0;   ///< Requests cancelled by disconnect.
  /// Inline MACHINE payloads served by an interned model (no parse).
  std::int64_t MachineInternHits = 0;
  /// Interned machine models held now, at most
  /// Server::MaxInternedMachines (a gauge, not a counter).
  std::int64_t MachinesInterned = 0;
  /// DDG payloads served by an interned loop and Problem (no parse, no
  /// canonical labeling).
  std::int64_t LoopInternHits = 0;
  /// Interned loops held now, at most Server::MaxInternedLoops (a gauge).
  std::int64_t LoopsInterned = 0;
  /// DDG payload bytes the interned loops hold, at most
  /// Server::MaxInternedLoopBytes (a gauge; not in the STATS reply).
  std::int64_t LoopInternBytes = 0;
};

/// The daemon. One instance per process; destruction drains.
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Serves one stream of frames: reads requests from \p In, writes
  /// one-line JSON responses to \p Out (interleaved across requests,
  /// serialized per line), returns after QUIT or EOF once every
  /// admitted request of this stream has completed. \p ClientId names
  /// the stream for the per-client in-flight cap. EOF with solves still
  /// in flight cancels them (mid-request disconnect). The calling thread
  /// parses payloads and probes the solution cache itself, so a thread
  /// other than the main one must hold a telemetry::ThreadShardScope
  /// (acceptLoop's handlers do).
  void serveStream(std::istream &In, std::ostream &Out,
                   const std::string &ClientId);

  /// Binds and listens on Unix-domain socket \p Path (an existing
  /// socket file is replaced). False + \p Error on failure.
  bool listenUnix(const std::string &Path, std::string *Error);

  /// Accepts and serves socket connections (one handler thread each,
  /// joined once it finishes) until requestShutdown(); then drains and
  /// joins the remaining handlers.
  /// Requires a successful listenUnix first.
  void acceptLoop();

  /// Flags shutdown: acceptLoop stops admitting new connections and
  /// returns after the graceful drain. Safe from any thread (and from
  /// signal handlers: one relaxed atomic store).
  void requestShutdown() { Stopping.store(true, std::memory_order_relaxed); }

  /// True once requestShutdown was called.
  bool stopping() const { return Stopping.load(std::memory_order_relaxed); }

  /// Blocks until no request is queued or running.
  void drain();

  /// Snapshot of the monotonic counters.
  ServerStats stats() const;

  /// One-line JSON rendering of stats() (the STATS reply).
  std::string statsResponse() const;

  const ServerOptions &options() const { return Opts; }

  /// Most MACHINE payloads internMachine keeps; past it the least
  /// recently used one is dropped.
  static constexpr std::size_t MaxInternedMachines = 16;

  /// Most resolved DDG payloads the loop intern table keeps, and the
  /// most DDG payload bytes they may hold together; past either bound
  /// the least recently used loop is dropped. A payload larger than the
  /// byte budget is resolved for its request but not interned.
  static constexpr std::size_t MaxInternedLoops = 1024;
  static constexpr std::size_t MaxInternedLoopBytes = 512 << 10;

  /// The model for MACHINE payload \p Text. A payload with these exact
  /// bytes parsed before is served from the intern table without a
  /// parse; otherwise the text is parsed, its signature memoized, and
  /// the model interned. The model is immutable and shared by every
  /// request that names the same bytes. Returns nullptr and sets
  /// \p Error when the text does not parse; failures are not interned.
  std::shared_ptr<const MachineModel> internMachine(const std::string &Text,
                                                    std::string *Error);

private:
  struct Connection;   // Per-stream response mutex + in-flight tracking.
  struct Job;          // One SCHED request and its resolved payload.
  struct ResolvedLoop; // One interned DDG payload: its graph and Problem.

  /// What determines a resolved DDG payload: the machine it is parsed
  /// on (held, so its address names it while the key lives), the
  /// formulation options of its Problem and the payload's bytes.
  struct LoopKey {
    std::shared_ptr<const MachineModel> M;
    FormulationOptions Opts;
    std::string Ddg;
    bool operator==(const LoopKey &) const = default;
  };
  struct LoopKeyHash {
    std::size_t operator()(const LoopKey &K) const;
  };

  /// Takes one framed SCHED request on \p Conn's reader thread: answers
  /// a cache hit (or a bad payload) at once when the connection is idle,
  /// else admits the request to the pool or writes the shed reply.
  void admit(Request Req, const std::shared_ptr<Connection> &Conn);

  /// Resolves \p J's payload: its machine (interned or built in), its
  /// loop and Problem (interned, parsed on a miss) and the scheduler its
  /// request configures. On a bad payload writes the error reply, counts
  /// it and returns false.
  bool resolve(Job &J, Connection &Conn);

  /// Runs one admitted request on a pool worker.
  void runRequest(Job &J, lp::SolveContext &Ctx, Connection &Conn,
                  const CancellationToken &Cancel);

  /// Counts and writes the reply to resolved request \p J, concluded
  /// with \p R and \p Status; \p OnReader marks a hit answered on the
  /// reader (counted as a request, admitted and completed at once).
  void reply(const Job &J, const ScheduleResult &R, const char *Status,
             Connection &Conn, bool OnReader);

  /// Borrows / returns one persistent worker solve context. At most
  /// Opts.Workers borrows are outstanding (tasks only run on workers).
  std::unique_ptr<lp::SolveContext> borrowContext();
  void returnContext(std::unique_ptr<lp::SolveContext> Ctx);

  ServerOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  std::atomic<bool> Stopping{false};

  // The intern tables lock internally.
  /// MACHINE payload bytes -> model. Bounded by count only: each
  /// payload is already within the frame's byte limit.
  InternTable<std::string, MachineModel, std::hash<std::string>> Machines;
  /// (machine, formulation options, DDG payload bytes) -> loop.
  InternTable<LoopKey, ResolvedLoop, LoopKeyHash> Loops;

  mutable std::mutex Mu; ///< Guards everything below.
  std::condition_variable Idle;
  std::vector<std::unique_ptr<lp::SolveContext>> FreeContexts;
  int InFlight = 0; ///< Queued + running solve tasks.
  std::map<std::string, int> ClientInFlight;
  ServerStats Stat;

  int ListenFd = -1;
};

} // namespace service
} // namespace modsched

#endif // MODSCHED_SERVICE_SERVER_H
