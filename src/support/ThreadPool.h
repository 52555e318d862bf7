//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size thread pool for the reentrant solve pipeline:
/// the scheduling service runs its solve workers on one. Each worker
/// installs a telemetry thread shard
/// (support/Telemetry.h) for its lifetime, so counters and phase timers
/// recorded from pool tasks accumulate without atomics on the hot path
/// and merge into the process registry when the pool is destroyed.
///
/// Tasks must not throw (the solver stack reports failure through return
/// values); an escaping exception terminates the process.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SUPPORT_THREADPOOL_H
#define MODSCHED_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace modsched {

/// Fixed-size FIFO thread pool. Construction spawns the workers;
/// destruction waits for every submitted task, merges the workers'
/// telemetry shards, and joins.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (clamped to >= 1).
  explicit ThreadPool(int NumThreads);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution on some worker. Safe from any
  /// thread, including pool workers (a task may submit follow-up work);
  /// a worker must not block in wait(), though.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has finished. Call from
  /// outside the pool only.
  void wait();

  /// Number of worker threads.
  int size() const { return static_cast<int>(Workers.size()); }

private:
  void workerMain();

  std::mutex Mutex;
  std::condition_variable WorkAvailable; ///< Signals queued work / stop.
  std::condition_variable AllIdle;       ///< Signals Pending == 0.
  std::deque<std::function<void()>> Queue;
  /// Queued plus currently-running tasks.
  size_t Pending = 0;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace modsched

#endif // MODSCHED_SUPPORT_THREADPOOL_H
