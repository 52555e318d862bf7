//===- support/Cancellation.h - Cooperative cancellation --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for long-running solves. A CancellationSource
/// owns a cancel flag; any number of CancellationToken copies observe it.
/// The solver stack polls the token at its natural budget checkpoints
/// (between branch-and-bound nodes, every 64 simplex pivots), so a
/// caller — the scheduling service when its client disconnects — can
/// stop a solve that has become irrelevant within one node LP.
///
/// Thread-safety: cancel() may be called from any thread, concurrently
/// with any number of cancelled() polls. Tokens are cheap to copy (one
/// shared_ptr) and a default-constructed token is never cancelled, so
/// single-threaded callers pay one null test per poll.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SUPPORT_CANCELLATION_H
#define MODSCHED_SUPPORT_CANCELLATION_H

#include <atomic>
#include <memory>

namespace modsched {

/// Read side of a cancellation flag. Default-constructed tokens are
/// detached: cancelled() is false forever.
class CancellationToken {
public:
  CancellationToken() = default;

  /// True once the owning source has been cancelled.
  bool cancelled() const {
    return Flag && Flag->load(std::memory_order_acquire);
  }

  /// True when this token observes a real source (a detached token can
  /// never be cancelled).
  bool attached() const { return Flag != nullptr; }

private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> F)
      : Flag(std::move(F)) {}

  std::shared_ptr<const std::atomic<bool>> Flag;
};

/// Write side of a cancellation flag. The source keeps the flag alive;
/// tokens extend its lifetime, so a source may be destroyed while solves
/// holding its tokens are still draining.
class CancellationSource {
public:
  CancellationSource() : Flag(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation. Idempotent; safe from any thread.
  void cancel() { Flag->store(true, std::memory_order_release); }

  /// True once cancel() has been called.
  bool cancelled() const { return Flag->load(std::memory_order_acquire); }

  /// Returns a token observing this source.
  CancellationToken token() const { return CancellationToken(Flag); }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

} // namespace modsched

#endif // MODSCHED_SUPPORT_CANCELLATION_H
