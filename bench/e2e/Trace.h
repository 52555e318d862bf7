//===- bench/e2e/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer
/// (nothing inside src/ is instrumented). A span has a name, start, end,
/// the span that caused it, and the id of the record or frame it serves.
/// Spans stay in memory and are written at exit as a Chrome trace; a
/// layer's self time is its spans' duration minus the part their child
/// spans cover. Disabled, a Tracer records nothing and reads no clock.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_TRACE_H
#define MODSCHED_BENCH_E2E_TRACE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
public:
  struct Span {
    const char *Name = "";
    double StartUs = 0.0;
    double EndUs = 0.0;
    int Parent = -1; ///< Index of the enclosing span, -1 for a root.
    int64_t RequestId = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when disabled. \p Name must outlive the tracer.
  int begin(const char *Name, int64_t RequestId);

  /// Closes span \p Index (the innermost open one).
  void end(int Index);

  /// Self time in microseconds summed per span name; roots included.
  std::map<std::string, double> selfTimeUs() const;

  /// Summed duration in microseconds of the root spans.
  double rootTimeUs() const;

  /// Number of spans per name.
  std::map<std::string, int64_t> spanCounts() const;

  /// Root spans whose own self time (time no child layer covers)
  /// exceeds \p Fraction of their duration.
  int64_t rootsUnattributedAbove(double Fraction) const;

  /// Writes the spans as a Chrome trace_event JSON file ("X" events,
  /// args: request id, parent index, self time) with the per-name self
  /// times under "otherData". False when the file cannot be written.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Workload) const;

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  bool Enabled;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  /// A deque, so that growing it never copies spans inside a timed
  /// interval.
  std::deque<Span> Spans;
  std::vector<int> Open;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, int64_t RequestId)
      : T(T), Index(T.begin(Name, RequestId)) {}
  ~SpanScope() { T.end(Index); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_TRACE_H
