//===- bench/e2e/ServiceLoad.h - Service replay workload --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// service-replay: a closed-loop client (it waits for each reply before
/// sending the next frame, as a compiler does) talking to an in-process
/// service::Server with 2 workers, a 64-deep admission queue, the
/// solution cache on and the ILP backend. Frames carry inline MACHINE and
/// DDG payloads.
///
/// Set-up solves a pool of suite loops (each under a fixed objective)
/// and precomputes 8 random relabelings per entry. Then the client sends
/// zipf(1.1) replays of the pool for --seconds, sharing one CPU with the
/// server's workers: framing, textio parsing, canonical labeling, cache
/// lookup, re-verify and the reply do all the work; the solvers sit
/// idle.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_SERVICELOAD_H
#define MODSCHED_BENCH_E2E_SERVICELOAD_H

#include "Bench.h"
#include "Suite.h"

namespace e2e {

RunResult runServiceReplay(const RunOptions &O);

/// The pool entries of a full-size run on suite \p SuiteSeed (verdicts
/// left for the caller), for writing or checking an expected file.
ExpectedInputs serviceInputs(uint64_t SuiteSeed);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_SERVICELOAD_H
