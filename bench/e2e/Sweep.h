//===- bench/e2e/Sweep.h - Fresh-solve sweep workloads ----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sweep-ilp and sweep-pb: the paper's system called the way a compiler
/// calls it. One thread makes one OptimalModuloScheduler::schedule call
/// per record (a suite loop under one of the four objectives), cache and
/// explanations off, Sequential II search, a deterministic node budget
/// (ILP: 200 B&B nodes, PB: 20000 conflicts) and a 30 s wall-clock
/// limit that must never bind. Both sweeps solve the same records, so an
/// encoding change that helps one backend and hurts the other shows.
///
/// The work is fixed for a given --seconds (the loop count scales with
/// it), so node, iteration and conflict counts repeat exactly. The
/// records run in several passes, each of which must reproduce the first;
/// a record's time is its fastest pass.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_SWEEP_H
#define MODSCHED_BENCH_E2E_SWEEP_H

#include "Bench.h"
#include "Suite.h"

#include "ilpsched/OptimalScheduler.h"

namespace e2e {

/// Scheduler options of every solve in the benchmark (the service
/// requests carry the same budgets in their frame headers).
modsched::SchedulerOptions solveOptions(modsched::SchedulerBackend Backend,
                                        modsched::Objective Obj);

/// Suite loops a sweep of \p Seconds schedules.
int sweepLoopCount(double Seconds);

/// Runs sweep-ilp (\p Backend Ilp) or sweep-pb (Pb).
RunResult runSweep(const RunOptions &O, modsched::SchedulerBackend Backend);

/// Sweep loops the expected files pin. Every sweep's loop list starts
/// with the same loops, so a run of any size checks against a prefix.
inline constexpr int PinnedSweepLoops = 48;

/// Every record of the first PinnedSweepLoops sweep loops on suite
/// \p SuiteSeed (verdicts left for the caller), for writing or checking
/// an expected file.
ExpectedInputs sweepInputs(uint64_t SuiteSeed);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_SWEEP_H
