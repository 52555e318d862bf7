//===- workloads/SyntheticGenerator.h - Random loop DDGs --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random dependence-graph generator standing in for the paper's
/// 1327 Fortran loops (Perfect Club, SPEC-89, Livermore) compiled by the
/// Cydra 5 compiler. The generator is calibrated to the paper's reported
/// loop-size distribution: many small loops (median N = 9 in Table 1), a
/// long tail of larger ones, a moderate rate of loop-carried recurrences,
/// and dependence distances mostly 1 with occasional larger values.
///
/// Every generated graph is a valid loop body: flow dependences only go
/// from lower-indexed to higher-indexed operations within an iteration
/// (so all same-iteration cycles are impossible), and loop-carried
/// dependences have distance >= 1 (so no zero-distance cycle exists).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_WORKLOADS_SYNTHETICGENERATOR_H
#define MODSCHED_WORKLOADS_SYNTHETICGENERATOR_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <vector>

namespace modsched {

/// Size/shape knobs of the generator.
struct SyntheticOptions {
  /// Smallest and largest loop body.
  int MinOps = 3;
  int MaxOps = 24;
  /// Probability that an operation consumes a second same-iteration
  /// operand.
  double SecondOperandProb = 0.5;
  /// Probability that a loop gets at least one loop-carried recurrence.
  double RecurrenceProb = 0.45;
  /// Probability that a use reads the previous iteration's value
  /// (cross-iteration use that does not necessarily close a cycle).
  double CrossIterationUseProb = 0.08;
  /// Largest dependence distance.
  int MaxDistance = 3;
  /// Fraction of operations that are stores (sinks).
  double StoreFraction = 0.18;
  /// Fraction of operations that are loads (pure sources).
  double LoadFraction = 0.3;
};

/// Generates one random loop with the given \p Rng stream.
DependenceGraph generateLoop(const MachineModel &M, Rng &R,
                             const SyntheticOptions &Opts = {});

/// Generates a whole benchmark suite of \p Count loops mixing three size
/// bands (small/medium/large) in proportions mimicking the paper's
/// distribution, deterministically from \p Seed. The hand-written kernel
/// library is prepended when \p IncludeKernels is set. \p LargeCap
/// (>= 3) caps every band's loop size.
std::vector<DependenceGraph> generateSuite(const MachineModel &M, int Count,
                                           uint64_t Seed,
                                           bool IncludeKernels = true,
                                           int LargeCap = 40);

} // namespace modsched

#endif // MODSCHED_WORKLOADS_SYNTHETICGENERATOR_H
