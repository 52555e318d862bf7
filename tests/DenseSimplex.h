//===- tests/DenseSimplex.h - Cold dense tableau LP oracle ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference engine of the LP differential tests (LpTest,
/// SparseSimplexTest). It is an explicit m x n tableau (O(m*n) per
/// pivot) running a cold two-phase bounded-variable primal simplex on
/// every solve, under the same conventions, tolerances and Bland
/// fallback as lp::SimplexSolver (lp/Simplex.h), but sharing none of
/// its linear algebra: no sparse matrix, no LU factorization, no eta
/// file, no warm start and no basis export. It lives in tests/ only;
/// nothing in the library links it.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_TESTS_DENSESIMPLEX_H
#define MODSCHED_TESTS_DENSESIMPLEX_H

#include "lp/Model.h"
#include "lp/Simplex.h"

#include <vector>

namespace modsched::test {

/// Cold-only dense tableau simplex with SimplexSolver's entry points.
/// Reads only SimplexOptions::MaxIterations.
class DenseSimplex {
public:
  explicit DenseSimplex(lp::SimplexOptions Options = {}) : Opts(Options) {}

  /// Solves \p M (a minimization LP; integrality flags are ignored).
  lp::LpResult solve(const lp::Model &M);

  /// Solves \p M with the variable bounds replaced by \p Lower /
  /// \p Upper. An empty bound interval reports Infeasible without a
  /// pivot. \p Ctx, when non-null, supplies a deadline and a
  /// cancellation token, polled every 64 pivots (both report
  /// LpStatus::IterationLimit); its workspace is not used. The result
  /// never carries a FinalBasis and never reports WarmStarted.
  lp::LpResult solve(const lp::Model &M, const std::vector<double> &Lower,
                     const std::vector<double> &Upper,
                     const lp::SolveContext *Ctx = nullptr);

private:
  lp::SimplexOptions Opts;
};

} // namespace modsched::test

#endif // MODSCHED_TESTS_DENSESIMPLEX_H
