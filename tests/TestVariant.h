//===- tests/TestVariant.h - Scheduler variant of a test run ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler variant one test process runs under, named on its
/// command line (tests/TestMain.cpp) and registered per suite as its own
/// ctest entry (tests/CMakeLists.txt). Suites that should run under
/// every backend, or with the solution cache on, build their options
/// from variantOptions() instead of a default SchedulerOptions.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_TESTS_TESTVARIANT_H
#define MODSCHED_TESTS_TESTVARIANT_H

#include "ilpsched/OptimalScheduler.h"

namespace modsched::test {

/// Default SchedulerOptions with this process's variant applied: the
/// Backend named by --backend=ilp|pb|portfolio (ilp when absent) and
/// Cache on under --cache.
SchedulerOptions variantOptions();

} // namespace modsched::test

#endif // MODSCHED_TESTS_TESTVARIANT_H
