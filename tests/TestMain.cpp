//===- tests/TestMain.cpp - Test entry point with a scheduler variant -----===//
//
// main() of every test binary. After gtest has taken its own flags, the
// command line may name the scheduler variant of test::variantOptions():
//
//   --backend=ilp|pb|portfolio   exact engine (default ilp)
//   --cache                      consult the process-wide solution cache
//
// tests/CMakeLists.txt registers a suite once per variant, so every
// backend and the cache run as separate ctest entries. Any other
// argument is an error: a misspelled variant must not quietly run the
// default one.
//
//===----------------------------------------------------------------------===//

#include "TestVariant.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace modsched;

namespace {

SchedulerOptions Variant;

} // namespace

SchedulerOptions test::variantOptions() { return Variant; }

int main(int Argc, char **Argv) {
  ::testing::InitGoogleTest(&Argc, Argv);
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--backend=", 10) == 0) {
      if (std::optional<SchedulerBackend> B =
              parseSchedulerBackend(Arg + 10)) {
        Variant.Backend = *B;
        continue;
      }
    } else if (std::strcmp(Arg, "--cache") == 0) {
      Variant.Cache = true;
      continue;
    }
    std::fprintf(stderr,
                 "%s: unknown argument '%s' (want --backend=ilp|pb|portfolio "
                 "or --cache)\n",
                 Argv[0], Arg);
    return 2;
  }
  std::printf("scheduler variant: backend=%s cache=%s\n",
              toString(Variant.Backend), Variant.Cache ? "on" : "off");
  return RUN_ALL_TESTS();
}
