//===- bench/table1_structured.cpp - Reproduces Table 1 -------------------===//
//
// Paper Table 1: "Measurements with structured scheduling constraints" —
// min / freq-of-min / median / average / max of variables, constraints,
// branch-and-bound nodes, simplex iterations, II, and N for each of the
// four schedulers over the loops it solved within budget.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace modsched;
using namespace modsched::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnv();
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite = benchSuite(M, Config);
  std::printf("Table 1: measurements with STRUCTURED scheduling "
              "constraints (suite: %zu loops, %.1fs/loop, backend=%s)\n\n",
              Suite.size(), Config.TimeLimitSeconds,
              toString(Config.Backend));

  BenchJson Json("table1_structured");
  Json.setConfig(Config);

  const Objective Objs[] = {Objective::None, Objective::MinBuff,
                            Objective::MinLife, Objective::MinReg};
  const char *Names[] = {"NoObj Modulo-Sched", "MinBuff Modulo-Sched",
                         "MinLife Modulo-Sched", "MinReg Modulo-Sched"};
  for (int O = 0; O < 4; ++O) {
    std::fprintf(stderr, "running %s...\n", Names[O]);
    std::vector<LoopRecord> Records =
        runOptimal(M, Suite, Objs[O], DependenceStyle::Structured, Config);
    printPaperTableBlock(Names[O], Records);
    printPortfolioSummary(Names[O], Records);
    Json.addMetric(std::string("solved_") + toString(Objs[O]),
                   countSolved(Records));
    Json.addRecordSet(Names[O], std::move(Records));
  }
  Json.write();
  return 0;
}
