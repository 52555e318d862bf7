//===- tests/TextioTest.cpp - .ddg parser/printer tests --------------------===//

#include "textio/DdgFormat.h"
#include "textio/LpWriter.h"
#include "textio/OpbFormat.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace modsched;

TEST(DdgFormat, ParsesMinimalLoop) {
  MachineModel M = MachineModel::example3();
  std::string Text = R"(# a comment
loop tiny
op ld load
op st store
flow ld st latency=1 omega=0
)";
  std::string Error;
  auto G = parseDdg(Text, M, &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->name(), "tiny");
  EXPECT_EQ(G->numOperations(), 2);
  EXPECT_EQ(G->numSchedEdges(), 1);
  EXPECT_EQ(G->numRegisters(), 1);
}

TEST(DdgFormat, EdgeDoesNotCreateRegister) {
  MachineModel M = MachineModel::example3();
  std::string Text = "op a add\nop b add\nedge a b latency=1 omega=1\n";
  auto G = parseDdg(Text, M);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->numRegisters(), 0);
}

TEST(DdgFormat, ReportsUnknownClass) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(parseDdg("op a warp\n", M, &Error).has_value());
  EXPECT_NE(Error.find("unknown operation class"), std::string::npos);
  EXPECT_NE(Error.find("line 1"), std::string::npos);
}

TEST(DdgFormat, ReportsUnknownOperation) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(
      parseDdg("op a add\nflow a ghost latency=1 omega=0\n", M, &Error)
          .has_value());
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

TEST(DdgFormat, ReportsMalformedNumbers) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(
      parseDdg("op a add\nop b add\nflow a b latency=x omega=0\n", M, &Error)
          .has_value());
  EXPECT_NE(Error.find("malformed"), std::string::npos);
}

TEST(DdgFormat, RejectsNegativeOmega) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(
      parseDdg("op a add\nop b add\nedge a b latency=1 omega=-1\n", M,
               &Error)
          .has_value());
}

TEST(DdgFormat, RejectsDuplicateOpNames) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(parseDdg("op a add\nop a add\n", M, &Error).has_value());
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(DdgFormat, LoadsFromFile) {
  MachineModel M = MachineModel::example3();
  std::string Path = ::testing::TempDir() + "/tiny.ddg";
  {
    std::ofstream Out(Path);
    Out << "loop filetest\nop a add\nop b add\n"
           "flow a b latency=1 omega=0\n";
  }
  std::string Error;
  auto G = loadDdgFile(Path, M, &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->name(), "filetest");
  EXPECT_EQ(G->numOperations(), 2);
}

TEST(DdgFormat, LoadMissingFileReportsError) {
  MachineModel M = MachineModel::example3();
  std::string Error;
  EXPECT_FALSE(loadDdgFile("/nonexistent/nowhere.ddg", M, &Error)
                   .has_value());
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

TEST(LpWriter, EmitsAllSections) {
  lp::Model M;
  int X = M.addVariable("x", 0, 4, 2.0, lp::VarKind::Integer);
  int Y = M.addVariable("y", -lp::infinity(), lp::infinity(), -1.0);
  M.addConstraint({{X, 1.0}, {Y, -2.0}}, lp::ConstraintSense::LE, 3.0);
  M.addConstraint({{Y, 1.0}}, lp::ConstraintSense::EQ, 1.0);
  std::string Text = writeLpFormat(M);
  EXPECT_NE(Text.find("Minimize"), std::string::npos);
  EXPECT_NE(Text.find("Subject To"), std::string::npos);
  EXPECT_NE(Text.find("Bounds"), std::string::npos);
  EXPECT_NE(Text.find("Generals"), std::string::npos);
  EXPECT_NE(Text.find("End"), std::string::npos);
  EXPECT_NE(Text.find("v0_x"), std::string::npos);
  EXPECT_NE(Text.find("free"), std::string::npos);
  EXPECT_NE(Text.find("<= 3"), std::string::npos);
}

TEST(LpWriter, NoGeneralsWithoutIntegers) {
  lp::Model M;
  M.addVariable("x", 0, 1, 1.0);
  std::string Text = writeLpFormat(M);
  EXPECT_EQ(Text.find("Generals"), std::string::npos);
}

TEST(LpWriter, SanitizesNames) {
  lp::Model M;
  int X = M.addVariable("a r0_weird-name!", 0, 1, 1.0);
  M.addConstraint({{X, 1.0}}, lp::ConstraintSense::GE, 0.0);
  std::string Text = writeLpFormat(M);
  EXPECT_NE(Text.find("v0_a_r0_weird_name_"), std::string::npos);
}

TEST(LpWriter, FormulationExportsCleanly) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  FormulationOptions Opts;
  Opts.Obj = Objective::MinReg;
  Formulation F(G, M, 2, Opts);
  ASSERT_TRUE(F.valid());
  std::string Text = writeLpFormat(F.model());
  // Every constraint appears once.
  size_t Count = 0, Pos = 0;
  while ((Pos = Text.find("\n c", Pos)) != std::string::npos) {
    ++Count;
    ++Pos;
  }
  EXPECT_EQ(Count, static_cast<size_t>(F.model().numConstraints()));
}

TEST(DdgFormat, RoundTripsAllKernels) {
  MachineModel M = MachineModel::cydraLike();
  for (const DependenceGraph &G : allKernels(M)) {
    std::string Text = printDdg(G, M);
    std::string Error;
    auto Parsed = parseDdg(Text, M, &Error);
    ASSERT_TRUE(Parsed.has_value()) << G.name() << ": " << Error;
    EXPECT_EQ(Parsed->numOperations(), G.numOperations()) << G.name();
    EXPECT_EQ(Parsed->numSchedEdges(), G.numSchedEdges()) << G.name();
    EXPECT_EQ(Parsed->numRegisters(), G.numRegisters()) << G.name();
    // Second round trip must be a fixpoint.
    EXPECT_EQ(printDdg(*Parsed, M), Text) << G.name();
  }
}

//===----------------------------------------------------------------------===//
// OPB pseudo-Boolean format
//===----------------------------------------------------------------------===//

TEST(OpbFormat, EmitsHeaderObjectiveAndRows) {
  pb::Solver S;
  pb::Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause({pb::posLit(A), pb::posLit(B)});
  S.addAtLeast({pb::negLit(A), pb::negLit(B), pb::negLit(C)}, 2);
  S.addLinear({{pb::posLit(A), 3}, {pb::posLit(C), 2}}, 4);
  std::string Text =
      writeOpbFormat(S, {{pb::posLit(C), 1}}, /*ObjectiveConstant=*/5);
  EXPECT_NE(Text.find("* #variable= 3 #constraint= 3"), std::string::npos);
  EXPECT_NE(Text.find("* objective constant 5"), std::string::npos);
  EXPECT_NE(Text.find("min: +1 x3 ;"), std::string::npos);
  EXPECT_NE(Text.find("+1 x1 +1 x2 >= 1 ;"), std::string::npos);
  // Negated literals are folded into variable form: sum ~x >= 2 over
  // three literals becomes -x1 -x2 -x3 >= -1.
  EXPECT_NE(Text.find("-1 x1 -1 x2 -1 x3 >= -1 ;"), std::string::npos);
  EXPECT_NE(Text.find("+3 x1 +2 x3 >= 4 ;"), std::string::npos);
}

TEST(OpbFormat, ParseNormalizesRelationsAndLiterals) {
  std::string Error;
  auto P = parseOpbFormat("* a comment\n"
                          "+2 x1 -3 x2 >= 1 ;\n"
                          "+1 ~x1 +1 x3 >= 1 ;\n"
                          "+1 x1 +1 x2 <= 1 ;\n"
                          "+1 x1 = 1 ;\n",
                          &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  EXPECT_EQ(P->NumVars, 3);
  // ">=" with a negative coefficient: -3 x2 becomes +3 ~x2, degree 4.
  ASSERT_EQ(P->Rows.size(), 5u); // "=" expands to two rows.
  EXPECT_EQ(P->Rows[0].Degree, 4);
  EXPECT_EQ(P->Rows[0].Terms[1].first, pb::negLit(1));
  EXPECT_EQ(P->Rows[0].Terms[1].second, 3);
  // "~x1" parses as a negated literal directly.
  EXPECT_EQ(P->Rows[1].Terms[0].first, pb::negLit(0));
  EXPECT_EQ(P->Rows[1].Degree, 1);
  // "<=" flips into ">=": x1 + x2 <= 1 becomes ~x1 + ~x2 >= 1.
  EXPECT_EQ(P->Rows[2].Degree, 1);
  EXPECT_EQ(P->Rows[2].Terms[0].first, pb::negLit(0));
  EXPECT_EQ(P->Rows[2].Terms[1].first, pb::negLit(1));
}

TEST(OpbFormat, ParseReportsMalformedInput) {
  const std::pair<const char *, const char *> Cases[] = {
      {"+1 y1 >= 1 ;", "malformed literal 'y1'"},
      {"+1 x1 >= ;", "malformed right-hand side"},
      {"+1 x1 >= 1", "constraint not terminated by ';'"},
      {"bogus x1 >= 1 ;", "malformed coefficient 'bogus'"},
      {"+1 x1 ;", "constraint without relation"},
      // Integer overflow and narrowing: an index past INT_MAX must not
      // wrap onto a small variable, INT64_MIN has no negation, and the
      // folded ~x constants must not overflow.
      {"1 x4294967297 >= 1 ;", "variable index out of range 'x4294967297'"},
      {"-9223372036854775808 x1 >= 0 ;",
       "coefficient out of range '-9223372036854775808'"},
      {"9223372036854775807 ~x1 +9223372036854775807 ~x2 >= 0 ;",
       "constant term overflows int64"},
      {"1 x1 <= -9223372036854775808 ;", "degree overflows int64"},
      {"-9223372036854775807 x1 >= 9223372036854775807 ;",
       "degree overflows int64"},
  };
  for (const auto &[Text, Expected] : Cases) {
    std::string Error;
    EXPECT_FALSE(parseOpbFormat(Text, &Error).has_value()) << Text;
    EXPECT_EQ(Error, Expected) << Text;
  }
}

TEST(OpbFormat, SchedulingModelRoundTrips) {
  // write -> parse recovers the PB scheduling model rows exactly as
  // pb::Solver exports them (order, literals, coefficients, degrees) —
  // the same fixpoint contract DdgFormat::RoundTripsAllKernels checks.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  FormulationOptions Opts;
  Opts.Obj = Objective::MinReg;
  PbFormulation F(G, M, 2, Opts);
  ASSERT_TRUE(F.valid());
  std::string Text = writeOpbFormat(F.solver(), F.objectiveTerms(),
                                    F.objectiveConstant());
  std::string Error;
  auto P = parseOpbFormat(Text, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  EXPECT_EQ(P->NumVars, F.solver().numVars());
  EXPECT_TRUE(P->HasObjective);
  EXPECT_EQ(P->ObjectiveConstant, F.objectiveConstant());
  ASSERT_EQ(P->Objective.size(), F.objectiveTerms().size());
  for (size_t I = 0; I < P->Objective.size(); ++I) {
    EXPECT_EQ(P->Objective[I].first, F.objectiveTerms()[I].first);
    EXPECT_EQ(P->Objective[I].second, F.objectiveTerms()[I].second);
  }
  const std::vector<pb::ExportRow> &Rows = F.solver().exportRows();
  ASSERT_EQ(P->Rows.size(), Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I) {
    EXPECT_EQ(P->Rows[I].Degree, Rows[I].Degree) << "row " << I;
    ASSERT_EQ(P->Rows[I].Terms.size(), Rows[I].Terms.size()) << "row " << I;
    for (size_t J = 0; J < Rows[I].Terms.size(); ++J) {
      EXPECT_EQ(P->Rows[I].Terms[J].first, Rows[I].Terms[J].first)
          << "row " << I << " term " << J;
      EXPECT_EQ(P->Rows[I].Terms[J].second, Rows[I].Terms[J].second)
          << "row " << I << " term " << J;
    }
  }
  // Writing the parsed problem again is a fixpoint.
  OpbProblem Again = *P;
  EXPECT_EQ(writeOpbFormat(Again), Text);
}

//===----------------------------------------------------------------------===//
// Pinned .ddg parser behaviour: accept/reject and the exact error text
//===----------------------------------------------------------------------===//

namespace {

/// One pinned parseDdg case: the input, and either the expected printDdg
/// rendering of the accepted graph or the exact error string.
struct DdgPin {
  const char *Name;
  std::string Text;
  bool Accept;
  std::string Expected;
};

const char *const TwoOps = "op a add\nop b add\n";

std::string edgeLine(const std::string &Latency, const std::string &Omega) {
  return std::string(TwoOps) + "edge a b latency=" + Latency +
         " omega=" + Omega + "\n";
}

} // namespace

TEST(DdgFormat, PinnedAcceptRejectAndErrors) {
  const std::string Chain = "loop loop\nop a add\nop b add\n"
                            "flow a b latency=1 omega=0\n";
  const DdgPin Pins[] = {
      // Line endings and whitespace.
      {"crlf", "loop t\r\nop a add\r\nop b add\r\nflow a b latency=1 "
               "omega=0\r\n",
       true, "loop t\nop a add\nop b add\nflow a b latency=1 omega=0\n"},
      {"tabs", "op\ta\tadd\nop b\t\tadd\nflow\ta b\tlatency=1 omega=0\n",
       true, Chain},
      {"vt and ff", "op\va\fadd\nop b add\nflow a\fb latency=1\vomega=0\n",
       true, Chain},
      {"blank and whitespace-only lines",
       "\n   \n\t\nop a add\n \r\n\v\f\nop b add\nflow a b latency=1 "
       "omega=0\n\n",
       true, Chain},
      {"no final newline", "op a add\nop b add\nflow a b latency=1 omega=0",
       true, Chain},
      {"empty text", "", true, "loop loop\n"},
      {"error line counts blank lines", "\n\n# c\n\nop a warp\n", false,
       "line 5: unknown operation class warp"},
      {"crlf error line", "op a add\r\nop a add\r\n", false,
       "line 2: duplicate operation name a"},
      // Comments.
      {"leading comment", "# header\n#\n  # indented\nop a add\nop b add\n"
                          "flow a b latency=1 omega=0\n",
       true, Chain},
      {"mid-line comment", "op a add # trailing words\nop b add #\n"
                           "flow a b latency=1 omega=0 #x y z\n",
       true, Chain},
      {"comment hides extra tokens", "loop t #x extra\n", true, "loop t\n"},
      {"hash inside token", "op a#b add\nop c add\n"
                            "edge a#b c latency=1 omega=0\n",
       true, "loop loop\nop a#b add\nop c add\n"
             "edge a#b c latency=1 omega=0\n"},
      {"hash inside class token", "op a add#x\n", false,
       "line 1: unknown operation class add#x"},
      {"comment cuts arity", "op a # add\n", false,
       "line 1: expected: op <name> <class>"},
      // Integers.
      {"plus latency", edgeLine("+5", "0"), true,
       "loop loop\nop a add\nop b add\nedge a b latency=5 omega=0\n"},
      {"negative latency", edgeLine("-3", "0"), true,
       "loop loop\nop a add\nop b add\nedge a b latency=-3 omega=0\n"},
      {"plus omega", edgeLine("0", "+2"), true,
       "loop loop\nop a add\nop b add\nedge a b latency=0 omega=2\n"},
      {"leading zeros", edgeLine("007", "-0"), true,
       "loop loop\nop a add\nop b add\nedge a b latency=7 omega=0\n"},
      {"int max and min", edgeLine("-2147483648", "2147483647"), true,
       "loop loop\nop a add\nop b add\n"
       "edge a b latency=-2147483648 omega=2147483647\n"},
      {"negative omega", edgeLine("1", "-1"), false,
       "line 3: omega must be non-negative"},
      {"hex latency", edgeLine("0x10", "0"), false,
       "line 3: malformed latency/omega"},
      {"empty latency", edgeLine("", "0"), false,
       "line 3: malformed latency/omega"},
      {"empty omega", edgeLine("1", ""), false,
       "line 3: malformed latency/omega"},
      {"huge latency", edgeLine("99999999999", "0"), false,
       "line 3: malformed latency/omega"},
      {"int max plus one", edgeLine("2147483648", "0"), false,
       "line 3: malformed latency/omega"},
      {"int min minus one", edgeLine("-2147483649", "0"), false,
       "line 3: malformed latency/omega"},
      {"plus minus", edgeLine("+-5", "0"), false,
       "line 3: malformed latency/omega"},
      {"double plus", edgeLine("++5", "0"), false,
       "line 3: malformed latency/omega"},
      {"bare sign", edgeLine("-", "+"), false,
       "line 3: malformed latency/omega"},
      {"partly consumed", edgeLine("5x", "0"), false,
       "line 3: malformed latency/omega"},
      {"decimal", edgeLine("1.0", "0"), false,
       "line 3: malformed latency/omega"},
      {"swapped keys", std::string(TwoOps) + "edge a b omega=0 latency=1\n",
       false, "line 3: malformed latency/omega"},
      {"key case", std::string(TwoOps) + "edge a b LATENCY=1 omega=0\n",
       false, "line 3: malformed latency/omega"},
      {"malformed before negative omega",
       std::string(TwoOps) + "edge a b latency=x omega=-1\n", false,
       "line 3: malformed latency/omega"},
      // Names and directives.
      {"duplicate op", "op a add\nop b mul\nop a sub\n", false,
       "line 3: duplicate operation name a"},
      {"duplicate op before class check", "op a add\nop a warp\n", false,
       "line 2: duplicate operation name a"},
      {"unknown class", "op a warp\n", false,
       "line 1: unknown operation class warp"},
      {"unknown src", "op a add\nflow ghost a latency=1 omega=0\n", false,
       "line 2: unknown operation in edge"},
      {"unknown dst", "op a add\nedge a ghost latency=1 omega=0\n", false,
       "line 2: unknown operation in edge"},
      {"unknown op before bad numbers", "op a add\nedge a ghost x y\n",
       false, "line 2: unknown operation in edge"},
      {"op used before defined",
       "op a add\nflow a b latency=1 omega=0\nop b add\n", false,
       "line 2: unknown operation in edge"},
      {"self edge", "op a add\nflow a a latency=1 omega=1\n", true,
       "loop loop\nop a add\nflow a a latency=1 omega=1\n"},
      // Dependence cycles: one of total distance 0 has no schedule at
      // any II, so the parser rejects it rather than hand it on.
      {"zero-distance cycle",
       std::string(TwoOps) + "edge a b latency=1 omega=0\n"
                             "edge b a latency=1 omega=0\n",
       false, "line 4: zero-distance dependence cycle: loop is unschedulable"},
      {"zero-distance self edge",
       "op a add\nflow a a latency=0 omega=0\n# end\n", false,
       "line 3: zero-distance dependence cycle: loop is unschedulable"},
      {"cycle with distance",
       std::string(TwoOps) + "edge a b latency=1 omega=0\n"
                             "edge b a latency=1 omega=1\n",
       true,
       "loop loop\nop a add\nop b add\nedge a b latency=1 omega=0\n"
       "edge b a latency=1 omega=1\n"},
      {"loop arity", "loop\n", false, "line 1: expected: loop <name>"},
      {"loop extra", "loop a b\n", false, "line 1: expected: loop <name>"},
      {"op arity", "op a add x\n", false,
       "line 1: expected: op <name> <class>"},
      {"flow arity", "op a add\nflow a a latency=1\n", false,
       "line 2: expected: flow <src> <dst> latency=<l> omega=<w>"},
      {"edge arity", "edge a b latency=1 omega=0 extra\n", false,
       "line 1: expected: edge <src> <dst> latency=<l> omega=<w>"},
      {"unknown directive", "frob x y\n", false,
       "line 1: unknown directive frob"},
      {"directive case", "OP a add\n", false,
       "line 1: unknown directive OP"},
      {"later loop name wins", "loop x\nloop y\n", true, "loop y\n"},
      {"error text is capped at 255 bytes",
       "op a " + std::string(300, 'k') + "\n", false,
       "line 1: unknown operation class " + std::string(223, 'k')},
  };
  MachineModel M = MachineModel::example3();
  for (const DdgPin &P : Pins) {
    std::string Error;
    std::optional<DependenceGraph> G = parseDdg(P.Text, M, &Error);
    ASSERT_EQ(G.has_value(), P.Accept) << P.Name << ": " << Error;
    if (P.Accept) {
      EXPECT_EQ(printDdg(*G, M), P.Expected) << P.Name;
    } else {
      EXPECT_EQ(Error, P.Expected) << P.Name;
    }
  }
}

TEST(DdgFormat, PinnedFlowAndEdgeStructure) {
  // A flow line is a sched edge plus a register use; an edge line is
  // only the sched edge. Parallel flow/edge pairs keep their order.
  MachineModel M = MachineModel::example3();
  std::string Error;
  auto G = parseDdg("op a add\nop b add\n"
                    "edge a b latency=2 omega=0\n"
                    "flow a b latency=1 omega=0\n"
                    "flow a b latency=3 omega=1\n"
                    "flow b a latency=1 omega=2\n",
                    M, &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  ASSERT_EQ(G->numSchedEdges(), 4);
  EXPECT_EQ(G->schedEdges()[0].Latency, 2);
  EXPECT_EQ(G->schedEdges()[3].Distance, 2);
  ASSERT_EQ(G->numRegisters(), 2);
  EXPECT_EQ(G->registers()[0].Def, 0);
  ASSERT_EQ(G->registers()[0].Uses.size(), 2u);
  EXPECT_EQ(G->registers()[0].Uses[1].Distance, 1);
  EXPECT_EQ(G->registers()[1].Def, 1);
}
