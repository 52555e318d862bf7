//===- tests/ParserFuzzTest.cpp - Deterministic parser fuzzing ------------===//
//
// Mutation fuzzing of every text parser a request reaches: machine
// descriptions (textio/MachineFormat), loops (textio/DdgFormat) and
// service frames (service/Protocol), plus the OPB model exchange format
// (textio/OpbFormat). Valid seed texts are mutated with
// byte flips, line drops and duplicates, truncation and token swaps
// under a fixed seed and a fixed iteration budget, so a failure
// reproduces exactly. The properties:
//
//   * no parser aborts (assertions are ON in every build type);
//   * readFrame honours ProtocolLimits on every frame it accepts and
//     always reaches EOF;
//   * every accepted machine and DDG round-trips through
//     printMachine / printDdg and back to an equal structure, and every
//     accepted OPB problem through writeOpbFormat.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/PbFormulation.h"
#include "machine/MachineModel.h"
#include "service/Protocol.h"
#include "support/Rng.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "textio/OpbFormat.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace modsched;
using namespace modsched::service;

namespace {

constexpr uint64_t FuzzSeed = 0x5eed2026;
constexpr int MachineIterations = 10000;
constexpr int DdgIterations = 10000;
constexpr int FrameIterations = 6000;
constexpr int OpbIterations = 6000;

/// Bytes that matter to the grammars, plus a NUL and a high byte.
const char FlipBytes[] = {' ',  '\t', '\n', '\r', '\v', '\f', '#', '@',
                          ',',  '=',  '-',  '+',  '0',  '1',  '9', 'x',
                          'a',  'E',  'N',  'D',  '\0', '\xff'};

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::string Line;
  std::istringstream In(Text);
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// Swaps two whitespace-separated tokens anywhere in \p Text.
std::string swapTokens(const std::string &Text, Rng &R) {
  std::vector<std::pair<size_t, size_t>> Toks; // (begin, length)
  for (size_t I = 0; I < Text.size();) {
    if (std::isspace(static_cast<unsigned char>(Text[I]))) {
      ++I;
      continue;
    }
    size_t B = I;
    while (I < Text.size() &&
           !std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
    Toks.push_back({B, I - B});
  }
  if (Toks.size() < 2)
    return Text;
  size_t A = R.nextBelow(Toks.size()), B = R.nextBelow(Toks.size());
  if (A > B)
    std::swap(A, B);
  if (A == B)
    return Text;
  auto [AB, AL] = Toks[A];
  auto [BB, BL] = Toks[B];
  return Text.substr(0, AB) + Text.substr(BB, BL) +
         Text.substr(AB + AL, BB - AB - AL) + Text.substr(AB, AL) +
         Text.substr(BB + BL);
}

/// One to three random mutations of \p Text.
std::string mutate(std::string Text, Rng &R) {
  int Rounds = 1 + static_cast<int>(R.nextBelow(3));
  for (int Round = 0; Round < Rounds; ++Round) {
    switch (R.nextBelow(6)) {
    case 0: // Byte flip.
    case 1:
      if (!Text.empty())
        Text[R.nextBelow(Text.size())] =
            FlipBytes[R.nextBelow(sizeof(FlipBytes))];
      break;
    case 2: { // Line drop.
      std::vector<std::string> Lines = splitLines(Text);
      if (!Lines.empty())
        Lines.erase(Lines.begin() + R.nextBelow(Lines.size()));
      Text = joinLines(Lines);
      break;
    }
    case 3: { // Line duplicate.
      std::vector<std::string> Lines = splitLines(Text);
      if (!Lines.empty()) {
        size_t I = R.nextBelow(Lines.size());
        Lines.insert(Lines.begin() + R.nextBelow(Lines.size() + 1), Lines[I]);
      }
      Text = joinLines(Lines);
      break;
    }
    case 4: // Truncation.
      Text.resize(R.nextBelow(Text.size() + 1));
      break;
    default:
      Text = swapTokens(Text, R);
      break;
    }
  }
  return Text;
}

bool sameMachine(const MachineModel &A, const MachineModel &B) {
  if (A.name() != B.name() || A.numResources() != B.numResources() ||
      A.numOpClasses() != B.numOpClasses())
    return false;
  for (int I = 0; I < A.numResources(); ++I)
    if (A.resource(I).Name != B.resource(I).Name ||
        A.resource(I).Count != B.resource(I).Count)
      return false;
  for (int C = 0; C < A.numOpClasses(); ++C) {
    const OpClass &X = A.opClass(C), &Y = B.opClass(C);
    if (X.Name != Y.Name || X.Latency != Y.Latency ||
        X.Usages.size() != Y.Usages.size())
      return false;
    for (size_t U = 0; U < X.Usages.size(); ++U)
      if (X.Usages[U].Resource != Y.Usages[U].Resource ||
          X.Usages[U].Cycle != Y.Usages[U].Cycle)
        return false;
  }
  return true;
}

/// Registers keyed by their defining operation, uses sorted: printDdg
/// picks which of several parallel edges carries a flow, so register and
/// use order are not part of the format.
std::vector<std::tuple<int, int, int>> registerUses(const DependenceGraph &G) {
  std::vector<std::tuple<int, int, int>> Uses;
  for (const VirtualRegister &Reg : G.registers())
    for (const RegisterUse &U : Reg.Uses)
      Uses.push_back({Reg.Def, U.Consumer, U.Distance});
  std::sort(Uses.begin(), Uses.end());
  return Uses;
}

bool sameGraph(const DependenceGraph &A, const DependenceGraph &B) {
  if (A.name() != B.name() || A.numOperations() != B.numOperations() ||
      A.numSchedEdges() != B.numSchedEdges() ||
      A.numRegisters() != B.numRegisters())
    return false;
  for (int I = 0; I < A.numOperations(); ++I)
    if (A.operation(I).Name != B.operation(I).Name ||
        A.operation(I).OpClass != B.operation(I).OpClass)
      return false;
  for (int E = 0; E < A.numSchedEdges(); ++E) {
    const SchedEdge &X = A.schedEdges()[E], &Y = B.schedEdges()[E];
    if (X.Src != Y.Src || X.Dst != Y.Dst || X.Latency != Y.Latency ||
        X.Distance != Y.Distance)
      return false;
  }
  return registerUses(A) == registerUses(B);
}

/// A hand-written loop that exercises comments, CRLF, blank lines and
/// both edge kinds; the kernel library supplies the rest of the seeds.
const char *const HandDdg = "# hand-written seed\r\n"
                            "loop seed\r\n"
                            "op ld load   # address in r1\n"
                            "op mu mul\n"
                            "\n"
                            "op ad add\n"
                            "op st store\n"
                            "flow ld mu latency=2 omega=0\n"
                            "flow mu ad latency=+4 omega=0\n"
                            "flow ad mu latency=1 omega=1\n"
                            "edge st ld latency=-1 omega=1\n"
                            "flow ad st latency=1 omega=0";

std::vector<std::string> ddgSeeds(const MachineModel &M) {
  std::vector<std::string> Seeds = {HandDdg};
  for (const DependenceGraph &G : allKernels(M))
    if (G.numOperations() <= 16)
      Seeds.push_back(printDdg(G, M));
  return Seeds;
}

bool sameOpb(const OpbProblem &A, const OpbProblem &B) {
  if (A.NumVars != B.NumVars || A.HasObjective != B.HasObjective ||
      A.Objective != B.Objective ||
      A.ObjectiveConstant != B.ObjectiveConstant ||
      A.Rows.size() != B.Rows.size())
    return false;
  for (size_t I = 0; I < A.Rows.size(); ++I)
    if (A.Rows[I].Terms != B.Rows[I].Terms ||
        A.Rows[I].Degree != B.Rows[I].Degree)
      return false;
  return true;
}

/// OPB texts of small PB scheduling models: cardinality rows (the
/// structured formulation), wide general rows (the traditional Ineq. 4
/// dependences) and every objective kind, so "min:" lines carry both
/// unit and II-scaled coefficients.
std::vector<std::string> opbSeeds() {
  MachineModel M = MachineModel::example3();
  const DependenceGraph Loops[] = {paperExample1(M), dotProduct(M)};
  std::vector<std::string> Seeds;
  for (const DependenceGraph &G : Loops)
    for (Objective Obj : {Objective::None, Objective::MinReg,
                          Objective::MinBuff, Objective::MinLife}) {
      FormulationOptions Opts;
      Opts.Obj = Obj;
      if (Obj == Objective::None)
        Opts.DepStyle = DependenceStyle::Traditional;
      PbFormulation F(G, M, 2, Opts);
      if (F.valid())
        Seeds.push_back(writeOpbFormat(F.solver(), F.objectiveTerms(),
                                       F.objectiveConstant()));
    }
  return Seeds;
}

int countLines(const std::string &Text) {
  return static_cast<int>(std::count(Text.begin(), Text.end(), '\n'));
}

} // namespace

TEST(ParserFuzz, MachineTextsRoundTrip) {
  Rng R(FuzzSeed);
  const std::vector<std::string> Seeds = {
      printMachine(MachineModel::cydraLike()),
      printMachine(MachineModel::example3()),
      printMachine(MachineModel::vliw2()),
      "# commented\r\nmachine m\r\nresource a x2 # two\n\nresource b x1\n"
      "class c latency=3 uses=a@0,,b@1,\nclass d latency=0 uses="};
  int Accepted = 0;
  for (int I = 0; I < MachineIterations; ++I) {
    std::string Text = mutate(Seeds[R.nextBelow(Seeds.size())], R);
    std::string Error;
    std::optional<MachineModel> M = parseMachine(Text, &Error);
    if (!M) {
      ASSERT_EQ(Error.rfind("line ", 0), 0u) << Error;
      continue;
    }
    ++Accepted;
    std::string Printed = printMachine(*M);
    std::optional<MachineModel> Again = parseMachine(Printed, &Error);
    ASSERT_TRUE(Again.has_value()) << Error << "\n" << Printed;
    ASSERT_TRUE(sameMachine(*M, *Again)) << Text << "\n---\n" << Printed;
  }
  // The budget must exercise both outcomes.
  EXPECT_GT(Accepted, MachineIterations / 10);
  EXPECT_LT(Accepted, MachineIterations);
}

TEST(ParserFuzz, DdgTextsRoundTrip) {
  Rng R(FuzzSeed + 1);
  const MachineModel Machines[] = {MachineModel::cydraLike(),
                                   MachineModel::example3()};
  const std::vector<std::string> Seeds = ddgSeeds(Machines[0]);
  int Accepted = 0;
  for (int I = 0; I < DdgIterations; ++I) {
    const MachineModel &M = Machines[R.nextBelow(2)];
    std::string Text = mutate(Seeds[R.nextBelow(Seeds.size())], R);
    std::string Error;
    std::optional<DependenceGraph> G = parseDdg(Text, M, &Error);
    if (!G) {
      ASSERT_EQ(Error.rfind("line ", 0), 0u) << Error;
      continue;
    }
    ++Accepted;
    std::string Printed = printDdg(*G, M);
    std::optional<DependenceGraph> Again = parseDdg(Printed, M, &Error);
    ASSERT_TRUE(Again.has_value()) << Error << "\n" << Printed;
    ASSERT_TRUE(sameGraph(*G, *Again)) << Text << "\n---\n" << Printed;
  }
  EXPECT_GT(Accepted, DdgIterations / 10);
  EXPECT_LT(Accepted, DdgIterations);
}

TEST(ParserFuzz, FramesHonourLimits) {
  Rng R(FuzzSeed + 2);
  MachineModel Cydra = MachineModel::cydraLike();
  std::string MachineText = printMachine(Cydra);
  std::vector<std::string> Frames;
  for (const std::string &Ddg : ddgSeeds(Cydra)) {
    Frames.push_back("SCHED id=f1 objective=minlife nodes=50\r\nMACHINE " +
                     std::to_string(countLines(MachineText)) + "\n" +
                     MachineText + "DDG " + std::to_string(countLines(Ddg)) +
                     "\n" + Ddg + "\nEND\n");
    Frames.push_back("PING\n\nSCHED id=f2 machine=cydra time=0.5\nDDG " +
                     std::to_string(countLines(Ddg)) + "\n" + Ddg +
                     "\nEND\nSTATS\n");
  }
  ProtocolLimits Default;
  ProtocolLimits Tight;
  Tight.MaxLineBytes = 40;
  Tight.MaxPayloadLines = 12;
  Tight.MaxPayloadBytes = 400;

  int Scheds = 0, Errors = 0;
  for (int I = 0; I < FrameIterations; ++I) {
    const ProtocolLimits &Limits = R.nextBelow(2) ? Tight : Default;
    std::string Text = mutate(Frames[R.nextBelow(Frames.size())], R);
    std::istringstream In(Text);
    // Every frame but the last consumes at least one line.
    int MaxFrames = countLines(Text) + 2;
    bool Done = false;
    for (int N = 0; N < MaxFrames && !Done; ++N) {
      Frame F = readFrame(In, Limits);
      switch (F.Kind) {
      case FrameKind::Eof:
        Done = true;
        break;
      case FrameKind::Error:
        ++Errors;
        ASSERT_FALSE(F.Error.empty());
        Done = F.Fatal;
        break;
      case FrameKind::Sched: {
        ++Scheds;
        const Request &Req = F.Req;
        ASSERT_FALSE(Req.Id.empty());
        ASSERT_LE(Req.Id.size(), 128u);
        ASSERT_NE(Req.MachineText.empty(), Req.BuiltinMachine.empty());
        ASSERT_LE(Req.MachineText.size() + Req.DdgText.size(),
                  Limits.MaxPayloadBytes);
        for (const std::string *Payload : {&Req.MachineText, &Req.DdgText}) {
          ASSERT_LE(countLines(*Payload), Limits.MaxPayloadLines);
          ASSERT_EQ(Payload->find('\r'), std::string::npos);
          for (const std::string &Line : splitLines(*Payload))
            ASSERT_LE(Line.size(), Limits.MaxLineBytes);
        }
        // The payloads reach the textio parsers on a worker; they must
        // not abort there either.
        std::optional<MachineModel> M =
            Req.BuiltinMachine.empty() ? parseMachine(Req.MachineText)
                                       : std::optional(Cydra);
        if (M)
          (void)parseDdg(Req.DdgText, *M);
        break;
      }
      default:
        break;
      }
    }
    ASSERT_TRUE(Done) << "readFrame did not reach EOF:\n" << Text;
  }
  EXPECT_GT(Scheds, FrameIterations / 20);
  EXPECT_GT(Errors, FrameIterations / 20);
}

TEST(ParserFuzz, OpbTextsRoundTrip) {
  Rng R(FuzzSeed + 3);
  const std::vector<std::string> Seeds = opbSeeds();
  ASSERT_FALSE(Seeds.empty());
  int Accepted = 0;
  for (int I = 0; I < OpbIterations; ++I) {
    std::string Text = mutate(Seeds[R.nextBelow(Seeds.size())], R);
    std::string Error;
    std::optional<OpbProblem> P = parseOpbFormat(Text, &Error);
    if (!P) {
      ASSERT_FALSE(Error.empty());
      continue;
    }
    ++Accepted;
    std::string Written = writeOpbFormat(*P);
    std::optional<OpbProblem> Again = parseOpbFormat(Written, &Error);
    ASSERT_TRUE(Again.has_value()) << Error << "\n" << Written;
    ASSERT_TRUE(sameOpb(*P, *Again)) << Text << "\n---\n" << Written;
  }
  EXPECT_GT(Accepted, OpbIterations / 10);
  EXPECT_LT(Accepted, OpbIterations);
}
