//===- tests/ServiceTest.cpp - Scheduling service protocol/server ---------===//
//
// Coverage for the scheduling-as-a-service layer (src/service):
//
//   * Frame parsing round-trip: a well-formed SCHED frame yields the
//     header knobs and payload text it was built from.
//   * Negative / fuzz corpus: truncated frames, oversized lines and
//     payloads, bad counts, unknown verbs/keys/enum tokens, duplicate
//     and conflicting sections — every one must come back as a
//     structured Error frame with the intended fatality, and a
//     non-fatal error must leave the stream aligned for the next frame
//     (assertions are ON in every build: surviving this corpus IS the
//     hardening test).
//   * End-to-end serveStream: solves over stdin/stdout-style streams,
//     cache-served replay on resubmission, admission shedding when
//     stopping, at the queue bound and at the per-client in-flight
//     cap, graceful drain on QUIT, a daemon that keeps serving
//     after a mid-request disconnect, and one portfolio-backend worker
//     serving several loops back to back with the ILP's verdicts.
//   * Clean slate per request: a reply equals a fresh in-process solve
//     whatever the worker solved before, and a disconnect cancels the
//     in-flight solve under the ILP and the PB backend.
//   * Cache hits on the reader thread: a hit is answered while the only
//     worker is busy, each request probes the cache once, a hit behind
//     an in-flight frame of its stream waits for it, and STATS counts
//     reader hits as accepted and completed.
//   * Machine interning: a repeated MACHINE text reuses one model, a
//     one-byte variant gets its own, the table stays at its bound, bad
//     text is never interned, and two workers share one model.
//   * Loop interning: a repeated DDG text is an intern hit with the same
//     reply, a variant in one latency, the objective or the machine gets
//     its own entry and a fresh server's reply, the table stays within
//     its entry and byte bounds, an over-budget payload and bad text are
//     never interned, two workers share one entry, and a shared Problem
//     warns of the PB fallback on each solve.
//   * Unix-domain socket smoke: listen, accept, PING, shut down.
//
//===----------------------------------------------------------------------===//

#include "graph/DependenceGraph.h"
#include "ilpsched/SolutionCache.h"
#include "machine/MachineModel.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "sched/Verifier.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace modsched;
using namespace modsched::service;

namespace {

/// Extracts "key":<value> from a one-line JSON response (machine-
/// written: no spaces, keys unique at top level for those used here).
std::string field(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  std::size_t End = At;
  if (End < Line.size() && Line[End] == '"') {
    ++End;
    while (End < Line.size() && Line[End] != '"')
      ++End;
    return Line.substr(At + 1, End - At - 1);
  }
  while (End < Line.size() && Line[End] != ',' && Line[End] != '}')
    ++End;
  return Line.substr(At, End - At);
}

/// A small solvable loop on example3 (flow chain plus one recurrence),
/// rendered through textio so frames exercise the real payload path.
std::string exampleDdg() {
  MachineModel M = MachineModel::example3();
  DependenceGraph G;
  G.setName("svc");
  int Load = G.addOperation("ld", *M.findOpClass(opclasses::Load));
  int Mul = G.addOperation("mu", *M.findOpClass(opclasses::Mul));
  int Add = G.addOperation("ad", *M.findOpClass(opclasses::Add));
  int St = G.addOperation("st", *M.findOpClass(opclasses::Store));
  G.addFlowDependence(Load, Mul, 1, 0);
  G.addFlowDependence(Mul, Add, 4, 0);
  G.addFlowDependence(Add, St, 1, 0);
  G.addFlowDependence(Add, Mul, 1, 1);
  return printDdg(G, M);
}

int countLines(const std::string &Text) {
  int N = 0;
  for (char C : Text)
    if (C == '\n')
      ++N;
  return N;
}

/// A SCHED frame carrying DDG text \p Ddg, its header ending in
/// \p Header.
std::string ddgFrame(const std::string &Id, const std::string &Ddg,
                     const std::string &Header = "machine=example3") {
  return "SCHED id=" + Id + " " + Header + "\nDDG " +
         std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
}

std::string schedFrame(const std::string &Id, const std::string &Extra = "") {
  return ddgFrame(Id, exampleDdg(),
                  "machine=example3" + (Extra.empty() ? "" : " " + Extra));
}

Frame parseOne(const std::string &Text,
               const ProtocolLimits &Limits = ProtocolLimits()) {
  std::istringstream In(Text);
  return readFrame(In, Limits);
}

std::vector<std::string> serve(Server &S, const std::string &Input,
                               const std::string &Client = "test") {
  std::istringstream In(Input);
  std::ostringstream Out;
  S.serveStream(In, Out, Client);
  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  std::string Line;
  while (std::getline(Split, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

ServerOptions quickOptions() {
  ServerOptions O;
  O.Workers = 1; // Deterministic completion order for the tests.
  O.DefaultTimeLimitSeconds = 20.0;
  O.MaxTimeLimitSeconds = 30.0;
  O.Cache = true;
  return O;
}

TEST(ServiceProtocol, RoundTripParsesHeaderAndPayload) {
  std::string Ddg = exampleDdg();
  Frame F = parseOne(schedFrame("req-1", "objective=minbuff dep=traditional "
                                         "time=2.5 nodes=1000 maxii=7"));
  ASSERT_EQ(F.Kind, FrameKind::Sched);
  EXPECT_EQ(F.Req.Id, "req-1");
  EXPECT_EQ(F.Req.Obj, Objective::MinBuff);
  EXPECT_EQ(F.Req.DepStyle, DependenceStyle::Traditional);
  EXPECT_DOUBLE_EQ(F.Req.TimeLimitSeconds, 2.5);
  EXPECT_EQ(F.Req.NodeLimit, 1000);
  EXPECT_EQ(F.Req.MaxIiIncrease, 7);
  EXPECT_EQ(F.Req.BuiltinMachine, "example3");
  EXPECT_EQ(F.Req.DdgText, Ddg);

  // Inline MACHINE section instead of a builtin.
  MachineModel M = MachineModel::example3();
  std::string MText = printMachine(M);
  std::string WithMachine = "SCHED id=m1\n";
  WithMachine += "MACHINE " + std::to_string(countLines(MText)) + "\n" + MText;
  WithMachine += "DDG " + std::to_string(countLines(Ddg)) + "\n" + Ddg;
  WithMachine += "END\n";
  Frame F2 = parseOne(WithMachine);
  ASSERT_EQ(F2.Kind, FrameKind::Sched);
  EXPECT_EQ(F2.Req.MachineText, MText);
}

TEST(ServiceProtocol, SingleLineVerbs) {
  EXPECT_EQ(parseOne("PING\n").Kind, FrameKind::Ping);
  EXPECT_EQ(parseOne("STATS\n").Kind, FrameKind::Stats);
  EXPECT_EQ(parseOne("QUIT\n").Kind, FrameKind::Quit);
  EXPECT_EQ(parseOne("").Kind, FrameKind::Eof);
  EXPECT_EQ(parseOne("\n\n\nPING\n").Kind, FrameKind::Ping);
}

TEST(ServiceProtocol, NegativeCorpusNeverAborts) {
  struct Case {
    const char *Name;
    std::string Text;
    bool Fatal;
    const char *Error;
  };
  const Case Corpus[] = {
      {"unknown verb", "FROB x\n", false,
       "unknown verb 'FROB' (want SCHED|PING|STATS|QUIT)"},
      {"missing id", "SCHED machine=example3\nEND\n", false,
       "missing id=<token>"},
      {"bad id token", "SCHED id=bad!chars\nEND\n", false,
       "invalid request id"},
      {"unknown key", "SCHED id=a wat=1\nEND\n", false,
       "unknown header key 'wat'"},
      {"bad objective", "SCHED id=a objective=fastest\nEND\n", false,
       "unknown objective 'fastest' "
       "(want noobj|minreg|minbuff|minlife|minsl)"},
      {"bad dep style", "SCHED id=a dep=quantum\nEND\n", false,
       "unknown dependence style 'quantum' "
       "(want structured|structured_loose|traditional)"},
      {"bad time", "SCHED id=a time=-5\nEND\n", false,
       "invalid time budget '-5'"},
      {"bad nodes", "SCHED id=a nodes=zero\nEND\n", false,
       "invalid node budget 'zero'"},
      {"bad maxii", "SCHED id=a maxii=99999\nEND\n", false,
       "invalid maxii '99999'"},
      {"bad builtin", "SCHED id=a machine=pdp11\nEND\n", false,
       "unknown builtin machine 'pdp11' (want example3|cydra|vliw2)"},
      {"bad section", "SCHED id=a machine=example3\nBOGUS 3\nEND\n", false,
       "expected 'MACHINE <n>', 'DDG <n>' or 'END', got 'BOGUS 3'"},
      {"bad count", "SCHED id=a machine=example3\nDDG nope\nEND\n", false,
       "invalid DDG line count 'nope'"},
      {"count too large",
       "SCHED id=a machine=example3\nDDG 999999999\nEND\n", false,
       "invalid DDG line count '999999999'"},
      {"duplicate ddg",
       "SCHED id=a machine=example3\nDDG 1\nx\nDDG 1\ny\nEND\n", false,
       "duplicate DDG section"},
      {"machine conflict",
       "SCHED id=a machine=example3\nMACHINE 1\nm\nDDG 1\nx\nEND\n", false,
       "MACHINE section conflicts with machine=<builtin>"},
      {"missing ddg", "SCHED id=a machine=example3\nEND\n", false,
       "missing DDG section"},
      {"missing machine", "SCHED id=a\nDDG 1\nx\nEND\n", false,
       "missing machine (MACHINE section or machine=<builtin>)"},
      {"truncated payload",
       "SCHED id=a machine=example3\nDDG 5\nonly one line\n", true,
       "truncated payload (EOF before all lines arrived)"},
      {"truncated frame", "SCHED id=a machine=example3\nDDG 1\nx\n", true,
       "truncated frame (EOF before END)"},
      {"eof mid header payload", "SCHED id=a machine=example3\nDDG 2\nx",
       true, "truncated payload (EOF before all lines arrived)"},
  };
  for (const Case &C : Corpus) {
    Frame F = parseOne(C.Text);
    EXPECT_EQ(F.Kind, FrameKind::Error) << C.Name;
    EXPECT_EQ(F.Error, C.Error) << C.Name;
    EXPECT_EQ(F.Fatal, C.Fatal) << C.Name << ": " << F.Error;
  }
}

TEST(ServiceProtocol, LimitsAreFatal) {
  ProtocolLimits Tight;
  Tight.MaxLineBytes = 32;
  Tight.MaxPayloadLines = 4;
  Tight.MaxPayloadBytes = 64;

  Frame Long = parseOne("SCHED id=" + std::string(100, 'a') + "\n", Tight);
  EXPECT_EQ(Long.Kind, FrameKind::Error);
  EXPECT_TRUE(Long.Fatal);

  Frame TooMany =
      parseOne("SCHED id=a machine=example3\nDDG 9\nx\nEND\n", Tight);
  EXPECT_EQ(TooMany.Kind, FrameKind::Error);
  EXPECT_FALSE(TooMany.Fatal) << "bad count resyncs via END";

  std::string Fat = "SCHED id=a machine=example3\nDDG 4\n";
  Fat += std::string(30, 'x') + "\n" + std::string(30, 'y') + "\n" +
         std::string(30, 'z') + "\n" + std::string(30, 'w') + "\nEND\n";
  Frame Oversize = parseOne(Fat, Tight);
  EXPECT_EQ(Oversize.Kind, FrameKind::Error);
  EXPECT_TRUE(Oversize.Fatal) << Oversize.Error;
}

TEST(ServiceProtocol, NonFatalErrorLeavesStreamAligned) {
  std::istringstream In("SCHED id=a objective=fastest machine=example3\n"
                        "DDG 1\njunk\nEND\n" +
                        schedFrame("good"));
  ProtocolLimits Limits;
  Frame Bad = readFrame(In, Limits);
  EXPECT_EQ(Bad.Kind, FrameKind::Error);
  EXPECT_FALSE(Bad.Fatal);
  Frame Good = readFrame(In, Limits);
  ASSERT_EQ(Good.Kind, FrameKind::Sched);
  EXPECT_EQ(Good.Req.Id, "good");
  EXPECT_EQ(readFrame(In, Limits).Kind, FrameKind::Eof);
}

TEST(ServiceProtocol, PinnedFrames) {
  // Kind, fatality, best-effort id and either the exact error string
  // (Error frames) or the exact DDG payload text (SCHED frames).
  struct Case {
    const char *Name;
    std::string Text;
    FrameKind Kind;
    bool Fatal;
    const char *Id;
    std::string Detail;
  };
  const std::string Sched = "SCHED id=a machine=example3\n";
  const std::string Header = "expected 'MACHINE <n>', 'DDG <n>' or 'END', ";
  const Case Corpus[] = {
      {"payload with CR",
       "SCHED id=a machine=example3\r\nDDG 2\r\nop a add\r\nop b\r add\r\n"
       "END\r\n",
       FrameKind::Sched, false, "a", "op a add\nop b add\n"},
      {"CR-only lines between frames", "\r\n\r\r\nPING\r\n", FrameKind::Ping,
       false, "", ""},
      {"truncated mid-payload line",
       "SCHED id=t machine=example3\nDDG 3\nop a add\nop b ad",
       FrameKind::Error, true, "t",
       "truncated payload (EOF before all lines arrived)"},
      {"truncated after the last payload line",
       "SCHED id=t machine=example3\nDDG 2\nop a add\nop b ad",
       FrameKind::Error, true, "t", "truncated frame (EOF before END)"},
      {"truncated inside END", Sched + "DDG 1\nx\nEN", FrameKind::Error,
       false, "a", Header + "got 'EN'"},
      {"END without newline", Sched + "DDG 1\nx\nEND", FrameKind::Sched,
       false, "a", "x\n"},
      {"tabs and runs of blanks",
       "SCHED\tid=a \t machine=example3  \nDDG\t1\n x \t\nEND\n",
       FrameKind::Sched, false, "a", " x \t\n"},
      {"vertical tab is not a blank", "SCHED id=a\vmachine=example3\nEND\n",
       FrameKind::Error, false, "", "invalid request id"},
      {"hash is not a comment", "SCHED id=a #c\nEND\n", FrameKind::Error,
       false, "a", "malformed header token '#c' (want key=value)"},
      {"blank-only request line", "  \t \nEND\n", FrameKind::Error, false,
       "", "empty request line"},
      {"empty value", "SCHED id=a machine=\nEND\n", FrameKind::Error, false,
       "a", "malformed header token 'machine=' (want key=value)"},
      {"empty key", "SCHED =a\nEND\n", FrameKind::Error, false, "",
       "malformed header token '=a' (want key=value)"},
      {"no equals", "SCHED id\nEND\n", FrameKind::Error, false, "",
       "malformed header token 'id' (want key=value)"},
      {"first error wins", "SCHED id=a wat=1 objective=fastest\nEND\n",
       FrameKind::Error, false, "a", "unknown header key 'wat'"},
      {"id parsed before the error is kept", "SCHED id=keep wat=1\nEND\n",
       FrameKind::Error, false, "keep", "unknown header key 'wat'"},
      {"later id wins", "SCHED id=a id=b machine=example3\nDDG 1\nx\nEND\n",
       FrameKind::Sched, false, "b", "x\n"},
      {"id length cap", "SCHED id=" + std::string(129, 'i') + "\nEND\n",
       FrameKind::Error, false, "", "invalid request id"},
      {"value keeps later equals", "SCHED id=a=b\nEND\n", FrameKind::Error,
       false, "", "invalid request id"},
      {"verb only", "SCHED\nEND\n", FrameKind::Error, false, "",
       "missing id=<token>"},
      {"verb case", "ping\n", FrameKind::Error, false, "",
       "unknown verb 'ping' (want SCHED|PING|STATS|QUIT)"},
      {"verb with arguments", "PING extra words\n", FrameKind::Ping, false,
       "", ""},
      {"leading blanks before verb", "  STATS\n", FrameKind::Stats, false, "",
       ""},
      {"zero count", Sched + "DDG 0\nEND\n", FrameKind::Sched, false, "a",
       ""},
      {"padded zero count", Sched + "DDG 00\nEND\n", FrameKind::Error, false,
       "a", "invalid DDG line count '00'"},
      {"negative count", Sched + "DDG -1\nEND\n", FrameKind::Error, false,
       "a", "invalid DDG line count '-1'"},
      {"plus count", Sched + "DDG +1\nx\nEND\n", FrameKind::Error, false, "a",
       "invalid DDG line count '+1'"},
      {"huge count", Sched + "DDG 99999999999999999999\nEND\n",
       FrameKind::Error, false, "a",
       "invalid DDG line count '99999999999999999999'"},
      {"machine count", "SCHED id=a\nMACHINE x\nEND\n", FrameKind::Error,
       false, "a", "invalid MACHINE line count 'x'"},
      {"section arity", Sched + "DDG 1 2\nEND\n", FrameKind::Error, false,
       "a", Header + "got 'DDG 1 2'"},
      {"END with trailing blank", Sched + "DDG 1\nx\nEND \n",
       FrameKind::Error, false, "a", Header + "got 'END '"},
      {"lowercase section", Sched + "ddg 1\nx\nEND\n", FrameKind::Error,
       false, "a", Header + "got 'ddg 1'"},
      {"payload lines are raw", Sched + "DDG 3\nEND\n\n# x\nEND\n",
       FrameKind::Sched, false, "a", "END\n\n# x\n"},
      {"duplicate machine",
       "SCHED id=a\nMACHINE 1\nm\nMACHINE 1\nn\nDDG 1\nx\nEND\n",
       FrameKind::Error, false, "a", "duplicate MACHINE section"},
      {"empty machine section is not a machine",
       "SCHED id=a\nMACHINE 0\nDDG 1\nx\nEND\n", FrameKind::Error, false, "a",
       "missing machine (MACHINE section or machine=<builtin>)"},
      {"empty machine section may repeat",
       "SCHED id=a\nMACHINE 0\nMACHINE 1\nm\nDDG 1\nx\nEND\n",
       FrameKind::Sched, false, "a", "x\n"},
      {"hex time", "SCHED id=a time=0x10 machine=example3\nDDG 0\nEND\n",
       FrameKind::Sched, false, "a", ""},
      {"nan time", "SCHED id=a time=nan\nEND\n", FrameKind::Error, false, "a",
       "invalid time budget 'nan'"},
      {"time cap", "SCHED id=a time=1e9 time=1.5e9\nEND\n", FrameKind::Error,
       false, "a", "invalid time budget '1.5e9'"},
      {"partly numeric time", "SCHED id=a time=5s\nEND\n", FrameKind::Error,
       false, "a", "invalid time budget '5s'"},
      {"plus nodes", "SCHED id=a nodes=+5\nEND\n", FrameKind::Error, false,
       "a", "invalid node budget '+5'"},
      {"zero nodes", "SCHED id=a nodes=0\nEND\n", FrameKind::Error, false,
       "a", "invalid node budget '0'"},
      {"zero maxii", "SCHED id=a maxii=0\nEND\n", FrameKind::Error, false,
       "a", "invalid maxii '0'"},
      {"huge maxii", "SCHED id=a maxii=99999999999999999999\nEND\n",
       FrameKind::Error, false, "a", "invalid maxii '99999999999999999999'"},
  };
  for (const Case &C : Corpus) {
    Frame F = parseOne(C.Text);
    ASSERT_EQ(F.Kind, C.Kind) << C.Name << ": " << F.Error;
    EXPECT_EQ(F.Fatal, C.Fatal) << C.Name;
    EXPECT_EQ(F.Id, C.Id) << C.Name;
    if (C.Kind == FrameKind::Error) {
      EXPECT_EQ(F.Error, C.Detail) << C.Name;
    } else if (C.Kind == FrameKind::Sched) {
      EXPECT_EQ(F.Req.DdgText, C.Detail) << C.Name;
    }
  }
}

TEST(ServiceProtocol, PinnedHeaderValues) {
  Frame F = parseOne("SCHED id=x.y:z_1-2 time=0x10 nodes=99999999999999999999 "
                     "maxii=4096 machine=cydra objective=noobj "
                     "dep=structured_loose\nDDG 0\nEND\n");
  ASSERT_EQ(F.Kind, FrameKind::Sched) << F.Error;
  EXPECT_EQ(F.Req.Id, "x.y:z_1-2");
  EXPECT_DOUBLE_EQ(F.Req.TimeLimitSeconds, 16.0);
  EXPECT_EQ(F.Req.NodeLimit, INT64_MAX) << "strtoll saturates";
  EXPECT_EQ(F.Req.MaxIiIncrease, 4096);
  EXPECT_EQ(F.Req.BuiltinMachine, "cydra");
  EXPECT_EQ(F.Req.Obj, Objective::None);
  EXPECT_EQ(F.Req.DepStyle, DependenceStyle::StructuredLoose);
  EXPECT_EQ(F.Req.MachineText, "");

  Frame M = parseOne("SCHED id=m\nMACHINE 2\r\nmachine m\r\n\tclass x\r\n"
                     "DDG 1\nop a x\nEND\n");
  ASSERT_EQ(M.Kind, FrameKind::Sched) << M.Error;
  EXPECT_EQ(M.Req.MachineText, "machine m\n\tclass x\n");
  EXPECT_EQ(M.Req.DdgText, "op a x\n");
}

TEST(ServiceProtocol, PinnedLimitErrors) {
  ProtocolLimits Tight;
  Tight.MaxLineBytes = 10;
  Tight.MaxPayloadLines = 3;
  Tight.MaxPayloadBytes = 12;
  struct Case {
    const char *Name;
    std::string Text;
    FrameKind Kind;
    bool Fatal;
    std::string Error;
  };
  const Case Corpus[] = {
      {"line at the cap", "STATS     \n", FrameKind::Stats, false, ""},
      {"CR does not count toward the cap", "PING\r\r\r\r\r\r\r\r\r\r\n",
       FrameKind::Ping, false, ""},
      {"request line over the cap", "PING       \n", FrameKind::Error, true,
       "request line exceeds the line-size limit"},
      {"blank line over the cap", "           \nPING\n", FrameKind::Error, true,
       "request line exceeds the line-size limit"},
      {"section line over the cap", "SCHED id=a\nDDG 1      \nx\nEND\n",
       FrameKind::Error, true, "request line exceeds the line-size limit"},
      {"payload line over the cap", "SCHED id=a\nDDG 1\n12345678901\nEND\n",
       FrameKind::Error, true, "payload line exceeds the line-size limit"},
      {"payload at the byte limit",
       "SCHED id=a\nMACHINE 1\n12345\nDDG 1\n12345\nEND\n", FrameKind::Sched,
       false, ""},
      {"payload over the byte limit",
       "SCHED id=a\nMACHINE 1\n12345\nDDG 1\n123456\nEND\n", FrameKind::Error,
       true, "payload exceeds the per-frame byte limit"},
      {"count over the line limit", "SCHED id=a\nDDG 4\nEND\n",
       FrameKind::Error, false, "invalid DDG line count '4'"},
      {"count at the line limit", "SCHED id=a\nDDG 3\n1\n2\n3\nEND\n",
       FrameKind::Error, false,
       "missing machine (MACHINE section or machine=<builtin>)"},
  };
  for (const Case &C : Corpus) {
    Frame F = parseOne(C.Text, Tight);
    ASSERT_EQ(F.Kind, C.Kind) << C.Name << ": " << F.Error;
    EXPECT_EQ(F.Fatal, C.Fatal) << C.Name;
    EXPECT_EQ(F.Error, C.Error) << C.Name;
  }
}

TEST(ServiceProtocol, PinnedResyncSequence) {
  // Frame boundaries after errors: a header error skips through END, an
  // empty request line skips nothing, and EOF is sticky.
  std::istringstream In("FROB\nSCHED id=a wat=1\nDDG 1\nEND\nEND\n \n"
                        "PING\nSCHED id=b machine=example3\nDDG 1\nx\n"
                        "END\n\n\n");
  ProtocolLimits Limits;
  std::vector<std::pair<FrameKind, std::string>> Seen;
  for (int I = 0; I < 8; ++I) {
    Frame F = readFrame(In, Limits);
    Seen.push_back({F.Kind, F.Kind == FrameKind::Sched ? F.Id : F.Error});
  }
  const std::vector<std::pair<FrameKind, std::string>> Want = {
      {FrameKind::Error, "unknown verb 'FROB' (want SCHED|PING|STATS|QUIT)"},
      {FrameKind::Error, "unknown header key 'wat'"},
      {FrameKind::Error, "unknown verb 'END' (want SCHED|PING|STATS|QUIT)"},
      {FrameKind::Error, "empty request line"},
      {FrameKind::Ping, ""},
      {FrameKind::Sched, "b"},
      {FrameKind::Eof, ""},
      {FrameKind::Eof, ""},
  };
  EXPECT_EQ(Seen, Want);
  EXPECT_TRUE(In.eof());
}

TEST(ServiceServer, PinnedPayloadErrors) {
  // Payload parse errors reach the client verbatim behind a prefix.
  Server S(quickOptions());
  std::string Ddg = exampleDdg();
  std::string Input = "SCHED id=d1 machine=example3\nDDG 2\n"
                      "op a add\nop a mul\nEND\n";
  Input += "SCHED id=d2 machine=example3\nDDG 1\n"
           "edge a b latency=1 omega=0\nEND\n";
  Input += "SCHED id=d3 machine=example3\nDDG 4\nop a add\nop b add\n"
           "edge a b latency=1 omega=0\nedge b a latency=1 omega=0\nEND\n";
  Input += "SCHED id=m1\nMACHINE 2\nresource r x1\r\n"
           "class a latency=1 uses=r@0,,q@1\nDDG " +
           std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
  Input += "SCHED id=m2\nMACHINE 1\nmachine m\nDDG " +
           std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
  std::vector<std::string> Lines = serve(S, Input + "QUIT\n");
  ASSERT_EQ(Lines.size(), 5u);
  std::vector<std::pair<std::string, std::string>> Got;
  for (const std::string &L : Lines)
    Got.push_back({field(L, "id"), field(L, "error")});
  std::sort(Got.begin(), Got.end());
  const std::vector<std::pair<std::string, std::string>> Want = {
      {"d1", "bad ddg: line 2: duplicate operation name a"},
      {"d2", "bad ddg: line 1: unknown operation in edge"},
      {"d3", "bad ddg: line 4: zero-distance dependence cycle: loop is "
             "unschedulable"},
      {"m1", "bad machine: line 2: unknown resource q"},
      {"m2", "bad machine: line 1: machine defines no operation classes"},
  };
  EXPECT_EQ(Got, Want);
}

TEST(ServiceServer, SolvesAndServesFromCacheOnResubmission) {
  Server S(quickOptions());
  std::vector<std::string> Lines =
      serve(S, schedFrame("r1") + schedFrame("r2") + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);

  // Responses may complete out of order in general; with one worker
  // they are ordered, but match on id anyway.
  const std::string &First = field(Lines[0], "id") == "r1" ? Lines[0]
                                                           : Lines[1];
  const std::string &Second = field(Lines[0], "id") == "r1" ? Lines[1]
                                                            : Lines[0];
  EXPECT_EQ(field(First, "status"), "ok") << First;
  EXPECT_EQ(field(Second, "status"), "ok") << Second;
  EXPECT_EQ(field(First, "cache_hit"), "false") << First;
  EXPECT_EQ(field(Second, "cache_hit"), "true")
      << "identical resubmission not served from cache: " << Second;
  EXPECT_EQ(field(First, "ii"), field(Second, "ii"));
  EXPECT_EQ(field(First, "secondary"), field(Second, "secondary"));
  EXPECT_EQ(field(First, "canonical_hash"), field(Second, "canonical_hash"));
  EXPECT_FALSE(field(Second, "canonical_hash").empty());

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Requests, 2);
  EXPECT_EQ(Stats.Completed, 2);
  EXPECT_GE(Stats.CacheHits, 1);
  EXPECT_EQ(Stats.Shed, 0);
}

TEST(ServiceServer, SymmetricLoopIsServedFromCacheOnResubmission) {
  // Twelve identical independent ops: the most symmetric loop a client
  // can send. Its canonical hash must be exact, or no resubmission of it
  // could ever be a cache hit.
  MachineModel M = MachineModel::example3();
  DependenceGraph G;
  G.setName("twelve");
  for (int I = 0; I < 12; ++I)
    G.addOperation("a" + std::to_string(I), *M.findOpClass(opclasses::Add));
  std::string Ddg = printDdg(G, M);
  std::string Frame = "machine=example3\nDDG " +
                      std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
  Server S(quickOptions());
  std::vector<std::string> Lines = serve(
      S, "SCHED id=s1 " + Frame + "SCHED id=s2 " + Frame + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  ASSERT_EQ(field(Lines[0], "id"), "s1") << Lines[0];
  EXPECT_EQ(field(Lines[0], "status"), "ok") << Lines[0];
  EXPECT_EQ(field(Lines[0], "cache_hit"), "false") << Lines[0];
  EXPECT_EQ(field(Lines[1], "status"), "ok") << Lines[1];
  EXPECT_EQ(field(Lines[1], "cache_hit"), "true")
      << "symmetric resubmission not served from cache: " << Lines[1];
}

/// The "times" array of an ok reply's schedule object.
std::vector<int> scheduleTimes(const std::string &Line) {
  std::vector<int> Times;
  std::size_t At = Line.find("\"times\":[");
  if (At == std::string::npos)
    return Times;
  std::istringstream In(Line.substr(At + 9));
  int T = 0;
  char Sep = ',';
  while (Sep == ',' && In >> T >> Sep)
    Times.push_back(T);
  return Times;
}

TEST(ServiceServer, PortfolioWorkerServesLoopsBackToBack) {
  // One worker, portfolio backend, cache off: every request is a fresh
  // solve by the engine its objective picks, on the same worker, right
  // after the previous loop's. Each reply must carry the ILP's verdict
  // and a schedule the verifier accepts.
  MachineModel M = MachineModel::cydraLike();
  struct Case {
    DependenceGraph G;
    Objective Obj;
    const char *ObjName;
  };
  const Case Cases[] = {
      {dotProduct(M), Objective::None, "noobj"},
      {secondOrderRecurrence(M), Objective::MinReg, "minreg"},
      {backSubstitution(M), Objective::MinBuff, "minbuff"},
      {stencil3(M), Objective::MinBuff, "minbuff"},
      {livermore1(M), Objective::MinLife, "minlife"},
      {fir4(M), Objective::None, "noobj"},
  };
  std::string Input;
  for (size_t I = 0; I < std::size(Cases); ++I) {
    std::string Ddg = printDdg(Cases[I].G, M);
    Input += "SCHED id=k" + std::to_string(I) + " machine=cydra objective=" +
             Cases[I].ObjName + "\nDDG " + std::to_string(countLines(Ddg)) +
             "\n" + Ddg + "END\n";
  }
  ServerOptions O = quickOptions();
  O.Backend = SchedulerBackend::Portfolio;
  O.Cache = false;
  Server S(O);
  std::vector<std::string> Lines = serve(S, Input + "QUIT\n");
  ASSERT_EQ(Lines.size(), std::size(Cases));

  for (size_t I = 0; I < std::size(Cases); ++I) {
    const Case &C = Cases[I];
    const std::string &Line = Lines[I];
    ASSERT_EQ(field(Line, "id"), "k" + std::to_string(I)) << Line;
    ASSERT_EQ(field(Line, "status"), "ok") << Line;
    EXPECT_EQ(field(Line, "cache_hit"), "false") << Line;

    SchedulerOptions Ilp;
    Ilp.Backend = SchedulerBackend::Ilp;
    Ilp.Formulation.Obj = C.Obj;
    Ilp.TimeLimitSeconds = 20.0;
    Ilp.Cache = false;
    ScheduleResult R = OptimalModuloScheduler(M, Ilp).schedule(C.G);
    ASSERT_TRUE(R.Found) << C.G.name();
    EXPECT_EQ(field(Line, "ii"), std::to_string(R.II)) << Line;
    EXPECT_NEAR(std::stod(field(Line, "secondary")), R.SecondaryObjective,
                1e-6)
        << Line;

    std::vector<int> Times = scheduleTimes(Line);
    ASSERT_EQ(int(Times.size()), C.G.numOperations()) << Line;
    ModuloSchedule Served(std::stoi(field(Line, "ii")), std::move(Times));
    EXPECT_FALSE(verifySchedule(C.G, M, Served).has_value()) << Line;
  }
  EXPECT_EQ(S.stats().Completed, int64_t(std::size(Cases)));
}

/// \p V as the server's JSON writer renders it.
std::string jsonNumber(double V) {
  std::string Out;
  json::JsonWriter(Out).value(V);
  return Out;
}

/// A SCHED frame carrying cydra DDG text \p Ddg, its header ending in
/// \p Header.
std::string cydraFrame(const std::string &Id, const std::string &Ddg,
                       const std::string &Header) {
  return ddgFrame(Id, Ddg, "machine=cydra " + Header);
}

TEST(ServiceServer, RepliesDoNotDependOnEarlierRequests) {
  // One worker, the ILP, the cache off and nodes=200 on every frame: each
  // cydraLike kernel x objective is sent after a seeded random prefix of
  // 3-5 other loops on the same worker. A worker keeps no search state
  // between requests, so every reply's verdict and effort must equal a
  // fresh in-process schedule() with the same options. The node budget,
  // not the wall clock, censors: the time limit is a safety net.
  MachineModel M = MachineModel::cydraLike();
  struct Obj {
    Objective Value;
    const char *Name;
  };
  const Obj Objs[] = {{Objective::None, "noobj"},
                      {Objective::MinReg, "minreg"},
                      {Objective::MinBuff, "minbuff"},
                      {Objective::MinLife, "minlife"}};
  // Left out by name: livermore7-eos MinReg spends ~10 s in its first
  // node, its MinLife node LPs cost ~55 ms each, and hydro2d-fragment
  // MinReg takes ~2 s.
  auto LeftOut = [](const std::string &Kernel, Objective O) {
    return (Kernel == "livermore7-eos" &&
            (O == Objective::MinReg || O == Objective::MinLife)) ||
           (Kernel == "hydro2d-fragment" && O == Objective::MinReg);
  };
  // Prefix loops are drawn from the ones that take under ~150 ms: no
  // MinReg, and neither of the two largest kernels.
  auto Cheap = [](const std::string &Kernel, Objective O) {
    return O != Objective::MinReg && Kernel != "livermore7-eos" &&
           Kernel != "hydro2d-fragment";
  };
  struct Loop {
    DependenceGraph G;
    std::string Ddg;
    const Obj &O;
  };
  std::vector<Loop> Loops, Prefixes;
  for (DependenceGraph &G : allKernels(M))
    for (const Obj &O : Objs) {
      if (!LeftOut(G.name(), O.Value))
        Loops.push_back({G, printDdg(G, M), O});
      if (Cheap(G.name(), O.Value))
        Prefixes.push_back({G, printDdg(G, M), O});
    }
  auto Frame = [](const std::string &Id, const Loop &L) {
    return cydraFrame(Id, L.Ddg,
                      std::string("objective=") + L.O.Name + " nodes=200");
  };

  ServerOptions SO = quickOptions();
  SO.Cache = false;
  SO.Backend = SchedulerBackend::Ilp;
  SO.DefaultTimeLimitSeconds = 3600.0;
  SO.MaxTimeLimitSeconds = 3600.0;
  Server S(SO);
  Rng R(20261021);
  int Differ = 0;
  for (const Loop &L : Loops) {
    const std::string What = L.G.name() + " " + L.O.Name;
    std::string Input;
    const uint64_t Prefix = 3 + R.nextBelow(3);
    for (uint64_t I = 0; I < Prefix; ++I) {
      const Loop *P = nullptr;
      do
        P = &Prefixes[size_t(R.nextBelow(Prefixes.size()))];
      while (P->G.name() == L.G.name());
      Input += Frame("prefix", *P);
    }
    std::vector<std::string> Lines =
        serve(S, Input + Frame("target", L) + "QUIT\n");
    ASSERT_EQ(Lines.size(), Prefix + 1) << What;
    const std::string &Line = Lines.back(); // One worker: arrival order.
    ASSERT_EQ(field(Line, "id"), "target") << Line;

    SchedulerOptions Opts;
    Opts.Backend = SchedulerBackend::Ilp;
    Opts.Formulation.Obj = L.O.Value;
    Opts.NodeLimit = 200;
    Opts.TimeLimitSeconds = 3600.0;
    Opts.Explain = false;
    Opts.Cache = false;
    // The reference parses the same payload the server parsed.
    std::optional<DependenceGraph> G = parseDdg(L.Ddg, M);
    ASSERT_TRUE(G.has_value()) << What;
    ScheduleResult Fresh = OptimalModuloScheduler(M, Opts).schedule(*G);
    ASSERT_FALSE(Fresh.TimedOut) << What;
    const std::string Status = Fresh.Found          ? "ok"
                               : Fresh.NodeLimitHit ? "node_limit"
                                                    : "unsolved";
    const bool Same =
        field(Line, "status") == Status &&
        field(Line, "nodes") == std::to_string(Fresh.Nodes) &&
        field(Line, "pb_conflicts") == std::to_string(Fresh.PbConflicts) &&
        (!Fresh.Found ||
         (field(Line, "ii") == std::to_string(Fresh.II) &&
          field(Line, "secondary") == jsonNumber(Fresh.SecondaryObjective)));
    if (!Same)
      ++Differ;
    EXPECT_TRUE(Same) << What << ": served " << Line << " vs fresh status "
                      << Status << " ii " << Fresh.II << " secondary "
                      << Fresh.SecondaryObjective << " nodes " << Fresh.Nodes
                      << " pb_conflicts " << Fresh.PbConflicts;
  }
  EXPECT_EQ(Differ, 0) << "of " << Loops.size() << " cases";
}

TEST(ServiceServer, BadPayloadsGetStructuredErrors) {
  Server S(quickOptions());
  std::string BadDdg = "SCHED id=bad1 machine=example3\nDDG 1\n"
                       "this is not a ddg\nEND\n";
  MachineModel M = MachineModel::example3();
  std::string Ddg = exampleDdg();
  std::string BadMachine = "SCHED id=bad2\nMACHINE 1\nnot a machine\n";
  BadMachine += "DDG " + std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
  std::vector<std::string> Lines = serve(S, BadDdg + BadMachine + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_EQ(field(L, "status"), "error") << L;
    EXPECT_FALSE(field(L, "error").empty()) << L;
  }
  EXPECT_EQ(S.stats().Errors, 2);
}

TEST(ServiceServer, ShedsWhenStopping) {
  Server S(quickOptions());
  S.requestShutdown();
  std::vector<std::string> Lines = serve(S, schedFrame("late"));
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(field(Lines[0], "status"), "retry_after") << Lines[0];
  EXPECT_FALSE(field(Lines[0], "retry_after_ms").empty());
  EXPECT_EQ(S.stats().Shed, 1);
  EXPECT_EQ(S.stats().Accepted, 0);
}

TEST(ServiceServer, ShedsWhenQueueOrClientCapIsFull) {
  // One worker and one stream. The first request keeps the worker busy
  // for its whole 1 s budget: livermore7-eos under the traditional
  // MinReg formulation is censored even at 20 s, so the rest of the
  // stream is admitted or shed while it runs, never after. The second
  // frame fills the last admission slot; every later one is shed.
  // Admission is bounded twice: by the queue (queued plus running)
  // and by the client's in-flight cap.
  MachineModel Cydra = MachineModel::cydraLike();
  std::string Busy = printDdg(livermore7(Cydra), Cydra);
  std::string Input = "SCHED id=busy machine=cydra objective=minreg "
                      "dep=traditional time=1\nDDG " +
                      std::to_string(countLines(Busy)) + "\n" + Busy +
                      "END\n";
  const int Requests = 6;
  for (int I = 1; I < Requests; ++I)
    Input += schedFrame("q" + std::to_string(I));
  Input += "STATS\nQUIT\n";

  struct Cap {
    const char *Name;
    int QueueLimit;
    int ClientInFlightLimit;
  };
  for (const Cap &C : {Cap{"queue", 2, 16}, Cap{"client", 16, 2}}) {
    SCOPED_TRACE(C.Name);
    ServerOptions O = quickOptions();
    O.Cache = false;
    O.QueueLimit = C.QueueLimit;
    O.ClientInFlightLimit = C.ClientInFlightLimit;
    Server S(O);
    std::vector<std::string> Lines = serve(S, Input);
    // One reply per frame: the STATS reply plus one per SCHED, whether
    // it was shed at once or answered after it ran.
    ASSERT_EQ(Lines.size(), size_t(Requests) + 1);

    std::map<std::string, std::string> Status;
    std::string Stats;
    for (const std::string &L : Lines) {
      if (L.find("\"stats\":") != std::string::npos) {
        Stats = L;
        continue;
      }
      Status[field(L, "id")] = field(L, "status");
      if (field(L, "status") == "retry_after") {
        EXPECT_EQ(field(L, "retry_after_ms"), std::to_string(O.RetryAfterMs))
            << L;
      }
    }
    ASSERT_EQ(Status.size(), size_t(Requests));
    EXPECT_EQ(Status["busy"], "timeout") << "the first request must hold "
                                            "the worker for its budget";
    EXPECT_EQ(Status["q1"], "ok");
    for (int I = 2; I < Requests; ++I)
      EXPECT_EQ(Status["q" + std::to_string(I)], "retry_after") << I;

    // STATS is answered by the reader, after every SCHED frame was
    // admitted or shed and before the admitted ones finished.
    EXPECT_EQ(field(Stats, "requests"), std::to_string(Requests)) << Stats;
    EXPECT_EQ(field(Stats, "accepted"), "2") << Stats;
    EXPECT_EQ(field(Stats, "shed"), std::to_string(Requests - 2)) << Stats;
    ServerStats After = S.stats();
    EXPECT_EQ(After.Requests, Requests);
    EXPECT_EQ(After.Accepted + After.Shed, After.Requests);
    EXPECT_EQ(After.Shed, Requests - 2);
    EXPECT_EQ(After.Completed, After.Accepted);
    EXPECT_EQ(After.Errors, 0);
  }
}

/// A SCHED frame that holds a worker for its whole 1 s budget:
/// livermore7-eos under the traditional MinReg formulation is censored
/// even at 20 s.
std::string busyFrame(const std::string &Id) {
  MachineModel Cydra = MachineModel::cydraLike();
  std::string Busy = printDdg(livermore7(Cydra), Cydra);
  return "SCHED id=" + Id +
         " machine=cydra objective=minreg dep=traditional time=1\nDDG " +
         std::to_string(countLines(Busy)) + "\n" + Busy + "END\n";
}

/// The merged value of telemetry counter \p Name. Pool workers merge
/// their shards when they exit, so read it once the server is gone.
int64_t counterValue(const char *Name) {
  telemetry::Counter *C = telemetry::findCounter(Name);
  return C ? C->value() : 0;
}

TEST(ServiceServer, ReaderAnswersHitWhileTheOnlyWorkerIsBusy) {
  // Stream A's frame holds the only worker for 1 s. Stream B resubmits
  // a cached loop meanwhile: its reader answers the hit itself, long
  // before A's reply.
  Server S(quickOptions());
  ASSERT_EQ(serve(S, schedFrame("warm") + "QUIT\n", "warm").size(), 1u);
  const ServerStats Warm = S.stats();

  std::atomic<bool> ADone{false};
  std::vector<std::string> ALines;
  std::thread A([&] {
    telemetry::ThreadShardScope Shard; // A reader records solver stats.
    ALines = serve(S, busyFrame("busy") + "QUIT\n", "A");
    ADone.store(true);
  });
  while (S.stats().Accepted == Warm.Accepted)
    std::this_thread::yield();

  const auto Start = std::chrono::steady_clock::now();
  std::vector<std::string> BLines = serve(S, schedFrame("hit") + "QUIT\n", "B");
  const double BSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - Start)
                              .count();
  const bool AWasRunning = !ADone.load();
  A.join();

  ASSERT_EQ(BLines.size(), 1u);
  EXPECT_EQ(field(BLines[0], "status"), "ok") << BLines[0];
  EXPECT_EQ(field(BLines[0], "cache_hit"), "true") << BLines[0];
  EXPECT_TRUE(AWasRunning) << "B's hit waited for A's solve (" << BSeconds
                           << " s)";
  EXPECT_LT(BSeconds, 0.5);
  ASSERT_EQ(ALines.size(), 1u);
  EXPECT_EQ(field(ALines[0], "status"), "timeout") << ALines[0];
  EXPECT_EQ(S.stats().ReaderHits, Warm.ReaderHits + 1);
}

TEST(ServiceServer, OneMissAndOneHitProbeTheCacheOnce) {
  // A miss resolved and probed on the reader is solved on the worker
  // without a second lookup; a hit is one lookup on the reader.
  SolutionCache::global().clear();
  const int64_t Hits0 = counterValue("ilpsched/cache.hits");
  const int64_t Misses0 = counterValue("ilpsched/cache.misses");
  {
    Server S(quickOptions());
    std::vector<std::string> Lines = serve(S, schedFrame("miss") + "QUIT\n");
    ASSERT_EQ(Lines.size(), 1u);
    EXPECT_EQ(field(Lines[0], "cache_hit"), "false") << Lines[0];
  }
  EXPECT_EQ(counterValue("ilpsched/cache.misses") - Misses0, 1);
  EXPECT_EQ(counterValue("ilpsched/cache.hits") - Hits0, 0);
  {
    Server S(quickOptions());
    std::vector<std::string> Lines = serve(S, schedFrame("hit") + "QUIT\n");
    ASSERT_EQ(Lines.size(), 1u);
    EXPECT_EQ(field(Lines[0], "cache_hit"), "true") << Lines[0];
    EXPECT_EQ(S.stats().ReaderHits, 1);
  }
  EXPECT_EQ(counterValue("ilpsched/cache.misses") - Misses0, 1);
  EXPECT_EQ(counterValue("ilpsched/cache.hits") - Hits0, 1);
}

TEST(ServiceServer, HitBehindAnInFlightFrameIsAnsweredAfterIt) {
  // The hit follows a frame the only worker is still running on the
  // same stream: it queues behind it, so it cannot overtake it.
  Server S(quickOptions());
  ASSERT_EQ(serve(S, schedFrame("warm") + "QUIT\n", "warm").size(), 1u);
  const int64_t ReaderHits0 = S.stats().ReaderHits;
  std::vector<std::string> Lines =
      serve(S, busyFrame("busy") + schedFrame("hit") + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(field(Lines[0], "id"), "busy") << Lines[0];
  EXPECT_EQ(field(Lines[0], "status"), "timeout") << Lines[0];
  EXPECT_EQ(field(Lines[1], "id"), "hit") << Lines[1];
  EXPECT_EQ(field(Lines[1], "cache_hit"), "true") << Lines[1];
  EXPECT_EQ(S.stats().ReaderHits, ReaderHits0);
}

TEST(ServiceServer, StatsCountReaderHitsAsAcceptedAndCompleted) {
  SolutionCache::global().clear(); // So the first frame is a miss.
  Server S(quickOptions());
  std::string Input = schedFrame("warm") + "QUIT\n";
  ASSERT_EQ(serve(S, Input, "warm").size(), 1u);
  Input.clear();
  for (int I = 0; I < 3; ++I)
    Input += schedFrame("h" + std::to_string(I));
  std::vector<std::string> Lines = serve(S, Input + "STATS\nQUIT\n");
  ASSERT_EQ(Lines.size(), 4u);
  for (int I = 0; I < 3; ++I) {
    EXPECT_EQ(field(Lines[size_t(I)], "id"), "h" + std::to_string(I));
    EXPECT_EQ(field(Lines[size_t(I)], "cache_hit"), "true")
        << Lines[size_t(I)];
  }
  const std::string &Stats = Lines[3];
  EXPECT_EQ(field(Stats, "requests"), "4") << Stats;
  EXPECT_EQ(field(Stats, "accepted"), "4") << Stats;
  EXPECT_EQ(field(Stats, "shed"), "0") << Stats;
  EXPECT_EQ(field(Stats, "completed"), "4") << Stats;
  EXPECT_EQ(field(Stats, "reader_hits"), "3") << Stats;
  const ServerStats After = S.stats();
  EXPECT_EQ(After.Accepted + After.Shed, After.Requests);
  EXPECT_EQ(After.Completed, After.Accepted);
  EXPECT_EQ(After.CacheHits, 3);
}

TEST(ServiceServer, SurvivesMidRequestDisconnect) {
  Server S(quickOptions());
  // Stream dies inside a DDG payload: fatal framing error, reply
  // written, connection torn down — and the server keeps serving.
  std::vector<std::string> Lines =
      serve(S, "SCHED id=gone machine=example3\nDDG 50\nhalf a payload\n");
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(field(Lines[0], "status"), "error") << Lines[0];

  std::vector<std::string> After = serve(S, schedFrame("alive") + "QUIT\n");
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(field(After[0], "status"), "ok") << After[0];
}

TEST(ServiceServer, DisconnectCancelsTheInFlightSolve) {
  // One worker, the cache off: a request that would run for its whole
  // 60 s budget, then a truncated frame on the same stream. The
  // disconnect cancels the request through its token, which each engine
  // polls, so it concludes "cancelled" long before its budget. Under the
  // PB backend the request is structured (the traditional style falls
  // back to the ILP); PB censors livermore7-eos MinReg even at 20 000
  // conflicts.
  MachineModel Cydra = MachineModel::cydraLike();
  const DependenceGraph Busy = livermore7(Cydra);
  struct Case {
    SchedulerBackend Backend;
    std::string Extra;
  };
  const Case Cases[] = {
      {SchedulerBackend::Ilp, "dep=traditional time=60"},
      {SchedulerBackend::Pb, "time=60"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(toString(C.Backend));
    ServerOptions O = quickOptions();
    O.Cache = false;
    O.Backend = C.Backend;
    O.MaxTimeLimitSeconds = 60.0;
    Server S(O);
    std::vector<std::string> Lines =
        serve(S, cydraFrame("busy", printDdg(Busy, Cydra),
                            "objective=minreg " + C.Extra) +
                     "SCHED id=gone machine=example3\nDDG 50\nhalf\n");
    ASSERT_EQ(Lines.size(), 2u);
    std::string Reply;
    for (const std::string &Line : Lines)
      if (field(Line, "id") == "busy")
        Reply = Line;
    ASSERT_FALSE(Reply.empty()) << Lines[0] << "\n" << Lines[1];
    EXPECT_EQ(field(Reply, "status"), "cancelled") << Reply;
    EXPECT_LT(std::stod(field(Reply, "seconds")), 5.0) << Reply;
    EXPECT_EQ(S.stats().Cancelled, 1);
  }
}

TEST(ServiceServer, PingStatsAndGracefulQuit) {
  Server S(quickOptions());
  std::vector<std::string> Lines =
      serve(S, "PING\n" + schedFrame("last") + "STATS\nQUIT\n");
  ASSERT_GE(Lines.size(), 3u);
  EXPECT_EQ(field(Lines[0], "pong"), "true") << Lines[0];
  bool SawStats = false, SawSolve = false;
  for (const std::string &L : Lines) {
    if (L.find("\"stats\":") != std::string::npos)
      SawStats = true;
    if (field(L, "id") == "last" && field(L, "status") == "ok")
      SawSolve = true;
  }
  EXPECT_TRUE(SawStats);
  EXPECT_TRUE(SawSolve) << "QUIT must still drain the admitted request";
}

/// A SCHED frame carrying \p MachineText inline and the example loop.
std::string inlineFrame(const std::string &Id, const std::string &MachineText,
                        const std::string &Extra = "") {
  std::string Ddg = exampleDdg();
  return "SCHED id=" + Id + (Extra.empty() ? "" : " " + Extra) +
         "\nMACHINE " + std::to_string(countLines(MachineText)) + "\n" +
         MachineText + "DDG " + std::to_string(countLines(Ddg)) + "\n" +
         Ddg + "END\n";
}

TEST(ServiceServer, RepeatedMachineTextReusesTheSameModel) {
  const std::string Text = printMachine(MachineModel::example3());
  Server S(quickOptions());
  std::vector<std::string> Lines =
      serve(S, inlineFrame("a", Text) + inlineFrame("b", Text) + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(field(Lines[0], "status"), "ok") << Lines[0];
  EXPECT_EQ(field(Lines[1], "status"), "ok") << Lines[1];
  EXPECT_EQ(field(Lines[0], "mii"), field(Lines[1], "mii"));
  const std::string Stats = S.statsResponse();
  EXPECT_EQ(field(Stats, "machines_interned"), "1") << Stats;
  EXPECT_EQ(field(Stats, "machine_intern_hits"), "1") << Stats;

  std::string Error;
  std::shared_ptr<const MachineModel> A = S.internMachine(Text, &Error);
  std::shared_ptr<const MachineModel> B = S.internMachine(Text, &Error);
  ASSERT_NE(A, nullptr) << Error;
  EXPECT_EQ(A, B) << "the same bytes were parsed into a second model";
  EXPECT_NE(A->memoizedSignature(), nullptr)
      << "an interned model must carry its signature memoized";
  EXPECT_EQ(S.stats().MachineInternHits, 3);
  EXPECT_EQ(S.stats().MachinesInterned, 1);
}

TEST(ServiceServer, OneByteMachineVariantGetsItsOwnModel) {
  // example3 with its mul latency 4 -> 5: one byte apart. The variant
  // must be answered exactly as a server that never saw the original
  // answers it, MII included.
  const std::string Text = printMachine(MachineModel::example3());
  std::string Variant = Text;
  const std::size_t At = Variant.find("mul latency=4");
  ASSERT_NE(At, std::string::npos) << Text;
  Variant[At + 12] = '5';

  // The solution cache is process-wide: empty it before each server, so
  // both solve the variant rather than replay it.
  SolutionCache::global().clear();
  Server Fresh(quickOptions());
  std::vector<std::string> Alone =
      serve(Fresh, inlineFrame("v", Variant) + "QUIT\n");
  ASSERT_EQ(Alone.size(), 1u);
  SolutionCache::global().clear();
  Server S(quickOptions());
  std::vector<std::string> Lines = serve(
      S, inlineFrame("o", Text) + inlineFrame("v", Variant) + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  ASSERT_EQ(field(Lines[1], "id"), "v") << Lines[1];
  for (const char *Key : {"status", "mii", "ii", "secondary", "cache_hit",
                          "canonical_hash"})
    EXPECT_EQ(field(Lines[1], Key), field(Alone[0], Key))
        << Key << "\n" << Lines[1] << "\n" << Alone[0];
  EXPECT_NE(field(Lines[0], "canonical_hash"),
            field(Lines[1], "canonical_hash"))
      << "the variant was scheduled on the original's model";

  std::string Error;
  EXPECT_NE(S.internMachine(Text, &Error), S.internMachine(Variant, &Error));
  EXPECT_EQ(S.stats().MachinesInterned, 2);
}

TEST(ServiceServer, InternTableStaysAtItsBound) {
  const std::string Base = printMachine(MachineModel::vliw2());
  const std::size_t Body = Base.find('\n');
  auto Named = [&](std::size_t I) {
    return "machine m" + std::to_string(I) + Base.substr(Body);
  };
  const std::size_t Bound = Server::MaxInternedMachines;
  Server S(quickOptions());
  std::string Error;
  std::vector<std::shared_ptr<const MachineModel>> Models;
  for (std::size_t I = 0; I < Bound + 4; ++I) {
    Models.push_back(S.internMachine(Named(I), &Error));
    ASSERT_NE(Models.back(), nullptr) << Error;
    EXPECT_LE(S.stats().MachinesInterned, std::int64_t(Bound));
  }
  EXPECT_EQ(S.stats().MachinesInterned, std::int64_t(Bound));
  EXPECT_EQ(S.stats().MachineInternHits, 0);

  // The newest text is still held; the oldest was dropped for it.
  EXPECT_EQ(S.internMachine(Named(Bound + 3), &Error), Models.back());
  EXPECT_EQ(S.stats().MachineInternHits, 1);
  EXPECT_NE(S.internMachine(Named(0), &Error), Models.front());
  EXPECT_EQ(S.stats().MachineInternHits, 1);
  EXPECT_EQ(S.stats().MachinesInterned, std::int64_t(Bound));
}

TEST(ServiceServer, BadMachineTextIsRejectedEveryTime) {
  const std::string Bad = "machine m\nresource r x1\n"
                          "class a latency=1 uses=q@0\n";
  Server S(quickOptions());
  std::string Input;
  for (int I = 0; I < 3; ++I)
    Input += inlineFrame("b" + std::to_string(I), Bad);
  std::vector<std::string> Lines = serve(S, Input + "QUIT\n");
  ASSERT_EQ(Lines.size(), 3u);
  for (const std::string &L : Lines) {
    EXPECT_EQ(field(L, "status"), "error") << L;
    EXPECT_EQ(field(L, "error"), "bad machine: line 3: unknown resource q")
        << L;
  }
  EXPECT_EQ(S.stats().MachinesInterned, 0);
  EXPECT_EQ(S.stats().MachineInternHits, 0);
  EXPECT_EQ(S.stats().Errors, 3);
}

TEST(ServiceServer, TwoWorkersShareOneInternedModel) {
  // Two clients on two workers send the same machine text at once: the
  // solves run concurrently on one shared model (the sanitizer builds
  // check that sharing), and it is interned once.
  const std::string Text = printMachine(MachineModel::example3());
  const char *Objectives[] = {"noobj", "minreg", "minbuff", "minlife"};
  ServerOptions O = quickOptions();
  O.Workers = 2;
  Server S(O);
  std::vector<std::string> Replies[2];
  std::vector<std::thread> Clients;
  for (int C = 0; C < 2; ++C)
    Clients.emplace_back([&, C] {
      telemetry::ThreadShardScope Shard; // A reader records solver stats.
      std::string Input;
      for (const char *Obj : Objectives)
        Input += inlineFrame(std::to_string(C) + Obj, Text,
                             std::string("objective=") + Obj);
      Replies[C] = serve(S, Input + "QUIT\n", "client" + std::to_string(C));
    });
  for (std::thread &T : Clients)
    T.join();

  // Two workers may finish one client's requests out of order.
  auto Reply = [&](int C, const char *Obj) {
    for (const std::string &L : Replies[C])
      if (field(L, "id") == std::to_string(C) + Obj)
        return L;
    return std::string();
  };
  for (int C = 0; C < 2; ++C) {
    ASSERT_EQ(Replies[C].size(), std::size(Objectives));
    for (const std::string &L : Replies[C])
      EXPECT_EQ(field(L, "status"), "ok") << L;
  }
  for (const char *Obj : Objectives)
    for (const char *Key : {"mii", "ii", "secondary"})
      EXPECT_EQ(field(Reply(0, Obj), Key), field(Reply(1, Obj), Key))
          << Reply(0, Obj) << "\n" << Reply(1, Obj);
  const ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.MachinesInterned, 1);
  // Both workers may parse the text before either interns it.
  EXPECT_GE(Stats.MachineInternHits,
            std::int64_t(2 * std::size(Objectives)) - O.Workers);
}

/// \p Line with its "seconds" field removed: the one field two replies
/// to the same request may differ in.
std::string withoutSeconds(std::string Line) {
  const std::size_t At = Line.find("\"seconds\":");
  if (At != std::string::npos)
    Line.erase(At, Line.find(',', At) + 1 - At);
  return Line;
}

/// The example loop named \p Name, padded with comment lines to at
/// least \p Bytes bytes: the same schedule problem in distinct bytes.
std::string namedDdg(const std::string &Name, std::size_t Bytes = 0) {
  std::string Ddg = exampleDdg();
  const std::size_t Eol = Ddg.find('\n');
  Ddg = "loop " + Name + Ddg.substr(Eol);
  while (Ddg.size() < Bytes)
    Ddg += "# " + std::string(std::min<std::size_t>(Bytes, 32 << 10), 'x') +
           "\n";
  return Ddg;
}

TEST(ServiceServer, RepeatedDdgTextIsAnInternHit) {
  // The loop is in the solution cache, so both frames are answered
  // from it; the second one from the interned loop and Problem.
  {
    Server Warm(quickOptions());
    ASSERT_EQ(serve(Warm, schedFrame("warm") + "QUIT\n").size(), 1u);
  }
  Server S(quickOptions());
  std::vector<std::string> First = serve(S, schedFrame("r") + "QUIT\n");
  ASSERT_EQ(First.size(), 1u);
  EXPECT_EQ(field(First[0], "cache_hit"), "true") << First[0];
  const ServerStats Before = S.stats();
  EXPECT_EQ(Before.LoopInternHits, 0);
  EXPECT_EQ(Before.LoopsInterned, 1);

  std::vector<std::string> Second = serve(S, schedFrame("r") + "QUIT\n");
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(withoutSeconds(Second[0]), withoutSeconds(First[0]));
  const std::string Stats = S.statsResponse();
  EXPECT_EQ(field(Stats, "loop_intern_hits"), "1") << Stats;
  EXPECT_EQ(field(Stats, "loops_interned"), "1") << Stats;
  EXPECT_GT(S.stats().LoopInternBytes, 0);
}

TEST(ServiceServer, DdgVariantsGetTheirOwnEntries) {
  // Each variant differs from the original in one input of its
  // Problem: one latency byte, the objective, or the machine. Each
  // must be answered as a server that never saw the original answers
  // it.
  const std::string Ddg = exampleDdg();
  std::string Latency = Ddg;
  const std::size_t At = Latency.find("latency=4");
  ASSERT_NE(At, std::string::npos) << Ddg;
  Latency[At + 8] = '5';
  const std::string Original = ddgFrame("o", Ddg);
  const std::string Variants[] = {
      ddgFrame("v", Latency),
      ddgFrame("v", Ddg, "machine=example3 objective=noobj"),
      ddgFrame("v", Ddg, "machine=cydra"),
  };
  for (const std::string &Variant : Variants) {
    SCOPED_TRACE(Variant.substr(0, Variant.find('\n')));
    SolutionCache::global().clear();
    Server Fresh(quickOptions());
    std::vector<std::string> Alone = serve(Fresh, Variant + "QUIT\n");
    ASSERT_EQ(Alone.size(), 1u);
    SolutionCache::global().clear();
    Server S(quickOptions());
    std::vector<std::string> Lines = serve(S, Original + Variant + "QUIT\n");
    ASSERT_EQ(Lines.size(), 2u);
    ASSERT_EQ(field(Lines[1], "id"), "v") << Lines[1];
    for (const char *Key : {"status", "objective", "mii", "ii", "secondary",
                            "cache_hit", "canonical_hash"})
      EXPECT_EQ(field(Lines[1], Key), field(Alone[0], Key))
          << Key << "\n" << Lines[1] << "\n" << Alone[0];
    EXPECT_NE(field(Lines[0], "canonical_hash"),
              field(Lines[1], "canonical_hash"));
    EXPECT_EQ(S.stats().LoopsInterned, 2);
    EXPECT_EQ(S.stats().LoopInternHits, 0);
  }
}

TEST(ServiceServer, LoopInternTableStaysWithinItsBounds) {
  // Distinct names make distinct payloads of one schedule problem: the
  // first is solved, every other one is a cache hit on the reader.
  const std::size_t Bound = Server::MaxInternedLoops;
  const auto Budget = std::int64_t(Server::MaxInternedLoopBytes);
  const std::size_t Batch = 128, Sent = (Bound / Batch + 1) * Batch;
  Server S(quickOptions());
  ASSERT_EQ(serve(S, ddgFrame("l0", namedDdg("l0")) + "QUIT\n").size(), 1u);
  for (std::size_t First = 1; First <= Sent; First += Batch) {
    std::string Input;
    for (std::size_t I = First; I < First + Batch; ++I)
      Input += ddgFrame("l", namedDdg("l" + std::to_string(I)));
    std::vector<std::string> Lines = serve(S, Input + "QUIT\n");
    ASSERT_EQ(Lines.size(), Batch);
    for (const std::string &L : Lines)
      ASSERT_EQ(field(L, "status"), "ok") << L;
    const ServerStats Stats = S.stats();
    EXPECT_LE(Stats.LoopsInterned, std::int64_t(Bound));
    EXPECT_LE(Stats.LoopInternBytes, Budget);
  }
  EXPECT_EQ(S.stats().LoopsInterned, std::int64_t(Bound));
  EXPECT_EQ(S.stats().LoopInternHits, 0);

  // The newest payload is still held, the oldest was dropped for it.
  const std::string Newest = "l" + std::to_string(Sent);
  serve(S, ddgFrame("n", namedDdg(Newest)) + "QUIT\n");
  EXPECT_EQ(S.stats().LoopInternHits, 1);
  serve(S, ddgFrame("o", namedDdg("l0")) + "QUIT\n");
  EXPECT_EQ(S.stats().LoopInternHits, 1);

  // Large payloads: the byte budget binds before the entry bound.
  const std::size_t Large = Server::MaxInternedLoopBytes / 5;
  for (int I = 0; I < 8; ++I) {
    std::vector<std::string> Lines = serve(
        S, ddgFrame("b", namedDdg("b" + std::to_string(I), Large)) + "QUIT\n");
    ASSERT_EQ(Lines.size(), 1u);
    EXPECT_EQ(field(Lines[0], "status"), "ok") << Lines[0];
    EXPECT_LE(S.stats().LoopInternBytes, Budget);
  }
  EXPECT_LT(S.stats().LoopsInterned, std::int64_t(Bound));
}

TEST(ServiceServer, PayloadOverTheByteBudgetIsAnsweredButNotInterned) {
  const std::string Huge =
      namedDdg("huge", Server::MaxInternedLoopBytes + 1);
  ASSERT_LT(Huge.size(), ProtocolLimits().MaxPayloadBytes);
  Server S(quickOptions());
  for (int I = 0; I < 2; ++I) {
    std::vector<std::string> Lines =
        serve(S, ddgFrame("h" + std::to_string(I), Huge) + "QUIT\n");
    ASSERT_EQ(Lines.size(), 1u);
    EXPECT_EQ(field(Lines[0], "status"), "ok") << Lines[0];
    EXPECT_EQ(field(Lines[0], "loop"), "huge") << Lines[0];
  }
  const ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.LoopsInterned, 0);
  EXPECT_EQ(Stats.LoopInternBytes, 0);
  EXPECT_EQ(Stats.LoopInternHits, 0);
}

TEST(ServiceServer, BadDdgTextIsRejectedEveryTime) {
  const std::string Bad = "loop q\nop a add\nedge a z latency=1 omega=0\n";
  Server S(quickOptions());
  std::string Input;
  for (int I = 0; I < 3; ++I)
    Input += ddgFrame("b" + std::to_string(I), Bad);
  std::vector<std::string> Lines = serve(S, Input + "QUIT\n");
  ASSERT_EQ(Lines.size(), 3u);
  for (const std::string &L : Lines) {
    EXPECT_EQ(field(L, "status"), "error") << L;
    EXPECT_EQ(field(L, "error"), "bad ddg: line 3: unknown operation in edge")
        << L;
  }
  EXPECT_EQ(S.stats().LoopsInterned, 0);
  EXPECT_EQ(S.stats().LoopInternHits, 0);
  EXPECT_EQ(S.stats().Errors, 3);
}

TEST(ServiceServer, TwoWorkersShareOneInternedLoop) {
  // Two clients on two workers send the same DDG text under each
  // objective, twice: the requests of one objective share one loop and
  // Problem, whose canonical labeling the first of them computes while
  // the others may be reading it (the sanitizer builds check that).
  SolutionCache::global().clear();
  const std::string Ddg = exampleDdg();
  const char *Objectives[] = {"noobj", "minreg", "minbuff", "minlife"};
  const int64_t Misses0 = counterValue("service/loop_intern.misses");
  ServerOptions O = quickOptions();
  O.Workers = 2;
  std::vector<std::string> Replies[2];
  ServerStats Stats;
  {
    Server S(O);
    std::vector<std::thread> Clients;
    for (int C = 0; C < 2; ++C)
      Clients.emplace_back([&, C] {
        telemetry::ThreadShardScope Shard; // A reader records solver stats.
        std::string Input;
        for (int Pass = 0; Pass < 2; ++Pass)
          for (const char *Obj : Objectives)
            Input += ddgFrame(std::to_string(C) + Obj, Ddg,
                              std::string("machine=example3 objective=") +
                                  Obj);
        Replies[C] = serve(S, Input + "QUIT\n", "client" + std::to_string(C));
      });
    for (std::thread &T : Clients)
      T.join();
    Stats = S.stats();
  }
  const int64_t Requests = 2 * 2 * std::int64_t(std::size(Objectives));
  for (int C = 0; C < 2; ++C) {
    ASSERT_EQ(Replies[C].size(), 2 * std::size(Objectives));
    for (const std::string &L : Replies[C])
      EXPECT_EQ(field(L, "status"), "ok") << L;
  }
  std::map<std::string, std::string> Verdict;
  for (int C = 0; C < 2; ++C)
    for (const std::string &L : Replies[C]) {
      const std::string Obj = field(L, "id").substr(1);
      const std::string V = field(L, "mii") + " " + field(L, "ii") + " " +
                            field(L, "secondary") + " " +
                            field(L, "canonical_hash");
      EXPECT_EQ(Verdict.try_emplace(Obj, V).first->second, V) << L;
    }
  EXPECT_EQ(Stats.LoopsInterned, std::int64_t(std::size(Objectives)));
  // Concurrent first requests may each parse the text; they still end
  // up with the one interned entry.
  const int64_t Misses = counterValue("service/loop_intern.misses") - Misses0;
  EXPECT_EQ(Stats.LoopInternHits + Misses, Requests);
  EXPECT_GE(Misses, std::int64_t(std::size(Objectives)));
  EXPECT_GE(Stats.LoopInternHits, 1);
}

TEST(ServiceServer, PbFallbackWarnsOncePerSolveOfASharedProblem) {
  // MinSL is outside the PB encoding, so each solve falls back to the
  // ILP and says so. The second request solves the first one's interned
  // Problem (the cache is off) and must warn again.
  ServerOptions O = quickOptions();
  O.Backend = SchedulerBackend::Pb;
  O.Cache = false;
  Server S(O);
  const std::string Frame =
      ddgFrame("s", exampleDdg(), "machine=example3 objective=minsl");
  testing::internal::CaptureStderr();
  std::vector<std::string> Lines = serve(S, Frame + Frame + "QUIT\n");
  const std::string Err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines)
    EXPECT_EQ(field(L, "status"), "ok") << L;
  EXPECT_EQ(S.stats().LoopInternHits, 1);
  std::size_t Warnings = 0;
  for (std::size_t At = Err.find("falling back to ILP");
       At != std::string::npos; At = Err.find("falling back to ILP", At + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 2u) << Err;
}

/// Connects to the Unix socket at \p Path, sends \p Msg, half-closes
/// and returns everything the server wrote before closing.
std::string socketExchange(const std::string &Path, const std::string &Msg) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  if (Fd < 0)
    return "";
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  EXPECT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  std::string Reply;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    ::close(Fd);
    return Reply;
  }
  EXPECT_EQ(::send(Fd, Msg.data(), Msg.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Msg.size()));
  ::shutdown(Fd, SHUT_WR);
  char Buf[256];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Reply.append(Buf, static_cast<std::size_t>(N));
  ::close(Fd);
  return Reply;
}

std::string testSocketPath() {
  return "/tmp/modsched-servicetest-" + std::to_string(::getpid()) + ".sock";
}

/// This process's virtual address-space size in kB (VmSize), or -1.
long vmSizeKb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return -1;
  long Kb = -1;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmSize: %ld kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb;
}

TEST(ServiceServer, UnixSocketSmoke) {
  std::string Path = testSocketPath();
  Server S(quickOptions());
  std::string Error;
  ASSERT_TRUE(S.listenUnix(Path, &Error)) << Error;
  std::thread Acceptor([&S] { S.acceptLoop(); });

  std::string Reply = socketExchange(Path, "PING\nQUIT\n");
  EXPECT_NE(Reply.find("\"pong\":true"), std::string::npos) << Reply;

  S.requestShutdown();
  Acceptor.join();
  ::unlink(Path.c_str());
}

TEST(ServiceServer, SequentialSocketConnectionsDoNotGrowAddressSpace) {
  // Each connection runs on its own handler thread with a multi-MB
  // stack. A daemon that joins handlers only at shutdown grows by one
  // stack per connection served; finished handlers must be reaped.
  std::string Path = testSocketPath();
  Server S(quickOptions());
  std::string Error;
  ASSERT_TRUE(S.listenUnix(Path, &Error)) << Error;
  std::thread Acceptor([&S] { S.acceptLoop(); });

  // Warm-up connections first, so one-time costs (a malloc arena for
  // handler threads, the thread-stack cache) land before the baseline.
  for (int I = 0; I < 4; ++I)
    EXPECT_NE(socketExchange(Path, "PING\nQUIT\n").find("\"pong\":true"),
              std::string::npos);
  const long Before = vmSizeKb();
  for (int I = 0; I < 64; ++I)
    EXPECT_NE(socketExchange(Path, "PING\nQUIT\n").find("\"pong\":true"),
              std::string::npos);
  const long After = vmSizeKb();

  S.requestShutdown();
  Acceptor.join();
  ::unlink(Path.c_str());
  if (Before < 0 || After < 0)
    GTEST_SKIP() << "no /proc/self/status VmSize";
  EXPECT_LT(After - Before, 64L * 1024)
      << "VmSize grew " << (After - Before) / 1024
      << " MB over 64 sequential connections";
}

} // namespace
