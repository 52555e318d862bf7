//===- tests/MachineFormatTest.cpp - machine text format tests -------------===//

#include "textio/MachineFormat.h"

#include <gtest/gtest.h>

using namespace modsched;

TEST(MachineFormat, ParsesMinimalMachine) {
  std::string Text = R"(# tiny machine
machine tiny
resource alu x2
class add latency=1 uses=alu@0
class nopclass latency=1 uses=
)";
  std::string Error;
  auto M = parseMachine(Text, &Error);
  ASSERT_TRUE(M.has_value()) << Error;
  EXPECT_EQ(M->name(), "tiny");
  EXPECT_EQ(M->numResources(), 1);
  EXPECT_EQ(M->resource(0).Count, 2);
  ASSERT_TRUE(M->findOpClass("add").has_value());
  EXPECT_EQ(M->opClass(*M->findOpClass("add")).Latency, 1);
}

TEST(MachineFormat, ParsesMultiCycleUsages) {
  std::string Text = R"(machine m
resource fmul x1
resource bus x2
class mul latency=4 uses=fmul@0,fmul@1,bus@4
)";
  auto M = parseMachine(Text);
  ASSERT_TRUE(M.has_value());
  const OpClass &C = M->opClass(*M->findOpClass("mul"));
  ASSERT_EQ(C.Usages.size(), 3u);
  EXPECT_EQ(C.Usages[1].Cycle, 1);
  EXPECT_EQ(C.Usages[2].Resource, 1);
  EXPECT_EQ(C.Usages[2].Cycle, 4);
}

TEST(MachineFormat, RejectsUnknownResource) {
  std::string Error;
  EXPECT_FALSE(parseMachine("machine m\nclass a latency=1 uses=ghost@0\n",
                            &Error)
                   .has_value());
  EXPECT_NE(Error.find("unknown resource"), std::string::npos);
}

TEST(MachineFormat, RejectsBadCounts) {
  std::string Error;
  EXPECT_FALSE(parseMachine("resource r x0\nclass a latency=1 uses=\n",
                            &Error)
                   .has_value());
  EXPECT_FALSE(parseMachine("resource r y3\nclass a latency=1 uses=\n",
                            &Error)
                   .has_value());
}

TEST(MachineFormat, RejectsDuplicates) {
  std::string Error;
  EXPECT_FALSE(parseMachine("resource r x1\nresource r x2\n"
                            "class a latency=1 uses=\n",
                            &Error)
                   .has_value());
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(parseMachine("resource r x1\nclass a latency=1 uses=\n"
                            "class a latency=2 uses=\n",
                            &Error)
                   .has_value());
}

TEST(MachineFormat, RejectsEmptyMachine) {
  std::string Error;
  EXPECT_FALSE(parseMachine("machine m\nresource r x1\n", &Error)
                   .has_value());
  EXPECT_NE(Error.find("no operation classes"), std::string::npos);
}

TEST(MachineFormat, RoundTripsBuiltins) {
  for (MachineModel M : {MachineModel::example3(), MachineModel::vliw2(),
                         MachineModel::cydraLike()}) {
    std::string Text = printMachine(M);
    std::string Error;
    auto Parsed = parseMachine(Text, &Error);
    ASSERT_TRUE(Parsed.has_value()) << M.name() << ": " << Error;
    EXPECT_EQ(Parsed->numResources(), M.numResources());
    EXPECT_EQ(Parsed->numOpClasses(), M.numOpClasses());
    EXPECT_EQ(printMachine(*Parsed), Text) << M.name();
  }
}

namespace {

/// One pinned parseMachine case: the input, and either the expected
/// printMachine rendering of the accepted machine or the exact error.
struct MachinePin {
  const char *Name;
  std::string Text;
  bool Accept;
  std::string Expected;
};

} // namespace

TEST(MachineFormat, PinnedAcceptRejectAndErrors) {
  const std::string Tiny = "machine m\n  resource r x1\n"
                           "  class a latency=1 uses=r@0\n";
  const MachinePin Pins[] = {
      // Line endings and whitespace.
      {"crlf", "machine m\r\nresource r x1\r\nclass a latency=1 uses=r@0\r\n",
       true, Tiny},
      {"tabs", "machine\tm\nresource\tr\tx1\nclass a\tlatency=1\tuses=r@0\n",
       true, Tiny},
      {"vt and ff", "machine\vm\nresource r\fx1\nclass\va latency=1 uses=r@0\n",
       true, Tiny},
      {"blank and whitespace-only lines",
       "\n \t\nmachine m\n\r\n\v\nresource r x1\n\nclass a latency=1 "
       "uses=r@0\n\n\n",
       true, Tiny},
      {"no final newline",
       "machine m\nresource r x1\nclass a latency=1 uses=r@0", true, Tiny},
      {"crlf error line", "resource r x1\r\nresource r x2\r\n", false,
       "line 2: duplicate resource r"},
      // Comments.
      {"comments", "# header\nmachine m # name\nresource r x1 #\n"
                   "  # indented\nclass a latency=1 uses=r@0 #x y\n",
       true, Tiny},
      {"hash inside tokens", "machine m#1\nresource r#2 x1\n"
                             "class a#3 latency=1 uses=r#2@0\n",
       true, "machine m#1\n  resource r#2 x1\n"
             "  class a#3 latency=1 uses=r#2@0\n"},
      {"comment cuts arity", "resource r # x1\n", false,
       "line 1: expected: resource <name> x<count>"},
      // Integers.
      {"plus latency", "resource r x1\nclass a latency=+5 uses=r@0\n", false,
       "line 2: malformed latency"},
      {"negative latency", "resource r x1\nclass a latency=-3 uses=r@0\n",
       false, "line 2: malformed latency"},
      {"hex latency", "resource r x1\nclass a latency=0x10 uses=r@0\n", false,
       "line 2: malformed latency"},
      {"empty latency", "resource r x1\nclass a latency= uses=r@0\n", false,
       "line 2: malformed latency"},
      {"huge latency",
       "resource r x1\nclass a latency=99999999999 uses=r@0\n", false,
       "line 2: malformed latency"},
      {"latency cap", "resource r x1\nclass a latency=1000000 uses=r@7\n",
       true, "machine machine\n  resource r x1\n"
             "  class a latency=1000000 uses=r@7\n"},
      {"latency cap plus one",
       "resource r x1\nclass a latency=1000001 uses=r@0\n", false,
       "line 2: malformed latency"},
      {"zero count", "resource r x0\n", false,
       "line 1: resource count must be positive"},
      {"bare x", "resource r x\n", false,
       "line 1: resource count must be positive"},
      {"plus count", "resource r x+1\n", false,
       "line 1: resource count must be positive"},
      {"count prefix", "resource r y3\n", false,
       "line 1: expected: resource <name> x<count>"},
      {"resource arity", "resource r\n", false,
       "line 1: expected: resource <name> x<count>"},
      {"bad count before duplicate", "resource r x1\nresource r x0\n", false,
       "line 2: resource count must be positive"},
      // Names, usages and directives.
      {"duplicate resource", "resource r x1\nresource s x1\nresource r x2\n",
       false, "line 3: duplicate resource r"},
      {"duplicate class",
       "resource r x1\nclass a latency=1 uses=\nclass b latency=1 uses=\n"
       "class a latency=2 uses=r@0\n",
       false, "line 4: duplicate class a"},
      {"bad latency before duplicate class",
       "class a latency=1 uses=\nclass a latency=x uses=\n", false,
       "line 2: malformed latency"},
      {"unknown resource",
       "resource r x1\nclass a latency=1 uses=r@0,ghost@1\n", false,
       "line 2: unknown resource ghost"},
      {"usage without at", "resource r x1\nclass a latency=1 uses=r@0,r1\n",
       false, "line 2: usage must be <resource>@<cycle>"},
      {"empty usage items",
       "resource a x1\nresource b x2\nclass c latency=2 uses=a@0,,b@1\n",
       true, "machine machine\n  resource a x1\n  resource b x2\n"
             "  class c latency=2 uses=a@0,b@1\n"},
      {"leading and trailing commas",
       "resource a x1\nclass c latency=2 uses=,a@0,a@1,\n", true,
       "machine machine\n  resource a x1\n  class c latency=2 uses=a@0,a@1\n"},
      {"only commas", "resource a x1\nclass c latency=2 uses=,,\n", true,
       "machine machine\n  resource a x1\n  class c latency=2 uses=\n"},
      {"empty resource name", "resource r x1\nclass a latency=1 uses=@0\n",
       false, "line 2: unknown resource "},
      {"empty cycle", "resource r x1\nclass a latency=1 uses=r@\n", false,
       "line 2: malformed usage cycle"},
      {"two ats", "resource r x1\nclass a latency=1 uses=r@1@2\n", false,
       "line 2: malformed usage cycle"},
      {"unknown resource before bad cycle",
       "resource r x1\nclass a latency=1 uses=ghost@x\n", false,
       "line 2: unknown resource ghost"},
      {"usage of later resource",
       "class a latency=1 uses=r@0\nresource r x1\n", false,
       "line 1: unknown resource r"},
      {"class arity", "class a latency=1\n", false,
       "line 1: expected: class <name> latency=<l> uses=<r>@<c>,..."},
      {"class key order", "class a uses=r@0 latency=1\n", false,
       "line 1: expected: class <name> latency=<l> uses=<r>@<c>,..."},
      {"machine arity", "machine\n", false, "line 1: expected: machine <name>"},
      {"unknown directive", "resource r x1\nfrob\n", false,
       "line 2: unknown directive frob"},
      {"no classes", "machine m\nresource r x1\n", false,
       "line 2: machine defines no operation classes"},
      {"no classes, trailing blanks", "machine m\n\n\n", false,
       "line 3: machine defines no operation classes"},
      {"empty text", "", false, "line 0: machine defines no operation classes"},
      {"error text is capped at 255 bytes",
       "resource " + std::string(300, 'q') + " x1\nresource " +
           std::string(300, 'q') + " x1\n",
       false, "line 2: duplicate resource " + std::string(228, 'q')},
  };
  for (const MachinePin &P : Pins) {
    std::string Error;
    std::optional<MachineModel> M = parseMachine(P.Text, &Error);
    ASSERT_EQ(M.has_value(), P.Accept) << P.Name << ": " << Error;
    if (P.Accept) {
      EXPECT_EQ(printMachine(*M), P.Expected) << P.Name;
    } else {
      EXPECT_EQ(Error, P.Expected) << P.Name;
    }
  }
}
