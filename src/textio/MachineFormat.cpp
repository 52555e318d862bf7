//===- textio/MachineFormat.cpp - Machine description text format ---------===//

#include "textio/MachineFormat.h"

#include "support/TextScan.h"

#include <cstdio>
#include <vector>

using namespace modsched;

namespace {

std::optional<MachineModel> fail(std::string *Error, int LineNo,
                                 const std::string &Message) {
  if (Error) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "line %d: %s", LineNo, Message.c_str());
    *Error = Buf;
  }
  return std::nullopt;
}

/// Parses a non-negative integer; returns -1 on failure.
int parseInt(std::string_view S) {
  if (S.empty())
    return -1;
  int Value = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return -1;
    Value = Value * 10 + (C - '0');
    if (Value > 1000000)
      return -1;
  }
  return Value;
}

} // namespace

std::optional<MachineModel> modsched::parseMachine(const std::string &Text,
                                                   std::string *Error) {
  MachineModel M;
  NameIndex ResourceByName; // Ids match resource indices.
  LineReader Lines(Text);
  std::string_view Line;
  int LineNo = 0;

  while (Lines.next(Line)) {
    ++LineNo;
    std::string_view Tok[4];
    std::size_t NumToks = splitTokens(Line, Tok);
    if (NumToks == 0)
      continue;

    if (Tok[0] == "machine") {
      if (NumToks != 2)
        return fail(Error, LineNo, "expected: machine <name>");
      M.setName(std::string(Tok[1]));
      continue;
    }
    if (Tok[0] == "resource") {
      if (NumToks != 3 || !Tok[2].starts_with('x'))
        return fail(Error, LineNo, "expected: resource <name> x<count>");
      int Count = parseInt(Tok[2].substr(1));
      if (Count <= 0)
        return fail(Error, LineNo, "resource count must be positive");
      if (!ResourceByName.insert(Tok[1]))
        return fail(Error, LineNo, "duplicate resource " + std::string(Tok[1]));
      M.addResource(std::string(Tok[1]), Count);
      continue;
    }
    if (Tok[0] == "class") {
      if (NumToks != 4 || !Tok[2].starts_with("latency=") ||
          !Tok[3].starts_with("uses="))
        return fail(Error, LineNo,
                    "expected: class <name> latency=<l> uses=<r>@<c>,...");
      int Latency = parseInt(Tok[2].substr(8));
      if (Latency < 0)
        return fail(Error, LineNo, "malformed latency");
      if (M.findOpClass(Tok[1]))
        return fail(Error, LineNo, "duplicate class " + std::string(Tok[1]));

      std::vector<ResourceUsage> Usages;
      LineReader Items(Tok[3].substr(5), ',');
      std::string_view Item;
      while (Items.next(Item)) {
        if (Item.empty())
          continue;
        std::size_t At = Item.find('@');
        if (At == std::string_view::npos)
          return fail(Error, LineNo, "usage must be <resource>@<cycle>");
        std::string_view ResName = Item.substr(0, At);
        int Resource = ResourceByName.find(ResName);
        if (Resource < 0)
          return fail(Error, LineNo,
                      "unknown resource " + std::string(ResName));
        int Cycle = parseInt(Item.substr(At + 1));
        if (Cycle < 0)
          return fail(Error, LineNo, "malformed usage cycle");
        Usages.push_back({Resource, Cycle});
      }
      M.addOpClass(std::string(Tok[1]), Latency, std::move(Usages));
      continue;
    }
    return fail(Error, LineNo, "unknown directive " + std::string(Tok[0]));
  }

  if (M.numOpClasses() == 0)
    return fail(Error, LineNo, "machine defines no operation classes");
  return M;
}

std::string modsched::printMachine(const MachineModel &M) {
  // MachineModel::toString already emits the parseable format; keep a
  // dedicated entry point so callers do not depend on that coincidence.
  return M.toString();
}
