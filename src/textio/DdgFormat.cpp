//===- textio/DdgFormat.cpp - Loop text format -----------------------------===//

#include "textio/DdgFormat.h"

#include "support/TextScan.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

using namespace modsched;

namespace {

/// Parses "<key>=<value>" (\p Key includes the '=') with an int value
/// under std::stoi's rules; returns false on mismatch.
bool parseKeyInt(std::string_view Tok, std::string_view Key, int &Out) {
  return Tok.starts_with(Key) &&
         parseSignedDecimal(Tok.substr(Key.size()), Out);
}

std::optional<DependenceGraph> fail(std::string *Error, int LineNo,
                                    const std::string &Message) {
  if (Error) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "line %d: %s", LineNo, Message.c_str());
    *Error = Buf;
  }
  return std::nullopt;
}

} // namespace

std::optional<DependenceGraph> modsched::parseDdg(const std::string &Text,
                                                  const MachineModel &M,
                                                  std::string *Error) {
  DependenceGraph G;
  NameIndex OpByName; // Ids match operation indices.
  LineReader Lines(Text);
  std::string_view Line;
  int LineNo = 0;

  while (Lines.next(Line)) {
    ++LineNo;
    std::string_view Tok[5];
    std::size_t NumToks = splitTokens(Line, Tok);
    if (NumToks == 0)
      continue;
    std::string_view Directive = Tok[0];

    if (Directive == "loop") {
      if (NumToks != 2)
        return fail(Error, LineNo, "expected: loop <name>");
      G.setName(std::string(Tok[1]));
      continue;
    }
    if (Directive == "op") {
      if (NumToks != 3)
        return fail(Error, LineNo, "expected: op <name> <class>");
      if (!OpByName.insert(Tok[1]))
        return fail(Error, LineNo,
                    "duplicate operation name " + std::string(Tok[1]));
      std::optional<int> Class = M.findOpClass(Tok[2]);
      if (!Class)
        return fail(Error, LineNo,
                    "unknown operation class " + std::string(Tok[2]));
      G.addOperation(std::string(Tok[1]), *Class);
      continue;
    }
    if (Directive == "flow" || Directive == "edge") {
      if (NumToks != 5)
        return fail(Error, LineNo,
                    "expected: " + std::string(Directive) +
                        " <src> <dst> latency=<l> omega=<w>");
      int Src = OpByName.find(Tok[1]);
      int Dst = OpByName.find(Tok[2]);
      if (Src < 0 || Dst < 0)
        return fail(Error, LineNo, "unknown operation in edge");
      int Latency = 0, Omega = 0;
      if (!parseKeyInt(Tok[3], "latency=", Latency) ||
          !parseKeyInt(Tok[4], "omega=", Omega))
        return fail(Error, LineNo, "malformed latency/omega");
      if (Omega < 0)
        return fail(Error, LineNo, "omega must be non-negative");
      if (Directive == "flow")
        G.addFlowDependence(Src, Dst, Latency, Omega);
      else
        G.addSchedEdge(Src, Dst, Latency, Omega);
      continue;
    }
    return fail(Error, LineNo, "unknown directive " + std::string(Directive));
  }

  // A problem of the whole graph (a zero-distance cycle) is reported at
  // the last line, where the graph is complete.
  if (std::optional<std::string> Problem = G.validate())
    return fail(Error, LineNo, *Problem);
  return G;
}

std::optional<DependenceGraph>
modsched::loadDdgFile(const std::string &Path, const MachineModel &M,
                      std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return std::nullopt;
  }
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return parseDdg(Text, M, Error);
}

std::string modsched::printDdg(const DependenceGraph &G,
                               const MachineModel &M) {
  // Names are appended as they are (see MachineModel::toString).
  std::string Out = "loop " + G.name() + "\n";
  for (const Operation &Op : G.operations())
    Out += "op " + Op.Name + " " + M.opClass(Op.OpClass).Name + "\n";
  // Flow edges are those matching a (def, use, distance) register record;
  // emit them as "flow" and everything else as "edge". Each register use
  // consumes one matching sched edge.
  std::vector<std::vector<std::pair<int, int>>> PendingUses(
      G.numOperations()); // def -> list of (use, distance) not yet matched
  for (const VirtualRegister &R : G.registers())
    for (const RegisterUse &U : R.Uses)
      PendingUses[R.Def].push_back({U.Consumer, U.Distance});

  for (const SchedEdge &E : G.schedEdges()) {
    bool IsFlow = false;
    auto &Uses = PendingUses[E.Src];
    for (size_t I = 0; I < Uses.size(); ++I) {
      if (Uses[I].first == E.Dst && Uses[I].second == E.Distance) {
        Uses.erase(Uses.begin() + I);
        IsFlow = true;
        break;
      }
    }
    Out += (IsFlow ? "flow " : "edge ") + G.operation(E.Src).Name + " " +
           G.operation(E.Dst).Name + " latency=" + std::to_string(E.Latency) +
           " omega=" + std::to_string(E.Distance) + "\n";
  }
  return Out;
}
