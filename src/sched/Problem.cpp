//===- sched/Problem.cpp - Canonical modulo-scheduling problem ------------===//

#include "sched/Problem.h"

#include "graph/GraphAlgorithms.h"
#include "support/Hash.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>

using namespace modsched;

const char *modsched::toString(Objective Obj) {
  switch (Obj) {
  case Objective::None:
    return "NoObj";
  case Objective::MinReg:
    return "MinReg";
  case Objective::MinBuff:
    return "MinBuff";
  case Objective::MinLife:
    return "MinLife";
  case Objective::MinSL:
    return "MinSL";
  }
  return "unknown";
}

const char *modsched::toString(DependenceStyle Style) {
  switch (Style) {
  case DependenceStyle::Traditional:
    return "traditional";
  case DependenceStyle::Structured:
    return "structured";
  case DependenceStyle::StructuredLoose:
    return "structured-loose";
  }
  return "unknown";
}

namespace {

uint64_t optionsDigest(const FormulationOptions &Opts) {
  uint64_t H = hashMix(0x6f707473u); // "opts"
  H = hashCombine(H, static_cast<uint64_t>(Opts.Obj));
  H = hashCombine(H, static_cast<uint64_t>(Opts.DepStyle));
  H = hashCombine(H, static_cast<uint64_t>(Opts.ObjStyle));
  H = hashCombine(H, static_cast<uint64_t>(
                         static_cast<int64_t>(Opts.ScheduleLengthSlack)));
  H = hashCombine(H, Opts.TightenStageBounds ? 1 : 0);
  H = hashCombine(H, Opts.InstanceMapped ? 1 : 0);
  H = hashCombine(H, static_cast<uint64_t>(
                         static_cast<int64_t>(Opts.RegisterLimit)));
  return H;
}

uint64_t asWord(int Value) {
  return static_cast<uint64_t>(static_cast<int64_t>(Value));
}

} // namespace

void Problem::computeCanonical() const {
  const int N = G.numOperations();
  const std::vector<VirtualRegister> &Registers = G.registers();

  // RegisterOf[op] = register defined by op, or -1. Defs are unique
  // (DependenceGraph::ensureRegister).
  std::vector<int> RegisterOf(N, -1);
  size_t NumUses = 0;
  for (int R = 0; R < G.numRegisters(); ++R) {
    RegisterOf[Registers[R].Def] = R;
    NumUses += Registers[R].Uses.size();
  }

  // Node colors: the opclass signature (latency + canonical resource
  // usages — names excluded) plus the register-def shape of the node.
  // Register USES become colored edges below, so two defs differ here
  // only in whether they own a register and whether it is unconsumed
  // (an unconsumed register is still live for one cycle).
  // A model shared across requests carries its signature memoized.
  std::optional<MachineModel::Signature> FreshSig;
  const MachineModel::Signature *Memo = M.memoizedSignature();
  if (!Memo)
    Memo = &FreshSig.emplace(M.signature());
  const MachineModel::Signature &MachineSig = *Memo;
  std::vector<uint64_t> Colors(N);
  for (int Op = 0; Op < N; ++Op) {
    uint64_t H = hashMix(0x6e6f6465u); // "node"
    H = hashCombine(H, MachineSig.OpClass[G.operation(Op).OpClass]);
    int Reg = RegisterOf[Op];
    H = hashCombine(H, Reg < 0 ? 0u : 1u);
    H = hashCombine(H, (Reg >= 0 && Registers[Reg].Uses.empty()) ? 1u : 0u);
    Colors[Op] = H;
  }

  // Edge colors: scheduling edges by (latency, distance); register uses
  // by use distance (def -> consumer).
  std::vector<CanonicalEdge> Edges;
  Edges.reserve(G.numSchedEdges() + NumUses);
  for (const SchedEdge &E : G.schedEdges()) {
    uint64_t H = hashMix(0x73656467u); // "sedg"
    H = hashCombine(H, asWord(E.Latency));
    H = hashCombine(H, asWord(E.Distance));
    Edges.push_back({E.Src, E.Dst, H});
  }
  for (const VirtualRegister &R : Registers)
    for (const RegisterUse &U : R.Uses) {
      uint64_t H = hashMix(0x72656775u); // "regu"
      H = hashCombine(H, asWord(U.Distance));
      Edges.push_back({R.Def, U.Consumer, H});
    }

  CanonicalLabeling Labeling = canonicalLabeling(N, Colors, Edges);
  CanonIndex = std::move(Labeling.CanonicalIndex);
  Exact = Labeling.Exact;

  // Canonical form: every scheduling-relevant fact rewritten into
  // canonical indices. Sorting makes the rendering independent of the
  // original edge/register insertion order.
  Form.clear();
  Form.reserve(3 + N + 4 * size_t(G.numSchedEdges()) +
               2 * (size_t(G.numRegisters()) + NumUses) + 2);
  Form.push_back(asWord(N));
  Form.push_back(asWord(G.numSchedEdges()));
  Form.push_back(asWord(G.numRegisters()));

  Form.resize(Form.size() + N);
  for (int Op = 0; Op < N; ++Op)
    Form[3 + CanonIndex[Op]] = Colors[Op];

  std::vector<std::array<uint64_t, 4>> EdgeTuples;
  EdgeTuples.reserve(G.numSchedEdges());
  for (const SchedEdge &E : G.schedEdges())
    EdgeTuples.push_back({asWord(CanonIndex[E.Src]), asWord(CanonIndex[E.Dst]),
                          asWord(E.Latency), asWord(E.Distance)});
  std::sort(EdgeTuples.begin(), EdgeTuples.end());
  for (const auto &T : EdgeTuples)
    Form.insert(Form.end(), T.begin(), T.end());

  // Register tuples (def, use count, sorted (consumer, distance) pairs)
  // in lexicographic order. Their defs are unique, so that is the order
  // of their defs' canonical indices.
  // RegisterOf is done with: reuse it indexed by canonical position.
  std::vector<int> &RegisterAt = RegisterOf;
  std::fill(RegisterAt.begin(), RegisterAt.end(), -1);
  for (int R = 0; R < G.numRegisters(); ++R)
    RegisterAt[CanonIndex[Registers[R].Def]] = R;
  std::vector<std::array<uint64_t, 2>> Uses;
  for (int Pos = 0; Pos < N; ++Pos) {
    if (RegisterAt[Pos] < 0)
      continue;
    const VirtualRegister &R = Registers[RegisterAt[Pos]];
    Uses.clear();
    for (const RegisterUse &U : R.Uses)
      Uses.push_back({asWord(CanonIndex[U.Consumer]), asWord(U.Distance)});
    std::sort(Uses.begin(), Uses.end());
    Form.push_back(asWord(Pos));
    Form.push_back(Uses.size());
    for (const auto &U : Uses)
      Form.insert(Form.end(), U.begin(), U.end());
  }

  Form.push_back(MachineSig.Digest);
  Form.push_back(optionsDigest(Opts));

  uint64_t H = hashMix(0x70726f62u); // "prob"
  for (uint64_t W : Form)
    H = hashCombine(H, W);
  // Mixing in the search-free invariant hash costs nothing and keeps the
  // address discriminating even if a future form rendering has a bug.
  H = hashCombine(H, Labeling.InvariantHash);
  Hash = H;
}

uint64_t Problem::canonicalHash() const {
  std::call_once(CanonOnce, [this] { computeCanonical(); });
  return Hash;
}

bool Problem::hashExact() const {
  std::call_once(CanonOnce, [this] { computeCanonical(); });
  return Exact;
}

const std::vector<int> &Problem::canonicalIndex() const {
  std::call_once(CanonOnce, [this] { computeCanonical(); });
  return CanonIndex;
}

const std::vector<uint64_t> &Problem::canonicalForm() const {
  std::call_once(CanonOnce, [this] { computeCanonical(); });
  return Form;
}
