//===- machine/MachineModel.cpp - Resource/reservation model --------------===//

#include "machine/MachineModel.h"

#include "support/Hash.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace modsched;

int MachineModel::addResource(std::string Name, int Count) {
  assert(Count > 0 && "resource must have at least one instance");
  Resources.push_back({std::move(Name), Count});
  SignatureMemo.reset();
  return static_cast<int>(Resources.size()) - 1;
}

int MachineModel::addOpClass(std::string Name, int Latency,
                             std::vector<ResourceUsage> Usages) {
  for (const ResourceUsage &U : Usages) {
    assert(U.Resource >= 0 && U.Resource < numResources() &&
           "usage references unknown resource");
    assert(U.Cycle >= 0 && "usage cycle must be non-negative");
    (void)U;
  }
  Classes.push_back({std::move(Name), Latency, std::move(Usages)});
  SignatureMemo.reset();
  return static_cast<int>(Classes.size()) - 1;
}

std::optional<int> MachineModel::findOpClass(std::string_view Name) const {
  for (int C = 0; C < numOpClasses(); ++C)
    if (Classes[C].Name == Name)
      return C;
  return std::nullopt;
}

MachineModel::Signature MachineModel::signature() const {
  if (SignatureMemo)
    return *SignatureMemo;
  // Canonical resource ids: rank by first appearance in any class's usage
  // list.
  std::vector<int> CanonId(Resources.size(), -1);
  int Next = 0;
  for (const OpClass &Cls : Classes)
    for (const ResourceUsage &U : Cls.Usages)
      if (CanonId[U.Resource] < 0)
        CanonId[U.Resource] = Next++;

  Signature Sig;
  Sig.OpClass.reserve(Classes.size());
  size_t MaxUses = 0;
  for (const OpClass &Cls : Classes)
    MaxUses = std::max(MaxUses, Cls.Usages.size());
  std::vector<std::array<int, 3>> Uses;
  Uses.reserve(MaxUses);
  for (const OpClass &Cls : Classes) {
    Uses.clear();
    for (const ResourceUsage &U : Cls.Usages)
      Uses.push_back({CanonId[U.Resource], Resources[U.Resource].Count,
                      U.Cycle});
    std::sort(Uses.begin(), Uses.end());
    uint64_t H = hashMix(0x6f70636cu); // "opcl"
    H = hashCombine(H,
                    static_cast<uint64_t>(static_cast<int64_t>(Cls.Latency)));
    H = hashCombine(H, Uses.size());
    for (const auto &U : Uses)
      for (int Field : U)
        H = hashCombine(H,
                        static_cast<uint64_t>(static_cast<int64_t>(Field)));
    Sig.OpClass.push_back(H);
  }

  uint64_t H = hashMix(0x6d616368u); // "mach"
  uint64_t Pool = 0;
  for (const ResourceType &R : Resources)
    Pool = hashUnordered(Pool, static_cast<uint64_t>(R.Count));
  H = hashCombine(H, Pool);
  uint64_t ClassAcc = 0;
  for (uint64_t ClassSig : Sig.OpClass)
    ClassAcc = hashUnordered(ClassAcc, ClassSig);
  Sig.Digest = hashCombine(H, ClassAcc);
  return Sig;
}

const MachineModel::Signature &MachineModel::memoizeSignature() {
  if (!SignatureMemo)
    SignatureMemo = signature();
  return *SignatureMemo;
}

std::string MachineModel::toString() const {
  // Names are appended as they are, never through printf: a name may be
  // long or hold a NUL byte and must still round-trip through the parser.
  std::string Out = "machine " + MachineName + "\n";
  for (const ResourceType &R : Resources)
    Out += "  resource " + R.Name + " x" + std::to_string(R.Count) + "\n";
  for (const OpClass &C : Classes) {
    Out += "  class " + C.Name + " latency=" + std::to_string(C.Latency) +
           " uses=";
    for (size_t U = 0; U < C.Usages.size(); ++U) {
      if (U)
        Out += ',';
      Out += Resources[C.Usages[U].Resource].Name + "@" +
             std::to_string(C.Usages[U].Cycle);
    }
    Out += "\n";
  }
  return Out;
}

MachineModel MachineModel::example3() {
  MachineModel M;
  M.setName("example3");
  int Fu = M.addResource("fu", 3);
  // All classes are fully pipelined and only occupy an issue slot.
  M.addOpClass(opclasses::Load, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Store, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Add, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Sub, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Mul, 4, {{Fu, 0}});
  M.addOpClass(opclasses::Div, 4, {{Fu, 0}});
  M.addOpClass(opclasses::Copy, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Branch, 1, {{Fu, 0}});
  return M;
}

MachineModel MachineModel::cydraLike() {
  // A synthetic stand-in for the Cydra 5's "complex resource
  // requirements": several resource types, operations that hold a
  // resource for multiple cycles, and shared result buses claimed late in
  // an operation's execution (which makes the modulo resource constraints
  // interact across MRT rows).
  MachineModel M;
  M.setName("cydra-like");
  int MemPort = M.addResource("memport", 2);
  int AddrAlu = M.addResource("addralu", 2);
  int FAdd = M.addResource("fadd", 1);
  int FMul = M.addResource("fmul", 1);
  int Alu = M.addResource("alu", 2);
  int Bus = M.addResource("bus", 2);

  // Loads occupy a memory port for two consecutive cycles and deliver
  // their value over a shared result bus.
  M.addOpClass(opclasses::Load, 6,
               {{MemPort, 0}, {MemPort, 1}, {AddrAlu, 0}, {Bus, 6}});
  M.addOpClass(opclasses::Store, 1, {{MemPort, 0}, {AddrAlu, 0}});
  // Floating add: pipelined, result bus at the end.
  M.addOpClass(opclasses::Add, 3, {{FAdd, 0}, {Bus, 3}});
  M.addOpClass(opclasses::Sub, 3, {{FAdd, 0}, {Bus, 3}});
  // Floating multiply: initiates at most every other cycle.
  M.addOpClass(opclasses::Mul, 4, {{FMul, 0}, {FMul, 1}, {Bus, 4}});
  // Divide blocks the multiplier for four cycles.
  M.addOpClass(opclasses::Div, 10,
               {{FMul, 0}, {FMul, 1}, {FMul, 2}, {FMul, 3}, {Bus, 10}});
  M.addOpClass(opclasses::Copy, 1, {{Alu, 0}, {Bus, 1}});
  M.addOpClass(opclasses::Branch, 1, {{Alu, 0}});
  return M;
}

MachineModel MachineModel::vliw2() {
  MachineModel M;
  M.setName("vliw2");
  int Mem = M.addResource("mem", 1);
  int Pipe = M.addResource("pipe", 1);
  M.addOpClass(opclasses::Load, 2, {{Mem, 0}});
  M.addOpClass(opclasses::Store, 1, {{Mem, 0}});
  M.addOpClass(opclasses::Add, 1, {{Pipe, 0}});
  M.addOpClass(opclasses::Sub, 1, {{Pipe, 0}});
  M.addOpClass(opclasses::Mul, 3, {{Pipe, 0}});
  M.addOpClass(opclasses::Div, 8, {{Pipe, 0}, {Pipe, 1}, {Pipe, 2}});
  M.addOpClass(opclasses::Copy, 1, {{Pipe, 0}});
  M.addOpClass(opclasses::Branch, 1, {{Pipe, 0}});
  return M;
}
