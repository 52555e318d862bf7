//===- machine/MachineModel.h - Resource/reservation model ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine description used by the resource constraints (the paper's
/// Inequality (5)): a set of resource types with multiplicities, and per
/// operation-class reservation tables Res_{i,q} listing, for each
/// resource type, the cycles (relative to issue) at which one instance is
/// busy. This is the "reduced machine description" style of [22]
/// (Eichenberger & Davidson, PLDI'96): resources used at most once per
/// operation per cycle, which is the class of machines for which
/// Inequality (5) applies.
///
/// Built-in machines:
///  * example3()  - the 3-wide universal-FU machine of the paper's
///                  Section 2 (used by Example 1 / Figure 1).
///  * cydraLike() - a synthetic stand-in for the Cydra 5: multiple
///                  resource types, multi-cycle usage patterns (shared
///                  result buses, blocking divide), long memory latency.
///  * vliw2()     - a small 2-issue machine with dedicated units.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_MACHINE_MACHINEMODEL_H
#define MODSCHED_MACHINE_MACHINEMODEL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace modsched {

/// A resource type and the number of identical instances available.
struct ResourceType {
  std::string Name;
  int Count = 1;
};

/// One reservation: the operation occupies one instance of \p Resource
/// exactly \p Cycle cycles after issue.
struct ResourceUsage {
  int Resource = 0;
  int Cycle = 0;
};

/// A class of operations sharing latency and resource usage (e.g. "load",
/// "fmul").
struct OpClass {
  std::string Name;
  /// Default flow latency: cycles until a consumer may issue.
  int Latency = 1;
  std::vector<ResourceUsage> Usages;
};

/// A target machine: resource types plus operation classes.
class MachineModel {
public:
  /// Adds a resource type with \p Count identical instances.
  int addResource(std::string Name, int Count);

  /// Adds an operation class; \p Usages refer to resource indices.
  int addOpClass(std::string Name, int Latency,
                 std::vector<ResourceUsage> Usages);

  int numResources() const { return static_cast<int>(Resources.size()); }
  int numOpClasses() const { return static_cast<int>(Classes.size()); }

  const ResourceType &resource(int R) const { return Resources[R]; }
  const OpClass &opClass(int C) const { return Classes[C]; }
  const std::vector<ResourceType> &resources() const { return Resources; }
  const std::vector<OpClass> &opClasses() const { return Classes; }

  /// Looks an operation class up by name.
  std::optional<int> findOpClass(std::string_view Name) const;

  /// Scheduling-relevant identity of the machine, names excluded.
  struct Signature {
    /// OpClass[C]: digest of class C's latency and its resource usages,
    /// where each usage is identified by the used resource's INSTANCE
    /// COUNT and a canonical resource id (the resource's rank by first
    /// appearance in any class's usage list, a deterministic bijection
    /// on the used resources). Renaming a unit or an opclass leaves it
    /// unchanged; changing a latency, a usage cycle, or an instance
    /// count changes it.
    std::vector<uint64_t> OpClass;
    /// Digest of the whole machine: the resource (count) multiset and
    /// the class signatures, both folded UNORDERED. Two machines that
    /// differ only in resource/class names digest equal. Graph nodes
    /// carry their own class signature, so the digest only needs to pin
    /// down the resource pool.
    uint64_t Digest = 0;
  };

  /// Every class signature and the digest: the memo if
  /// memoizeSignature() filled one, else computed in one pass. Never
  /// writes, so threads sharing a const model may call it.
  Signature signature() const;

  /// Computes the signature once and keeps it; signature() and
  /// memoizedSignature() serve it until addResource/addOpClass drops
  /// it. Call before the model is shared: this is the only write.
  const Signature &memoizeSignature();

  /// The memo memoizeSignature() filled, or nullptr.
  const Signature *memoizedSignature() const {
    return SignatureMemo ? &*SignatureMemo : nullptr;
  }

  /// Machine name for reports.
  const std::string &name() const { return MachineName; }
  void setName(std::string Name) { MachineName = std::move(Name); }

  /// Renders the machine description.
  std::string toString() const;

  /// The paper's Section 2 example: three fully-pipelined general-purpose
  /// units; load/store/add/sub latency 1, mult latency 4.
  static MachineModel example3();

  /// Synthetic Cydra-5-like machine with complex resource requirements.
  static MachineModel cydraLike();

  /// Small 2-issue VLIW with one memory port and one ALU/FPU pipe.
  static MachineModel vliw2();

private:
  std::string MachineName = "machine";
  std::vector<ResourceType> Resources;
  std::vector<OpClass> Classes;
  std::optional<Signature> SignatureMemo;
};

/// Canonical operation-class names shared by every built-in machine, so
/// kernels can be retargeted. Each built-in machine defines all of these.
namespace opclasses {
inline constexpr const char *Load = "load";
inline constexpr const char *Store = "store";
inline constexpr const char *Add = "add";
inline constexpr const char *Sub = "sub";
inline constexpr const char *Mul = "mul";
inline constexpr const char *Div = "div";
inline constexpr const char *Copy = "copy";
inline constexpr const char *Branch = "branch";
} // namespace opclasses

} // namespace modsched

#endif // MODSCHED_MACHINE_MACHINEMODEL_H
