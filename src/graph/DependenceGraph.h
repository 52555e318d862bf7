//===- graph/DependenceGraph.h - Loop dependence graphs ---------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop representation of the paper's Section 3: a dependence graph
/// G = {V, Esched, Ereg}. Vertices are operations; scheduling edges carry
/// a latency and an iteration distance (omega); register edges describe
/// data flow carried in virtual registers (one virtual register per
/// value-producing operation, used by any number of consumers, possibly
/// in later iterations).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_GRAPH_DEPENDENCEGRAPH_H
#define MODSCHED_GRAPH_DEPENDENCEGRAPH_H

#include <optional>
#include <string>
#include <vector>

namespace modsched {

/// One operation (a vertex of the dependence graph).
struct Operation {
  std::string Name;
  /// Index into the machine model's operation-class table; decides
  /// resource usage and default latency.
  int OpClass = 0;
};

/// A scheduling edge (i -> j): operation j, Distance iterations later,
/// must start at least Latency cycles after operation i:
///   time_j + Distance * II - time_i >= Latency.
struct SchedEdge {
  int Src = 0;
  int Dst = 0;
  int Latency = 0;
  /// Dependence distance in iterations (omega); >= 0, and every
  /// dependence cycle must have a positive total distance.
  int Distance = 0;
};

/// One use of a virtual register: consumer operation and the iteration
/// distance between definition and use.
struct RegisterUse {
  int Consumer = 0;
  int Distance = 0;
};

/// A virtual register: defined by a unique operation, consumed by Uses.
/// Its lifetime spans from the cycle its definition issues until the
/// cycle of its last use (inclusive), per the paper's Section 2.
struct VirtualRegister {
  int Def = 0;
  std::vector<RegisterUse> Uses;
};

/// A loop body as a dependence graph G = {V, Esched, Ereg}.
class DependenceGraph {
public:
  /// Creates an operation and returns its index.
  int addOperation(std::string Name, int OpClass);

  /// Adds a pure scheduling edge (memory ordering, control, anti/output
  /// dependence...).
  void addSchedEdge(int Src, int Dst, int Latency, int Distance);

  /// Adds a data-flow dependence carried in a register: creates (or
  /// reuses) the virtual register defined by \p Def, records the use, and
  /// adds the matching scheduling edge.
  void addFlowDependence(int Def, int Use, int Latency, int Distance);

  /// Ensures \p Def owns a virtual register (for values that are defined
  /// and stored but never consumed in the loop; they are still live for
  /// one cycle). Returns the register index.
  int ensureRegister(int Def);

  int numOperations() const { return static_cast<int>(Ops.size()); }
  int numSchedEdges() const { return static_cast<int>(SchedEdges.size()); }
  int numRegisters() const { return static_cast<int>(Registers.size()); }

  const Operation &operation(int Op) const { return Ops[Op]; }
  Operation &operation(int Op) { return Ops[Op]; }
  const std::vector<Operation> &operations() const { return Ops; }
  const std::vector<SchedEdge> &schedEdges() const { return SchedEdges; }
  const std::vector<VirtualRegister> &registers() const { return Registers; }

  /// Human-readable loop name (used in reports).
  const std::string &name() const { return LoopName; }
  void setName(std::string Name) { LoopName = std::move(Name); }

  /// Checks structural invariants: indices in range, distances >= 0,
  /// no dependence cycle of total distance 0 (such a loop has no
  /// schedule at any II), register defs unique, every register use
  /// backed by an operation.
  /// Returns a description of the first problem, or nullopt when valid.
  std::optional<std::string> validate() const;

  /// Renders the graph (for debugging and .ddg round-trip tests).
  std::string toString() const;

private:
  std::string LoopName = "loop";
  std::vector<Operation> Ops;
  std::vector<SchedEdge> SchedEdges;
  std::vector<VirtualRegister> Registers;
  /// RegisterOf[op] = register index defined by op, or -1.
  std::vector<int> RegisterOf;
};

} // namespace modsched

#endif // MODSCHED_GRAPH_DEPENDENCEGRAPH_H
