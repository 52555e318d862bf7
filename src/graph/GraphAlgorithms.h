//===- graph/GraphAlgorithms.h - SCC, cycles, time windows ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph analyses over dependence graphs:
///  * Tarjan strongly-connected components (recurrence detection),
///  * positive-cycle detection for a candidate II (edge weight
///    latency - II * distance),
///  * ASAP / ALAP start-time windows for a candidate II, used both by the
///    heuristic scheduler's priorities and to tighten the ILP stage
///    bounds.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_GRAPH_GRAPHALGORITHMS_H
#define MODSCHED_GRAPH_GRAPHALGORITHMS_H

#include "graph/DependenceGraph.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace modsched {

/// Computes strongly connected components with Tarjan's algorithm over
/// the scheduling edges. Returns one vector of operation indices per SCC,
/// in reverse topological order of the condensation.
std::vector<std::vector<int>> stronglyConnectedComponents(
    const DependenceGraph &G);

/// True iff the graph contains a dependence cycle whose total distance is
/// zero — such a loop is unschedulable at any II.
bool hasZeroDistanceCycle(const DependenceGraph &G);

/// True iff, at initiation interval \p II, some dependence cycle has
/// positive weight sum(latency) - II * sum(distance) > 0, i.e. the
/// recurrence cannot be honored at this II.
bool hasPositiveCycle(const DependenceGraph &G, int II);

/// Earliest start time of every operation at initiation interval \p II
/// (longest path from time 0 under the scheduling edges), or nullopt when
/// \p II is below the recurrence-constrained minimum.
std::optional<std::vector<int>> asapTimes(const DependenceGraph &G, int II);

/// Latest start times such that every operation can still finish a
/// schedule in which all start times are <= \p MaxTime; nullopt when
/// infeasible. All returned times are >= the matching ASAP time iff the
/// window is non-empty for every operation (checked by the caller).
std::optional<std::vector<int>> alapTimes(const DependenceGraph &G, int II,
                                          int MaxTime);

/// Minimum schedule length (1 + latest ASAP start) at \p II, or nullopt
/// when II is recurrence-infeasible.
std::optional<int> minScheduleLength(const DependenceGraph &G, int II);

//===----------------------------------------------------------------------===//
// Canonical labeling (for content-addressed problem hashing)
//===----------------------------------------------------------------------===//

/// A directed, colored edge fed to canonicalLabeling(). The color encodes
/// every scheduling-relevant edge attribute (e.g. a hash of latency and
/// distance, or of a register-use distance) so that two edges are
/// interchangeable iff their colors match.
struct CanonicalEdge {
  int Src = 0;
  int Dst = 0;
  uint64_t Color = 0;
};

/// Result of canonicalLabeling().
struct CanonicalLabeling {
  /// CanonicalIndex[node] = the node's position in the canonical order; a
  /// permutation of [0, N). When Exact, isomorphic relabelings of the
  /// same colored graph map to the same canonical form (node colors +
  /// edge tuples rewritten through CanonicalIndex compare equal).
  std::vector<int> CanonicalIndex;
  /// Relabeling-invariant hash of the stable WL color multiset. Invariant
  /// even when Exact is false (it never depends on the tie-break search).
  uint64_t InvariantHash = 0;
  /// False when the individualization-refinement search exhausted its
  /// step budget: CanonicalIndex is still a deterministic permutation,
  /// but is NOT guaranteed relabeling-invariant and must not be used for
  /// content-addressed caching.
  bool Exact = true;
};

/// Computes a canonical node order for a colored directed multigraph:
/// iterative Weisfeiler-Leman color refinement over (node color, in/out
/// edge-color x neighbor-color multisets), then individualization-
/// refinement over the remaining symmetric orbits, keeping the first
/// lexicographically smallest complete form and skipping subtrees that
/// the automorphisms found along the way map onto explored ones.
/// \p StepBudget bounds the total refinement work (roughly node-visits);
/// graphs whose symmetry exhausts it come back with Exact == false.
/// Deterministic for a fixed input; invariant under node relabeling when
/// Exact.
CanonicalLabeling canonicalLabeling(int NumNodes,
                                    const std::vector<uint64_t> &NodeColors,
                                    const std::vector<CanonicalEdge> &Edges,
                                    int64_t StepBudget = 1 << 20);

} // namespace modsched

#endif // MODSCHED_GRAPH_GRAPHALGORITHMS_H
