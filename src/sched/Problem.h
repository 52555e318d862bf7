//===- sched/Problem.h - Canonical modulo-scheduling problem ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-class scheduling problem value: dependence graph + machine
/// model + objective/formulation options, bundled so that engines,
/// caches, and services can treat "one problem, many solver encodings"
/// uniformly. This file also owns the objective and formulation-style
/// enums (moved down from ilpsched so that sched-layer code can name a
/// problem without an upward include).
///
/// Problem::canonicalHash() is a content address: it is computed from a
/// canonical form of the DDG modulo node relabeling (iterative WL-style
/// refinement over (latency, distance, resource-class) node/edge colors
/// with a deterministic individualization tie-break — see
/// graph/GraphAlgorithms.h) combined with a canonical machine digest and
/// an options digest. Renaming operations, virtual-register order,
/// machine units, or opclasses, and permuting node ids, leaves the hash
/// unchanged; changing any latency, distance, resource count, usage
/// cycle, or option changes it. Hash equality is NOT trusted on its own:
/// cache consumers compare canonicalForm() in full to rule out 64-bit
/// collisions.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SCHED_PROBLEM_H
#define MODSCHED_SCHED_PROBLEM_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace modsched {

/// Secondary objective minimized among all schedules at the chosen II.
enum class Objective {
  None,    ///< Feasibility only (the paper's NoObj scheduler).
  MinReg,  ///< Exact MaxLive (register requirement).
  MinBuff, ///< Buffers: sum of ceil(lifetime / II).
  MinLife, ///< Cumulative lifetime in cycles.
  MinSL,   ///< Schedule length of one iteration (transient performance;
           ///< listed among the classic objectives in the paper's Sec. 1).
};

const char *toString(Objective Obj);

/// How the dependence constraints are emitted.
enum class DependenceStyle {
  Traditional,       ///< Paper Ineq. (4): coefficients r and II.
  Structured,        ///< Paper Ineq. (20): 0-1-structured + tightening.
  StructuredLoose,   ///< Paper Ineq. (19): structured, no Chaudhuri
                     ///< tightening (ablation).
};

const char *toString(DependenceStyle Style);

/// How the secondary-objective machinery is emitted.
enum class ObjectiveStyle {
  Traditional, ///< Coefficient-II constraints ([7]/[16] style).
  Structured,  ///< 0-1-structured reformulation.
};

/// Options shared by all formulations.
struct FormulationOptions {
  Objective Obj = Objective::None;
  DependenceStyle DepStyle = DependenceStyle::Structured;
  ObjectiveStyle ObjStyle = ObjectiveStyle::Structured;
  /// Schedule-length budget beyond the minimum (paper: 20 cycles).
  int ScheduleLengthSlack = 20;
  /// Derive per-operation stage bounds from ASAP/ALAP windows. Applied
  /// identically to both formulations.
  bool TightenStageBounds = true;
  /// Map every operation to a specific resource INSTANCE it holds for
  /// its whole usage pattern (Altman et al. [5]), instead of the
  /// counting constraints of Ineq. (5). Strictly stronger on machines
  /// where a multi-cycle pattern must stay on one instance: counting can
  /// accept IIs for which no consistent instance assignment exists.
  bool InstanceMapped = false;
  /// When >= 0: register-CONSTRAINED scheduling — every MRT row's live
  /// count must not exceed this register-file size (a hard constraint
  /// rather than the MinReg objective). Combine with Objective::None to
  /// find the minimum II fitting a given rotating file, the practical
  /// question on a real machine (the Cydra 5 had 64 rotating registers).
  /// Not combinable with Objective::MinReg (asserted).
  int RegisterLimit = -1;
};

/// An immutable modulo-scheduling problem: (graph, machine, options).
///
/// Holds its graph and machine by reference — both must outlive the
/// Problem (they are owned by the caller of OptimalModuloScheduler, which
/// already guarantees this). Canonicalization is computed lazily on first
/// use and is thread-safe; a Problem shared across threads pays for it
/// at most once.
class Problem {
public:
  Problem(const DependenceGraph &G, const MachineModel &M,
          const FormulationOptions &Opts)
      : G(G), M(M), Opts(Opts) {}

  Problem(const Problem &) = delete;
  Problem &operator=(const Problem &) = delete;

  const DependenceGraph &graph() const { return G; }
  const MachineModel &machine() const { return M; }
  const FormulationOptions &options() const { return Opts; }

  /// Content address: canonical-graph hash x machine digest x options
  /// digest. Node-relabeling and name-renaming invariant iff hashExact().
  uint64_t canonicalHash() const;

  /// True when the canonical labeling completed within its step budget,
  /// i.e. canonicalHash()/canonicalForm() are relabeling-invariant and
  /// safe to use as a content address. Pathologically symmetric graphs
  /// may come back false; caches must skip those problems.
  bool hashExact() const;

  /// CanonicalIndex[op] = position of operation \p op in the canonical
  /// node order (a permutation of [0, numOperations)).
  const std::vector<int> &canonicalIndex() const;

  /// The full canonical form: every scheduling-relevant fact (node
  /// signatures, scheduling edges, register def/use structure, machine
  /// digest, options digest) rewritten into canonical node indices and
  /// flattened to a word sequence. Two Problems with equal forms are
  /// schedule-isomorphic: a schedule for one maps to the other through
  /// canonicalIndex().
  const std::vector<uint64_t> &canonicalForm() const;

  /// Claims the once-per-Problem "PB falling back to ILP" warning slot:
  /// returns true exactly once per Problem. The attempt seam uses this so
  /// the warning fires once per scheduling request, not once per II.
  bool claimPbFallbackWarning() const {
    return !PbFallbackWarned.exchange(true, std::memory_order_relaxed);
  }

private:
  void computeCanonical() const;

  const DependenceGraph &G;
  const MachineModel &M;
  const FormulationOptions Opts;

  mutable std::once_flag CanonOnce;
  mutable uint64_t Hash = 0;
  mutable bool Exact = false;
  mutable std::vector<int> CanonIndex;
  mutable std::vector<uint64_t> Form;
  mutable std::atomic<bool> PbFallbackWarned{false};
};

} // namespace modsched

#endif // MODSCHED_SCHED_PROBLEM_H
