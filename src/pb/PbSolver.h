//===- pb/PbSolver.h - Conflict-driven pseudo-Boolean solver ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained conflict-driven (CDCL) pseudo-Boolean satisfiability
/// solver: the second exact engine behind the modulo scheduler. The
/// paper's structured formulation (Ineq. 20) makes every dependence and
/// resource row a 0-1 cardinality-like constraint, which is exactly the
/// class conflict-driven PB/SAT solvers decide natively — follow-on work
/// (SAT-MapIt, Roorda's SMT pipeliner) beats ILP on the same problem
/// with this machinery.
///
/// Engine inventory:
///  * Constraints: clauses, cardinality (sum of literals >= d) and
///    general linear pseudo-Boolean rows (sum of c_i * l_i >= d with
///    positive saturated coefficients after normalization).
///  * Propagation: clauses and cardinality rows use watched literals
///    (a clause is the degree-1 case of the (d+1)-watch cardinality
///    scheme); general PB rows use counter-based propagation with a
///    false-sum maintained through occurrence lists and unwound in
///    lock-step with the trail.
///  * Learning: 1UIP conflict analysis over clause-form reasons that
///    are extracted lazily and PB-aware — for a cardinality/PB row the
///    reason of a propagated literal is a greedily chosen subset of its
///    false literals, largest coefficients first, restricted to
///    assignments that precede the propagation. Learned clauses are
///    minimized against their own reasons and scored for deletion.
///  * Constraint store: every constraint lives inline in one contiguous
///    array of 32-bit words, addressed by its word offset. A six-word
///    header (literal count, kind/learned/deleted flags, 64-bit degree,
///    double activity) is followed by the literals; a general PB row
///    then keeps its max-sum, false-sum and 64-bit coefficients inline
///    too. A learned clause is appended in place, and learned-database
///    reduction compacts the store in place, preserving constraint
///    order, and remaps every watch, occurrence, learned and reason
///    reference to the new offsets. Assignment values are kept per
///    literal, so reading a literal's value is one byte load.
///  * Search: VSIDS-style activity branching over a binary heap with
///    phase saving, Luby-sequence restarts, and activity-based learned
///    database reduction.
///  * Incrementality: assumption literals in the MiniSat style. After
///    an UNSAT answer under assumptions the solver exposes the subset
///    of assumptions in the final conflict (the UNSAT core), which is
///    what makes solution-improving objective descent cheap: bound
///    constraints are added once, gated by fresh selector literals, and
///    activated per solve by assuming the selector's negation.
///
/// Layering: pb sits next to lp/graph/machine — it depends only on
/// support (telemetry, cancellation, timers). The scheduler-facing
/// encoding lives in ilpsched/PbFormulation; OPB text I/O in textio.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_PB_PBSOLVER_H
#define MODSCHED_PB_PBSOLVER_H

#include "support/Cancellation.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace modsched {
namespace pb {

/// A propositional variable index, 0-based.
using Var = int;

/// A literal: variable plus sign, encoded as 2*V + Negated so literals
/// index watch lists directly.
class Lit {
public:
  Lit() = default;
  Lit(Var V, bool Negated) : Code(2 * V + int(Negated)) {
    assert(V >= 0 && "literal over negative variable");
  }

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  /// The raw code, usable as a dense array index.
  int index() const { return Code; }

  Lit operator~() const { return fromIndex(Code ^ 1); }
  bool operator==(Lit O) const { return Code == O.Code; }
  bool operator!=(Lit O) const { return Code != O.Code; }
  bool operator<(Lit O) const { return Code < O.Code; }

  static Lit fromIndex(int Index) {
    Lit L;
    L.Code = Index;
    return L;
  }

private:
  int Code = -2;
};

/// Positive literal over \p V.
inline Lit posLit(Var V) { return Lit(V, false); }
/// Negated literal over \p V.
inline Lit negLit(Var V) { return Lit(V, true); }

/// Verdict of one solve() call.
enum class SolveStatus {
  Sat,       ///< A model was found; read it via modelValue().
  Unsat,     ///< No model under the given assumptions (unsatCore()).
  Limit,     ///< Conflict budget or deadline exhausted.
  Cancelled, ///< The cancellation token fired.
};

/// Printable name of \p S.
const char *toString(SolveStatus S);

/// Per-solver effort counters, cumulative across solve() calls.
struct SolverStats {
  int64_t Conflicts = 0;    ///< Conflicts analyzed.
  int64_t Propagations = 0; ///< Literals propagated.
  int64_t Decisions = 0;    ///< Branching decisions.
  int64_t Restarts = 0;     ///< Luby restarts taken.
  /// Clauses learned: one per conflict analyzed above decision level 0,
  /// units included, and never decreased by database reduction. It
  /// equals Conflicts except for a conflict at the root, which ends the
  /// search instead of producing a clause.
  int64_t Learned = 0;
};

/// One original (non-learned) constraint in normalized "sum of
/// positive-coefficient literal terms >= Degree" form, recorded exactly
/// as accepted (before root-level simplification) for text export and
/// cross-checking against external PB solvers.
struct ExportRow {
  std::vector<std::pair<Lit, int64_t>> Terms;
  int64_t Degree = 0;
};

/// Conflict-driven pseudo-Boolean solver. Single-threaded; cancellation
/// is the only member another thread may touch (through the token's
/// source). Constraints may be added between solve() calls (monotone
/// incremental strengthening); removing constraints is not supported —
/// gate soft constraints behind selector literals instead.
class Solver {
public:
  Solver();
  ~Solver();
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  //===--------------------------------------------------------------------===//
  // Problem construction
  //===--------------------------------------------------------------------===//

  /// Creates a fresh variable and returns its index.
  Var newVar();

  /// Number of variables created so far.
  int numVars() const { return int(VarCount); }

  /// Adds the clause (at-least-one over \p Lits). Returns false when the
  /// solver became root-level unsatisfiable.
  bool addClause(std::vector<Lit> Lits);

  /// Adds the cardinality constraint sum(Lits) >= \p Degree.
  bool addAtLeast(std::vector<Lit> Lits, int64_t Degree);

  /// Adds the general linear constraint sum(Coeff * Lit) >= \p Degree.
  /// Coefficients may be negative or duplicated; the row is normalized
  /// (negative coefficients flip the literal, duplicate and opposite
  /// literals merge, coefficients saturate at the degree) and classified
  /// as clause / cardinality / general PB.
  bool addLinear(std::vector<std::pair<Lit, int64_t>> Terms, int64_t Degree);

  /// False once the constraint database is unsatisfiable at the root
  /// level; further solve() calls return Unsat immediately.
  bool okay() const { return Ok; }

  //===--------------------------------------------------------------------===//
  // Solving
  //===--------------------------------------------------------------------===//

  /// Decides the constraint database under \p Assumptions.
  SolveStatus solve(const std::vector<Lit> &Assumptions = {});

  /// Model value of \p V after a Sat answer.
  bool modelValue(Var V) const {
    assert(V >= 0 && size_t(V) < Model.size() && "model read out of range");
    return Model[size_t(V)] != 0;
  }

  /// After an Unsat answer under assumptions: the subset of assumption
  /// literals whose conjunction is already contradictory (the core).
  /// Empty when the database is unsatisfiable independent of the
  /// assumptions.
  const std::vector<Lit> &unsatCore() const { return Core; }

  /// Cumulative effort counters.
  const SolverStats &stats() const { return Stats; }

  //===--------------------------------------------------------------------===//
  // Budgets (checked once per conflict/decision)
  //===--------------------------------------------------------------------===//

  /// Maximum conflicts per solve() call, never exceeded: the conflict
  /// that spends the budget ends the call with Limit (or Unsat, when it
  /// is at decision level 0). Negative means unlimited.
  int64_t ConflictLimit = -1;

  /// Absolute deadline on the modsched::monotonicSeconds() clock;
  /// >= 1e29 means unlimited (mirrors lp::SolveContext::DeadlineSeconds).
  double DeadlineSeconds = 1e30;

  /// Cooperative cancellation, polled between decisions.
  CancellationToken Cancel;

  //===--------------------------------------------------------------------===//
  // Export (original constraints, for OPB text I/O)
  //===--------------------------------------------------------------------===//

  /// Original constraints in normalized literal form, in insertion
  /// order, including rows that were simplified away internally.
  const std::vector<ExportRow> &exportRows() const { return Export; }

private:
  //===--------------------------------------------------------------------===//
  // Constraint store
  //===--------------------------------------------------------------------===//

  /// Constraint reference: word offset of the constraint's header in
  /// Store. -1 = no constraint. Offsets change when reduceLearnts()
  /// compacts the store; every reference is remapped then.
  using Cref = int;
  static constexpr Cref NoCref = -1;

  /// All constraints, back to back (layout in PbSolver.cpp).
  std::vector<uint32_t> Store;
  size_t NumConstraints = 0; ///< Constraints currently in Store.
  std::vector<Cref> Learnts; ///< Learned (clause) constraints, live subset.
  std::vector<ExportRow> Export;

  //===--------------------------------------------------------------------===//
  // Assignment state
  //===--------------------------------------------------------------------===//

  size_t VarCount = 0;
  /// Per-literal value, indexed by Lit::index(): 0 = unassigned,
  /// 1 = true, -1 = false.
  std::vector<int8_t> LitValue;
  std::vector<int> Level;        ///< Decision level of assignment.
  std::vector<Cref> Reason;      ///< Propagating constraint, NoCref = decision.
  std::vector<int> TrailPos;     ///< Position on the trail.
  std::vector<Lit> Trail;        ///< Assignment stack.
  std::vector<int> TrailLim;     ///< Trail size at each decision level.
  size_t QHead = 0;              ///< Propagation queue head.
  std::vector<uint8_t> Model;    ///< Last satisfying assignment.
  std::vector<Lit> Core;         ///< Last assumption UNSAT core.
  SolverStats Stats;             ///< Cumulative effort counters.
  bool Ok = true;

  /// Value of literal \p L: 0 unassigned, 1 true, -1 false.
  int8_t litValue(Lit L) const { return LitValue[size_t(L.index())]; }
  /// True when variable \p V is assigned.
  bool assigned(Var V) const { return LitValue[2 * size_t(V)] != 0; }

  int decisionLevel() const { return int(TrailLim.size()); }

  //===--------------------------------------------------------------------===//
  // Watches and occurrence lists
  //===--------------------------------------------------------------------===//

  /// Watches[L.index()]: cardinality/clause constraints currently
  /// watching literal L (visited when L becomes false).
  std::vector<std::vector<Cref>> Watches;
  /// LinOcc[L.index()]: (constraint, coefficient) pairs for every
  /// linear row containing L (visited when L changes truth value).
  std::vector<std::vector<std::pair<Cref, int64_t>>> LinOcc;

  //===--------------------------------------------------------------------===//
  // Branching heuristic
  //===--------------------------------------------------------------------===//

  std::vector<double> Activity; ///< Per-variable VSIDS activity.
  double VarInc = 1.0;
  std::vector<uint8_t> SavedPhase;
  /// Binary max-heap of unassigned candidate variables.
  std::vector<Var> Heap;
  std::vector<int> HeapPos; ///< Var -> heap index, -1 when absent.

  void heapInsert(Var V);
  void heapSiftUp(size_t I);
  void heapSiftDown(size_t I);
  Var heapPop();
  bool heapLess(Var A, Var B) const { return Activity[A] < Activity[B]; }
  void bumpVar(Var V);
  void decayActivities() { VarInc /= ActivityDecay; }
  void rescaleActivities();

  static constexpr double ActivityDecay = 0.95;

  //===--------------------------------------------------------------------===//
  // Core engine
  //===--------------------------------------------------------------------===//

  void ensureVarCapacity();
  bool addNormalized(std::vector<std::pair<Lit, int64_t>> Terms,
                     int64_t Degree);
  /// Appends a constraint with \p NumLits zeroed literal slots (and
  /// coefficient slots when \p Linear) and returns its reference.
  Cref allocConstraint(size_t NumLits, bool Linear, bool Learned,
                       int64_t Degree, double InitialActivity);
  void attachConstraint(Cref C);
  void uncheckedEnqueue(Lit P, Cref From);
  /// Runs unit propagation; returns the conflicting constraint or NoCref.
  Cref propagate();
  Cref propagateCard(Lit False, std::vector<Cref> &Watch);
  Cref propagateLinearAssign(Lit P);
  void cancelUntil(int TargetLevel);
  /// 1UIP analysis of \p Conflict; fills \p Learnt (asserting literal
  /// first) and returns the backtrack level.
  int analyze(Cref Conflict, std::vector<Lit> &Learnt);
  void minimizeLearnt(std::vector<Lit> &Learnt);
  void analyzeFinal(Lit P, std::vector<Lit> &OutCore);
  /// Clause-form reason for \p P propagated by \p C (or the conflict
  /// clause when P is undefined): false literals only, PB-aware.
  void reasonClause(Cref C, Lit P, std::vector<Lit> &Out);
  /// Calls \p Visit on each literal of that reason, in order, until it
  /// returns false. A clause's literals are read in place; other
  /// constraints go through reasonClause() and ReasonScratch.
  template <typename Fn> void forEachReasonLit(Cref C, Lit P, Fn Visit);
  void recordLearnt(const std::vector<Lit> &Learnt);
  void reduceLearnts();
  /// Removes deleted constraints from Store in place and remaps every
  /// reference to the survivors' new offsets.
  void compactStore();
  bool locked(Cref C) const;
  void bumpConstraint(Cref C);
  Lit pickBranchLit();
  /// CDCL search loop until a verdict or restart budget \p ConflictBudget.
  SolveStatus search(int64_t ConflictBudget,
                     const std::vector<Lit> &Assumptions,
                     int64_t &ConflictsLeft);
  bool budgetExpired(int64_t ConflictsLeft) const;

  std::vector<uint8_t> Seen; ///< Per-variable analysis scratch.
  std::vector<Var> SeenVars; ///< Variables analyze() marked in Seen.
  std::vector<Lit> ReasonScratch;
  double ConstraintInc = 1.0;
  int64_t LearntAdjust = 0; ///< Reduce learned DB when Learnts exceeds this.
};

} // namespace pb
} // namespace modsched

#endif // MODSCHED_PB_PBSOLVER_H
