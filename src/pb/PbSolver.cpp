//===- pb/PbSolver.cpp - Conflict-driven pseudo-Boolean solver ------------===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//

#include "pb/PbSolver.h"

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>

namespace modsched {
namespace pb {

namespace {

telemetry::Counter StatConflicts("pb", "conflicts",
                                 "CDCL conflicts analyzed by the PB solver");
telemetry::Counter StatPropagations("pb", "propagations",
                                    "literals propagated by the PB solver");
telemetry::Counter StatRestarts("pb", "restarts",
                                "Luby restarts taken by the PB solver");
telemetry::Counter StatLearned("pb", "learned",
                               "clauses learned by the PB solver");

/// The undefined-literal sentinel used by conflict analysis.
const Lit UndefLit = Lit();

//===----------------------------------------------------------------------===//
// Constraint store layout
//
// A constraint at word offset R of Solver::Store occupies
//   R + HdrSize       literal count N
//   R + HdrFlags      FlagLinear | FlagLearned | FlagDeleted, and while
//                     compactStore() runs, the constraint's new offset
//                     in the bits above FlagBits
//   R + HdrDegree     degree (int64_t, two words)
//   R + HdrActivity   deletion activity (double, two words)
//   R + HdrWords      N literals, one Lit::index() per word
// and a general PB row continues, at T = R + HdrWords + N, with
//   T + TailMaxSum    sum of all coefficients (int64_t)
//   T + TailFalseSum  sum of coefficients of false literals (int64_t)
//   T + TailCoeffs    N coefficients (int64_t each), aligned with the
//                     literals and sorted by decreasing value.
// Multi-word fields are read and written with memcpy, never through a
// reinterpreted pointer.
//===----------------------------------------------------------------------===//

using Word = uint32_t;

constexpr size_t HdrSize = 0;
constexpr size_t HdrFlags = 1;
constexpr size_t HdrDegree = 2;
constexpr size_t HdrActivity = 4;
constexpr size_t HdrWords = 6;
constexpr size_t TailMaxSum = 0;
constexpr size_t TailFalseSum = 2;
constexpr size_t TailCoeffs = 4;

constexpr Word FlagLinear = 1;
constexpr Word FlagLearned = 2;
constexpr Word FlagDeleted = 4;
constexpr unsigned FlagBits = 3;
constexpr Word FlagMask = (Word(1) << FlagBits) - 1;
/// Store size limit, so that compactStore() can park any offset above
/// the flag bits.
constexpr size_t MaxStoreWords = size_t(1) << (32 - FlagBits);

template <typename T> T loadField(const Word *P) {
  static_assert(sizeof(T) == 2 * sizeof(Word), "two-word field");
  T V;
  std::memcpy(&V, P, sizeof(T));
  return V;
}

template <typename T> void storeField(Word *P, T V) {
  static_assert(sizeof(T) == 2 * sizeof(Word), "two-word field");
  std::memcpy(P, &V, sizeof(T));
}

size_t numLits(const Word *C) { return C[HdrSize]; }
bool isLinear(const Word *C) { return C[HdrFlags] & FlagLinear; }
int64_t degreeOf(const Word *C) { return loadField<int64_t>(C + HdrDegree); }
Lit litOf(Word W) { return Lit::fromIndex(int(W)); }
/// First word of a linear row's tail (max-sum, false-sum, coefficients).
const Word *tailOf(const Word *C) { return C + HdrWords + numLits(C); }
Word *tailOf(Word *C) { return C + HdrWords + numLits(C); }
int64_t coeffOf(const Word *Tail, size_t I) {
  return loadField<int64_t>(Tail + TailCoeffs + 2 * I);
}
/// Words the constraint at \p C occupies.
size_t wordsOf(const Word *C) {
  size_t N = numLits(C);
  return HdrWords + N + (isLinear(C) ? TailCoeffs + 2 * N : 0);
}

/// Finite Luby subsequence value: luby(I) for the 1-based restart index,
/// over the sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
int64_t luby(int64_t I) {
  // Find the subsequence (of length 2^K - 1) containing index I.
  int64_t K = 1, Size = 1;
  while (Size < I + 1) {
    ++K;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) / 2;
    --K;
    I = I % Size;
  }
  return int64_t(1) << (K - 1);
}

} // namespace

const char *toString(SolveStatus S) {
  switch (S) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Limit:
    return "limit";
  case SolveStatus::Cancelled:
    return "cancelled";
  }
  return "?";
}

Solver::Solver() = default;
Solver::~Solver() = default;

//===----------------------------------------------------------------------===//
// Variables
//===----------------------------------------------------------------------===//

Var Solver::newVar() {
  Var V = Var(VarCount++);
  ensureVarCapacity();
  heapInsert(V);
  return V;
}

void Solver::ensureVarCapacity() {
  LitValue.resize(2 * VarCount, 0);
  Level.resize(VarCount, 0);
  Reason.resize(VarCount, NoCref);
  TrailPos.resize(VarCount, -1);
  Activity.resize(VarCount, 0.0);
  SavedPhase.resize(VarCount, 0); // Default polarity: false.
  HeapPos.resize(VarCount, -1);
  Seen.resize(VarCount, 0);
  Watches.resize(2 * VarCount);
  LinOcc.resize(2 * VarCount);
}

//===----------------------------------------------------------------------===//
// Branching heap (binary max-heap on Activity)
//===----------------------------------------------------------------------===//

void Solver::heapInsert(Var V) {
  if (HeapPos[V] >= 0)
    return;
  HeapPos[V] = int(Heap.size());
  Heap.push_back(V);
  heapSiftUp(Heap.size() - 1);
}

void Solver::heapSiftUp(size_t I) {
  Var V = Heap[I];
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!heapLess(Heap[Parent], V))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = int(I);
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = int(I);
}

void Solver::heapSiftDown(size_t I) {
  Var V = Heap[I];
  for (;;) {
    size_t Child = 2 * I + 1;
    if (Child >= Heap.size())
      break;
    if (Child + 1 < Heap.size() && heapLess(Heap[Child], Heap[Child + 1]))
      ++Child;
    if (!heapLess(V, Heap[Child]))
      break;
    Heap[I] = Heap[Child];
    HeapPos[Heap[I]] = int(I);
    I = Child;
  }
  Heap[I] = V;
  HeapPos[V] = int(I);
}

Var Solver::heapPop() {
  assert(!Heap.empty() && "pop from empty branching heap");
  Var Top = Heap[0];
  HeapPos[Top] = -1;
  Var Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPos[Last] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void Solver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100)
    rescaleActivities();
  if (HeapPos[V] >= 0)
    heapSiftUp(size_t(HeapPos[V]));
}

void Solver::rescaleActivities() {
  for (double &A : Activity)
    A *= 1e-100;
  VarInc *= 1e-100;
}

//===----------------------------------------------------------------------===//
// Constraint construction
//===----------------------------------------------------------------------===//

bool Solver::addClause(std::vector<Lit> Lits) {
  std::vector<std::pair<Lit, int64_t>> Terms;
  Terms.reserve(Lits.size());
  for (Lit L : Lits)
    Terms.push_back({L, 1});
  return addLinear(std::move(Terms), 1);
}

bool Solver::addAtLeast(std::vector<Lit> Lits, int64_t Degree) {
  std::vector<std::pair<Lit, int64_t>> Terms;
  Terms.reserve(Lits.size());
  for (Lit L : Lits)
    Terms.push_back({L, 1});
  return addLinear(std::move(Terms), Degree);
}

bool Solver::addLinear(std::vector<std::pair<Lit, int64_t>> Terms,
                       int64_t Degree) {
  assert(decisionLevel() == 0 &&
         "constraints may only be added at the root level");
  if (!Ok)
    return false;

  // Normalize to positive coefficients: c * l with c < 0 becomes
  // |c| * ~l - |c|, i.e. flip the literal and raise the degree.
  for (auto &T : Terms) {
    assert(T.first.var() >= 0 && T.first.var() < int(VarCount) &&
           "literal over unknown variable");
    if (T.second < 0) {
      T.first = ~T.first;
      Degree += -T.second;
      T.second = -T.second;
    }
  }

  // Merge duplicate and opposite literals: sort by variable, then fold.
  std::sort(Terms.begin(), Terms.end(),
            [](const std::pair<Lit, int64_t> &A,
               const std::pair<Lit, int64_t> &B) {
              return A.first.index() < B.first.index();
            });
  std::vector<std::pair<Lit, int64_t>> Merged;
  Merged.reserve(Terms.size());
  for (size_t I = 0; I < Terms.size();) {
    Lit L = Terms[I].first;
    int64_t Pos = 0, Neg = 0;
    for (; I < Terms.size() && Terms[I].first.var() == L.var(); ++I) {
      if (Terms[I].first == L)
        Pos += Terms[I].second;
      else
        Neg += Terms[I].second;
    }
    // a*l + b*~l = min(a,b) + (a-min)*l + (b-min)*~l.
    int64_t Common = std::min(Pos, Neg);
    Degree -= Common;
    Pos -= Common;
    Neg -= Common;
    if (Pos > 0)
      Merged.push_back({L, Pos});
    if (Neg > 0)
      Merged.push_back({~L, Neg});
  }

  // Record the normalized row for OPB export before any further
  // simplification against the current root assignment.
  Export.push_back({Merged, Degree});

  if (!addNormalized(std::move(Merged), Degree))
    Ok = false;
  if (Ok && QHead < Trail.size() && propagate() != NoCref)
    Ok = false;
  return Ok;
}

bool Solver::addNormalized(std::vector<std::pair<Lit, int64_t>> Terms,
                           int64_t Degree) {
  // Simplify against the root-level assignment.
  size_t W = 0;
  for (size_t I = 0; I < Terms.size(); ++I) {
    int8_t V = litValue(Terms[I].first);
    if (V > 0)
      Degree -= Terms[I].second; // Satisfied term.
    else if (V == 0)
      Terms[W++] = Terms[I];
    // False terms contribute nothing and are dropped.
  }
  Terms.resize(W);

  if (Degree <= 0)
    return true; // Tautology.

  // Saturate coefficients at the degree and compute the max sum.
  int64_t MaxSum = 0;
  for (auto &T : Terms) {
    T.second = std::min(T.second, Degree);
    MaxSum += T.second;
  }
  if (MaxSum < Degree)
    return false; // Root-level unsatisfiable.

  if (MaxSum == Degree) {
    // Every literal is forced true at the root.
    for (auto &T : Terms)
      if (litValue(T.first) == 0)
        uncheckedEnqueue(T.first, NoCref);
    return true;
  }

  // Classify: all-unit coefficients -> cardinality (clause when degree
  // is 1, which coefficient saturation guarantees for degree-1 rows).
  bool AllUnit = true;
  for (const auto &T : Terms)
    if (T.second != 1) {
      AllUnit = false;
      break;
    }

  Cref Ref;
  if (AllUnit) {
    Ref = allocConstraint(Terms.size(), /*Linear=*/false, /*Learned=*/false,
                          Degree, 0.0);
    Word *Lits = &Store[size_t(Ref) + HdrWords];
    for (size_t I = 0; I < Terms.size(); ++I)
      Lits[I] = Word(Terms[I].first.index());
  } else {
    // Sort by decreasing coefficient so propagation and reason
    // extraction scan the heaviest terms first.
    std::sort(Terms.begin(), Terms.end(),
              [](const std::pair<Lit, int64_t> &A,
                 const std::pair<Lit, int64_t> &B) {
                return A.second > B.second;
              });
    Ref = allocConstraint(Terms.size(), /*Linear=*/true, /*Learned=*/false,
                          Degree, 0.0);
    Word *C = &Store[size_t(Ref)];
    Word *Tail = tailOf(C);
    for (size_t I = 0; I < Terms.size(); ++I) {
      C[HdrWords + I] = Word(Terms[I].first.index());
      storeField(Tail + TailCoeffs + 2 * I, Terms[I].second);
    }
    storeField(Tail + TailMaxSum, MaxSum);
    storeField(Tail + TailFalseSum, int64_t(0));
  }
  attachConstraint(Ref);

  // A fresh linear row may propagate immediately (slack smaller than
  // some coefficient even with nothing false yet).
  if (!AllUnit) {
    int64_t Slack = MaxSum - Degree;
    for (size_t I = 0; I < Terms.size() && Terms[I].second > Slack; ++I)
      if (litValue(Terms[I].first) == 0)
        uncheckedEnqueue(Terms[I].first, Ref);
  }
  return true;
}

Solver::Cref Solver::allocConstraint(size_t NumLits, bool Linear,
                                     bool Learned, int64_t Degree,
                                     double InitialActivity) {
  size_t Ref = Store.size();
  size_t Words = HdrWords + NumLits + (Linear ? TailCoeffs + 2 * NumLits : 0);
  assert(Ref + Words <= MaxStoreWords && "constraint store overflow");
  Store.resize(Ref + Words, 0);
  Word *C = &Store[Ref];
  C[HdrSize] = Word(NumLits);
  C[HdrFlags] = (Linear ? FlagLinear : 0) | (Learned ? FlagLearned : 0);
  storeField(C + HdrDegree, Degree);
  storeField(C + HdrActivity, InitialActivity);
  ++NumConstraints;
  return Cref(Ref);
}

void Solver::attachConstraint(Cref Ref) {
  const Word *C = &Store[size_t(Ref)];
  const Word *Lits = C + HdrWords;
  size_t N = numLits(C);
  if (!isLinear(C)) {
    int64_t Degree = degreeOf(C);
    assert(int64_t(N) > Degree &&
           "cardinality constraint must have slack to be watchable");
    // Watch the first Degree+1 literals.
    for (int64_t I = 0; I <= Degree; ++I)
      Watches[Lits[I]].push_back(Ref);
  } else {
    const Word *Tail = tailOf(C);
    for (size_t I = 0; I < N; ++I)
      LinOcc[Lits[I]].push_back({Ref, coeffOf(Tail, I)});
  }
}

//===----------------------------------------------------------------------===//
// Assignment and propagation
//===----------------------------------------------------------------------===//

void Solver::uncheckedEnqueue(Lit P, Cref From) {
  Var V = P.var();
  assert(!assigned(V) && "enqueue of an assigned variable");
  Lit NotP = ~P;
  LitValue[size_t(P.index())] = 1;
  LitValue[size_t(NotP.index())] = -1;
  Level[size_t(V)] = decisionLevel();
  Reason[size_t(V)] = From;
  TrailPos[size_t(V)] = int(Trail.size());
  Trail.push_back(P);
  // Keep every linear row's false-sum in lock-step with the trail (not
  // the propagation queue) so a conflict cannot leave sums and trail
  // out of sync across a backtrack.
  for (const auto &Occ : LinOcc[size_t(NotP.index())]) {
    Word *Sum = tailOf(&Store[size_t(Occ.first)]) + TailFalseSum;
    storeField(Sum, loadField<int64_t>(Sum) + Occ.second);
  }
}

Solver::Cref Solver::propagate() {
  Cref Conflict = NoCref;
  while (QHead < Trail.size() && Conflict == NoCref) {
    Lit P = Trail[QHead++];
    ++Stats.Propagations;
    Lit False = ~P; // Literal that just became false.
    Conflict = propagateCard(False, Watches[size_t(False.index())]);
    if (Conflict == NoCref)
      Conflict = propagateLinearAssign(P);
  }
  if (Conflict != NoCref)
    QHead = Trail.size();
  return Conflict;
}

Solver::Cref Solver::propagateCard(Lit False, std::vector<Cref> &Watch) {
  // Visit every cardinality/clause constraint watching the literal that
  // just became false; try to move the watch, else propagate/conflict.
  const Word FalseW = Word(False.index());
  size_t Keep = 0;
  Cref Conflict = NoCref;
  for (size_t I = 0; I < Watch.size(); ++I) {
    Cref Ref = Watch[I];
    if (Conflict != NoCref) {
      Watch[Keep++] = Ref;
      continue;
    }
    Word *C = &Store[size_t(Ref)];
    Word *Lits = C + HdrWords;
    size_t N = numLits(C);
    size_t WatchCount = size_t(degreeOf(C)) + 1;
    // Locate the false watched literal.
    size_t Pos = 0;
    while (Pos < WatchCount && Lits[Pos] != FalseW)
      ++Pos;
    assert(Pos < WatchCount && "watched literal not in the watch set");
    // Try to find a non-false replacement outside the watch set.
    size_t Repl = 0;
    for (size_t J = WatchCount; J < N; ++J)
      if (LitValue[Lits[J]] >= 0) {
        Repl = J;
        break;
      }
    if (Repl != 0) {
      std::swap(Lits[Pos], Lits[Repl]);
      Watches[Lits[Pos]].push_back(Ref);
      continue; // Dropped from this watch list.
    }
    // No replacement: every unwatched literal is false, so all other
    // watched literals must be true.
    Watch[Keep++] = Ref; // Keep watching.
    for (size_t J = 0; J < WatchCount && Conflict == NoCref; ++J) {
      if (J == Pos)
        continue;
      int8_t V = LitValue[Lits[J]];
      if (V < 0)
        Conflict = Ref;
      else if (V == 0)
        uncheckedEnqueue(litOf(Lits[J]), Ref);
    }
  }
  Watch.resize(Keep);
  return Conflict;
}

Solver::Cref Solver::propagateLinearAssign(Lit P) {
  // FalseSum was already updated at enqueue time; here we only detect
  // conflicts and implied literals in rows where ~P occurs.
  Cref Conflict = NoCref;
  Lit NotP = ~P;
  for (const auto &Occ : LinOcc[size_t(NotP.index())]) {
    const Word *C = &Store[size_t(Occ.first)];
    const Word *Lits = C + HdrWords;
    const Word *Tail = tailOf(C);
    size_t N = numLits(C);
    int64_t Slack = loadField<int64_t>(Tail + TailMaxSum) -
                    loadField<int64_t>(Tail + TailFalseSum) - degreeOf(C);
    if (Slack < 0) {
      Conflict = Occ.first;
      break;
    }
    for (size_t I = 0; I < N && coeffOf(Tail, I) > Slack; ++I)
      if (LitValue[Lits[I]] == 0)
        uncheckedEnqueue(litOf(Lits[I]), Occ.first);
  }
  return Conflict;
}

void Solver::cancelUntil(int TargetLevel) {
  if (decisionLevel() <= TargetLevel)
    return;
  size_t Bound = size_t(TrailLim[size_t(TargetLevel)]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    Lit P = Trail[I - 1];
    Var V = P.var();
    Lit NotP = ~P;
    for (const auto &Occ : LinOcc[size_t(NotP.index())]) {
      Word *Sum = tailOf(&Store[size_t(Occ.first)]) + TailFalseSum;
      storeField(Sum, loadField<int64_t>(Sum) - Occ.second);
    }
    SavedPhase[size_t(V)] = uint8_t(!P.negated());
    LitValue[size_t(P.index())] = 0;
    LitValue[size_t(NotP.index())] = 0;
    Reason[size_t(V)] = NoCref;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(size_t(TargetLevel));
  QHead = Trail.size();
}

//===----------------------------------------------------------------------===//
// Conflict analysis
//===----------------------------------------------------------------------===//

void Solver::reasonClause(Cref Ref, Lit P, std::vector<Lit> &Out) {
  // Produce a clause-form antecedent: a set of currently-false literals
  // of the constraint whose falsity (a) refutes the constraint when P is
  // undefined (conflict clause), or (b) forces P true (reason for a
  // propagation). For propagation reasons only assignments that precede
  // P on the trail may participate, keeping the implication graph
  // acyclic.
  Out.clear();
  const Word *C = &Store[size_t(Ref)];
  const Word *Lits = C + HdrWords;
  size_t N = numLits(C);
  int Before = P == UndefLit ? int(Trail.size()) : TrailPos[size_t(P.var())];
  if (!isLinear(C)) {
    // At least Degree of the literals must be true, so listing the
    // false ones (>= n-Degree of them for a reason, more for a
    // conflict) yields an implied clause.
    for (size_t I = 0; I < N; ++I) {
      Lit L = litOf(Lits[I]);
      if (litValue(L) < 0 && TrailPos[size_t(L.var())] < Before)
        Out.push_back(L);
    }
  } else {
    // Greedy PB reason: false literals, largest coefficients first,
    // until the remaining terms cannot reach the degree (minus P's own
    // coefficient when explaining a propagation).
    const Word *Tail = tailOf(C);
    int64_t Need = loadField<int64_t>(Tail + TailMaxSum) - degreeOf(C);
    if (P != UndefLit)
      for (size_t I = 0; I < N; ++I)
        if (litOf(Lits[I]) == P) {
          Need -= coeffOf(Tail, I);
          break;
        }
    int64_t Got = 0;
    for (size_t I = 0; I < N && Got <= Need; ++I) {
      Lit L = litOf(Lits[I]);
      if (L != P && litValue(L) < 0 && TrailPos[size_t(L.var())] < Before) {
        Out.push_back(L);
        Got += coeffOf(Tail, I);
      }
    }
    assert(Got > Need && "PB reason extraction fell short of the slack");
  }
}

template <typename Fn>
void Solver::forEachReasonLit(Cref Ref, Lit P, Fn Visit) {
  const Word *C = &Store[size_t(Ref)];
  if (isLinear(C) || degreeOf(C) != 1) {
    reasonClause(Ref, P, ReasonScratch);
    for (Lit Q : ReasonScratch)
      if (!Visit(Q))
        return;
    return;
  }
  // A clause: every literal but P is false and was assigned before P (a
  // backjump that unassigns one of them unassigns P as well), and a
  // conflicting clause is false throughout, so its literals are the
  // reason as they stand.
  const Word *Lits = C + HdrWords;
  for (size_t I = 0, N = numLits(C); I < N; ++I)
    if (litOf(Lits[I]) != P && !Visit(litOf(Lits[I])))
      return;
}

int Solver::analyze(Cref Conflict, std::vector<Lit> &Learnt) {
  assert(decisionLevel() > 0 && "analysis requires a decision to undo");
  Learnt.clear();
  Learnt.push_back(UndefLit); // Slot for the asserting literal.
  SeenVars.clear();

  int PathCount = 0;
  Lit P = UndefLit;
  int Index = int(Trail.size());
  Cref Confl = Conflict;
  do {
    assert(Confl != NoCref && "resolved literal lacks a reason");
    bumpConstraint(Confl);
    forEachReasonLit(Confl, P, [&](Lit Q) {
      Var V = Q.var();
      if (Seen[size_t(V)] || Level[size_t(V)] == 0)
        return true;
      Seen[size_t(V)] = 1;
      SeenVars.push_back(V);
      bumpVar(V);
      if (Level[size_t(V)] >= decisionLevel())
        ++PathCount;
      else
        Learnt.push_back(Q);
      return true;
    });
    // Walk back to the next marked literal on the trail.
    while (!Seen[size_t(Trail[size_t(Index - 1)].var())])
      --Index;
    --Index;
    P = Trail[size_t(Index)];
    Confl = Reason[size_t(P.var())];
    Seen[size_t(P.var())] = 0;
    --PathCount;
  } while (PathCount > 0);
  Learnt[0] = ~P;

  minimizeLearnt(Learnt);

  // Find the backtrack level: highest level among the tail literals.
  int BtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Level[size_t(Learnt[I].var())] > Level[size_t(Learnt[MaxI].var())])
        MaxI = I;
    std::swap(Learnt[1], Learnt[MaxI]);
    BtLevel = Level[size_t(Learnt[1].var())];
  }

  for (Var V : SeenVars)
    Seen[size_t(V)] = 0;
  return BtLevel;
}

void Solver::minimizeLearnt(std::vector<Lit> &Learnt) {
  // Cheap self-subsumption: a tail literal is redundant when every
  // literal of its (PB-aware) reason is already in the learned clause
  // or assigned at the root.
  for (size_t I = 0; I < Learnt.size(); ++I)
    Seen[size_t(Learnt[I].var())] = 1;
  size_t W = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    Var V = Learnt[I].var();
    Cref R = Reason[size_t(V)];
    bool Redundant = false;
    if (R != NoCref) {
      Redundant = true;
      forEachReasonLit(R, ~Learnt[I], [&](Lit Q) {
        Redundant = Seen[size_t(Q.var())] || Level[size_t(Q.var())] == 0;
        return Redundant;
      });
    }
    if (!Redundant)
      Learnt[W++] = Learnt[I];
    else
      Seen[size_t(V)] = 0;
  }
  Learnt.resize(W);
  for (size_t I = 0; I < Learnt.size(); ++I)
    Seen[size_t(Learnt[I].var())] = 0;
}

void Solver::analyzeFinal(Lit FailedAssumption, std::vector<Lit> &OutCore) {
  // The failed assumption is false; trace the assignment of its
  // negation back to the assumptions that forced it.
  OutCore.clear();
  OutCore.push_back(FailedAssumption);
  if (decisionLevel() == 0)
    return;
  Seen[size_t(FailedAssumption.var())] = 1;
  for (int I = int(Trail.size()); I > TrailLim[0]; --I) {
    Lit T = Trail[size_t(I - 1)];
    Var V = T.var();
    if (!Seen[size_t(V)])
      continue;
    Seen[size_t(V)] = 0;
    if (Reason[size_t(V)] == NoCref) {
      // A decision inside the assumption prefix is an assumption.
      assert(Level[size_t(V)] > 0 && "root literal cannot be a decision");
      OutCore.push_back(T);
    } else {
      forEachReasonLit(Reason[size_t(V)], T, [&](Lit Q) {
        if (Level[size_t(Q.var())] > 0)
          Seen[size_t(Q.var())] = 1;
        return true;
      });
    }
  }
  Seen[size_t(FailedAssumption.var())] = 0;
  // The failed assumption itself may have been re-added by the walk.
  std::sort(OutCore.begin(), OutCore.end());
  OutCore.erase(std::unique(OutCore.begin(), OutCore.end()), OutCore.end());
}

void Solver::recordLearnt(const std::vector<Lit> &Learnt) {
  ++Stats.Learned;
  if (Learnt.size() == 1) {
    assert(decisionLevel() == 0 && "unit learned above the root");
    uncheckedEnqueue(Learnt[0], NoCref);
    return;
  }
  Cref Ref = allocConstraint(Learnt.size(), /*Linear=*/false,
                             /*Learned=*/true, 1, ConstraintInc);
  Word *Lits = &Store[size_t(Ref) + HdrWords];
  for (size_t I = 0; I < Learnt.size(); ++I)
    Lits[I] = Word(Learnt[I].index());
  attachConstraint(Ref);
  Learnts.push_back(Ref);
  uncheckedEnqueue(Learnt[0], Ref);
}

bool Solver::locked(Cref Ref) const {
  const Word *C = &Store[size_t(Ref)];
  const Word *Lits = C + HdrWords;
  for (size_t I = 0, N = numLits(C); I < N; ++I) {
    Var V = litOf(Lits[I]).var();
    if (assigned(V) && Reason[size_t(V)] == Ref)
      return true;
  }
  return false;
}

void Solver::bumpConstraint(Cref Ref) {
  Word *C = &Store[size_t(Ref)];
  if (!(C[HdrFlags] & FlagLearned))
    return;
  double Bumped = loadField<double>(C + HdrActivity) + ConstraintInc;
  storeField(C + HdrActivity, Bumped);
  if (Bumped > 1e20) {
    for (Cref L : Learnts) {
      Word *A = &Store[size_t(L) + HdrActivity];
      storeField(A, loadField<double>(A) * 1e-20);
    }
    ConstraintInc *= 1e-20;
  }
}

void Solver::reduceLearnts() {
  // Drop the lower-activity half of the learned database, keeping
  // binary and locked (currently-propagating) clauses.
  auto ActivityOf = [this](Cref Ref) {
    return loadField<double>(&Store[size_t(Ref) + HdrActivity]);
  };
  std::sort(Learnts.begin(), Learnts.end(), [&](Cref A, Cref B) {
    return ActivityOf(A) < ActivityOf(B);
  });
  size_t Target = Learnts.size() / 2;
  size_t Removed = 0, W = 0;
  for (size_t I = 0; I < Learnts.size(); ++I) {
    Cref Ref = Learnts[I];
    if (Removed < Target && numLits(&Store[size_t(Ref)]) > 2 &&
        !locked(Ref)) {
      Store[size_t(Ref) + HdrFlags] |= FlagDeleted;
      ++Removed;
    } else {
      Learnts[W++] = Ref;
    }
  }
  Learnts.resize(W);
  if (Removed > 0)
    compactStore();
  // Let the database grow a little between reductions.
  LearntAdjust += LearntAdjust / 10;
}

void Solver::compactStore() {
  // A sliding compaction in three passes: park each survivor's new
  // offset in its flags word, remap every reference through it while
  // the old headers are still in place, then slide the survivors down.
  size_t To = 0;
  for (size_t From = 0; From < Store.size();) {
    Word *C = &Store[From];
    size_t Words = wordsOf(C);
    if (!(C[HdrFlags] & FlagDeleted)) {
      C[HdrFlags] |= Word(To) << FlagBits;
      To += Words;
    } else {
      --NumConstraints;
    }
    From += Words;
  }
  auto Deleted = [this](Cref Ref) {
    return (Store[size_t(Ref) + HdrFlags] & FlagDeleted) != 0;
  };
  auto Relocate = [&](Cref Ref) {
    assert(!Deleted(Ref) && "reference to a deleted constraint");
    return Cref(Store[size_t(Ref) + HdrFlags] >> FlagBits);
  };

  // Dropping deleted watches keeps the surviving ones in order, exactly
  // as skipping them during propagation would.
  for (std::vector<Cref> &List : Watches) {
    size_t Keep = 0;
    for (Cref Ref : List)
      if (!Deleted(Ref))
        List[Keep++] = Relocate(Ref);
    List.resize(Keep);
  }
  for (auto &List : LinOcc)
    for (auto &Occ : List)
      Occ.first = Relocate(Occ.first);
  for (Cref &Ref : Learnts)
    Ref = Relocate(Ref);
  // Only assigned variables carry a reason, and reduceLearnts() never
  // deletes a constraint that is one.
  for (Cref &Ref : Reason)
    if (Ref != NoCref)
      Ref = Relocate(Ref);

  // Each survivor lands at or before its old offset, so going in store
  // order never overwrites a header not yet read.
  for (size_t From = 0; From < Store.size();) {
    Word *C = &Store[From];
    size_t Words = wordsOf(C);
    if (!(C[HdrFlags] & FlagDeleted)) {
      size_t Dest = C[HdrFlags] >> FlagBits;
      C[HdrFlags] &= FlagMask;
      if (Dest != From)
        std::copy(C, C + Words, &Store[Dest]);
    }
    From += Words;
  }
  Store.resize(To);
}

//===----------------------------------------------------------------------===//
// Search
//===----------------------------------------------------------------------===//

Lit Solver::pickBranchLit() {
  while (!Heap.empty()) {
    Var V = heapPop();
    if (!assigned(V))
      return Lit(V, !SavedPhase[size_t(V)]);
  }
  return UndefLit;
}

bool Solver::budgetExpired(int64_t ConflictsLeft) const {
  if (ConflictLimit >= 0 && ConflictsLeft <= 0)
    return true;
  return DeadlineSeconds < 1e29 && monotonicSeconds() > DeadlineSeconds;
}

SolveStatus Solver::search(int64_t ConflictBudget,
                           const std::vector<Lit> &Assumptions,
                           int64_t &ConflictsLeft) {
  std::vector<Lit> Learnt;
  for (;;) {
    Cref Conflict = propagate();
    if (Conflict != NoCref) {
      ++Stats.Conflicts;
      --ConflictsLeft;
      --ConflictBudget;
      if (decisionLevel() == 0) {
        Core.clear(); // Unsatisfiable regardless of assumptions.
        Ok = false;
        return SolveStatus::Unsat;
      }
      int BtLevel = analyze(Conflict, Learnt);
      cancelUntil(BtLevel);
      recordLearnt(Learnt);
      decayActivities();
      ConstraintInc /= 0.999;
      // The conflict budget is an upper bound: the conflict that spends
      // it ends the search before the next propagation can add another.
      if (ConflictLimit >= 0 && ConflictsLeft <= 0) {
        cancelUntil(0);
        return SolveStatus::Limit;
      }
      continue;
    }

    // Budget checkpoints at the decision boundary.
    if (Cancel.cancelled()) {
      cancelUntil(0);
      return SolveStatus::Cancelled;
    }
    if (budgetExpired(ConflictsLeft)) {
      cancelUntil(0);
      return SolveStatus::Limit;
    }
    if (ConflictBudget <= 0) {
      // Luby restart: surface as Limit; solve() restarts the search.
      cancelUntil(0);
      ++Stats.Restarts;
      return SolveStatus::Limit;
    }
    if (int64_t(Learnts.size()) >= LearntAdjust)
      reduceLearnts();

    // Extend the assumption prefix before free decisions.
    Lit Next = UndefLit;
    while (decisionLevel() < int(Assumptions.size())) {
      Lit A = Assumptions[size_t(decisionLevel())];
      int8_t V = litValue(A);
      if (V > 0) {
        TrailLim.push_back(int(Trail.size())); // Dummy level.
      } else if (V < 0) {
        analyzeFinal(A, Core);
        return SolveStatus::Unsat;
      } else {
        Next = A;
        break;
      }
    }
    if (Next == UndefLit) {
      Next = pickBranchLit();
      if (Next == UndefLit) {
        // All variables assigned: a model.
        Model.assign(VarCount, 0);
        for (size_t V = 0; V < VarCount; ++V)
          Model[V] = uint8_t(LitValue[2 * V] > 0);
        return SolveStatus::Sat;
      }
      ++Stats.Decisions;
    }
    TrailLim.push_back(int(Trail.size()));
    uncheckedEnqueue(Next, NoCref);
  }
}

SolveStatus Solver::solve(const std::vector<Lit> &Assumptions) {
  SolverStats Before = Stats;
  SolveStatus Result;
  if (!Ok) {
    Core.clear();
    Result = SolveStatus::Unsat;
  } else {
    cancelUntil(0);
    if (LearntAdjust == 0)
      LearntAdjust = std::max<int64_t>(2000, int64_t(NumConstraints));
    int64_t ConflictsLeft =
        ConflictLimit >= 0 ? ConflictLimit : int64_t(1) << 62;
    int64_t RestartIndex = 0;
    for (;;) {
      int64_t Budget = luby(RestartIndex++) * 100;
      Result = search(Budget, Assumptions, ConflictsLeft);
      if (Result != SolveStatus::Limit)
        break;
      if (Cancel.cancelled()) {
        Result = SolveStatus::Cancelled;
        break;
      }
      if (budgetExpired(ConflictsLeft))
        break; // A genuine Limit, not a restart.
    }
    cancelUntil(0);
  }

  StatConflicts += Stats.Conflicts - Before.Conflicts;
  StatPropagations += Stats.Propagations - Before.Propagations;
  StatRestarts += Stats.Restarts - Before.Restarts;
  StatLearned += Stats.Learned - Before.Learned;
  return Result;
}

} // namespace pb
} // namespace modsched
