//===- graph/GraphAlgorithms.cpp - SCC, cycles, time windows --------------===//

#include "graph/GraphAlgorithms.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace modsched;

namespace {

/// Iterative Tarjan SCC (explicit stack to survive deep graphs).
class TarjanScc {
public:
  TarjanScc(int NumNodes, const std::vector<std::vector<int>> &Succ)
      : Succ(Succ), Index(NumNodes, -1), LowLink(NumNodes, 0),
        OnStack(NumNodes, false) {
    for (int Node = 0; Node < NumNodes; ++Node)
      if (Index[Node] < 0)
        visit(Node);
  }

  std::vector<std::vector<int>> take() { return std::move(Components); }

private:
  void visit(int Root) {
    struct Frame {
      int Node;
      size_t NextSucc;
    };
    std::vector<Frame> CallStack{{Root, 0}};
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      int Node = F.Node;
      if (F.NextSucc == 0) {
        Index[Node] = LowLink[Node] = NextIndex++;
        Stack.push_back(Node);
        OnStack[Node] = true;
      }
      bool Descended = false;
      while (F.NextSucc < Succ[Node].size()) {
        int Next = Succ[Node][F.NextSucc++];
        if (Index[Next] < 0) {
          CallStack.push_back({Next, 0});
          Descended = true;
          break;
        }
        if (OnStack[Next])
          LowLink[Node] = std::min(LowLink[Node], Index[Next]);
      }
      if (Descended)
        continue;
      if (LowLink[Node] == Index[Node]) {
        std::vector<int> Component;
        for (;;) {
          int Popped = Stack.back();
          Stack.pop_back();
          OnStack[Popped] = false;
          Component.push_back(Popped);
          if (Popped == Node)
            break;
        }
        Components.push_back(std::move(Component));
      }
      CallStack.pop_back();
      if (!CallStack.empty()) {
        Frame &Parent = CallStack.back();
        LowLink[Parent.Node] = std::min(LowLink[Parent.Node], LowLink[Node]);
      }
    }
  }

  const std::vector<std::vector<int>> &Succ;
  std::vector<int> Index, LowLink;
  std::vector<bool> OnStack;
  std::vector<int> Stack;
  std::vector<std::vector<int>> Components;
  int NextIndex = 0;
};

std::vector<std::vector<int>> successorLists(const DependenceGraph &G) {
  std::vector<std::vector<int>> Succ(G.numOperations());
  for (const SchedEdge &E : G.schedEdges())
    Succ[E.Src].push_back(E.Dst);
  return Succ;
}

/// Longest-path relaxation with weights latency - II * distance (set
/// II < 0 with ZeroDistanceOnly to restrict to distance-0 edges). Returns
/// false when a positive cycle prevents convergence.
bool relaxLongestPaths(const DependenceGraph &G, int II,
                       std::vector<int> &Time) {
  int N = G.numOperations();
  // N rounds suffice for convergence; one extra round detects cycles.
  for (int Round = 0; Round <= N; ++Round) {
    bool Changed = false;
    for (const SchedEdge &E : G.schedEdges()) {
      // time_dst >= time_src + latency - II * distance.
      long Needed =
          long(Time[E.Src]) + E.Latency - long(II) * E.Distance;
      if (Needed > Time[E.Dst]) {
        Time[E.Dst] = static_cast<int>(Needed);
        Changed = true;
      }
    }
    if (!Changed)
      return true;
  }
  return false;
}

} // namespace

std::vector<std::vector<int>>
modsched::stronglyConnectedComponents(const DependenceGraph &G) {
  std::vector<std::vector<int>> Succ = successorLists(G);
  TarjanScc Scc(G.numOperations(), Succ);
  return Scc.take();
}

bool modsched::hasZeroDistanceCycle(const DependenceGraph &G) {
  // Kahn's algorithm over the distance-0 edges: a node that is never
  // released lies on, or downstream of, a zero-distance cycle (a
  // distance-0 self-loop holds its own node back). One flat buffer holds
  // the in-degrees, the CSR adjacency and the ready stack.
  const int N = G.numOperations();
  int NumZero = 0;
  for (const SchedEdge &E : G.schedEdges())
    NumZero += E.Distance == 0;
  if (NumZero == 0)
    return false;
  std::vector<int> Buf(3 * std::size_t(N) + 1 + std::size_t(NumZero), 0);
  int *InDeg = Buf.data();
  int *Pos = InDeg + N; // N + 1 CSR offsets.
  int *Succ = Pos + N + 1;
  int *Ready = Succ + NumZero;
  for (const SchedEdge &E : G.schedEdges())
    if (E.Distance == 0) {
      ++InDeg[E.Dst];
      ++Pos[E.Src];
    }
  // Pos[V] becomes the end of V's range, then each edge fills its slot
  // from the back, leaving Pos[V] at the start: V's successors are
  // Succ[Pos[V] .. Pos[V + 1]).
  for (int V = 1; V <= N; ++V)
    Pos[V] += Pos[V - 1];
  for (const SchedEdge &E : G.schedEdges())
    if (E.Distance == 0)
      Succ[--Pos[E.Src]] = E.Dst;

  int Top = 0;
  for (int V = 0; V < N; ++V)
    if (InDeg[V] == 0)
      Ready[Top++] = V;
  int Released = 0;
  while (Top > 0) {
    const int V = Ready[--Top];
    ++Released;
    for (int K = Pos[V]; K < Pos[V + 1]; ++K)
      if (--InDeg[Succ[K]] == 0)
        Ready[Top++] = Succ[K];
  }
  return Released != N;
}

bool modsched::hasPositiveCycle(const DependenceGraph &G, int II) {
  std::vector<int> Time(G.numOperations(), 0);
  return !relaxLongestPaths(G, II, Time);
}

std::optional<std::vector<int>> modsched::asapTimes(const DependenceGraph &G,
                                                    int II) {
  std::vector<int> Time(G.numOperations(), 0);
  if (!relaxLongestPaths(G, II, Time))
    return std::nullopt;
  return Time;
}

std::optional<std::vector<int>> modsched::alapTimes(const DependenceGraph &G,
                                                    int II, int MaxTime) {
  // Latest times: late_src <= late_dst - latency + II * distance. Relax
  // downward from MaxTime; a positive cycle would diverge, but the caller
  // is expected to have verified II >= RecMII first. We still bail out.
  int N = G.numOperations();
  std::vector<int> Late(N, MaxTime);
  for (int Round = 0; Round <= N; ++Round) {
    bool Changed = false;
    for (const SchedEdge &E : G.schedEdges()) {
      long Limit = long(Late[E.Dst]) - E.Latency + long(II) * E.Distance;
      if (Limit < Late[E.Src]) {
        Late[E.Src] = static_cast<int>(Limit);
        Changed = true;
      }
    }
    if (!Changed)
      return Late;
  }
  return std::nullopt;
}

std::optional<int> modsched::minScheduleLength(const DependenceGraph &G,
                                               int II) {
  std::optional<std::vector<int>> Asap = asapTimes(G, II);
  if (!Asap)
    return std::nullopt;
  int Max = 0;
  for (int T : *Asap)
    Max = std::max(Max, T);
  return Max + 1;
}

//===----------------------------------------------------------------------===//
// Canonical labeling
//===----------------------------------------------------------------------===//

namespace {

/// Individualization-refinement search for a canonical node order. Every
/// buffer is sized once per search and reused: the adjacency is one CSR
/// array, one id stack holds the partition of every node on the current
/// DFS path, and leaf forms are built into two buffers that trade places
/// when a smaller leaf appears.
class CanonicalSearch {
public:
  CanonicalSearch(int NumNodes, const std::vector<uint64_t> &NodeColors,
                  const std::vector<CanonicalEdge> &Edges,
                  int64_t StepBudget)
      : N(NumNodes), NodeColors(NodeColors), Edges(Edges),
        Budget(StepBudget), OrbitBudget(StepBudget),
        RoundCost(NumNodes + static_cast<int64_t>(Edges.size())) {
    // Node V's out-arcs are Arcs[Start[2V], Start[2V+1]), its in-arcs
    // Arcs[Start[2V+1], Start[2V+2]). Count each list's end, then fill
    // the lists back to front.
    Start.assign(2 * static_cast<size_t>(N) + 1, 0);
    for (const CanonicalEdge &E : Edges) {
      ++Start[2 * E.Src];
      ++Start[2 * E.Dst + 1];
    }
    for (int I = 1; I <= 2 * N; ++I)
      Start[I] += Start[I - 1];
    Arcs.resize(2 * Edges.size());
    for (const CanonicalEdge &E : Edges) {
      Arcs[--Start[2 * E.Src]] = {E.Dst, E.Color};
      Arcs[--Start[2 * E.Dst + 1]] = {E.Src, E.Color};
    }
    IdMix.resize(N);
    Keys.resize(N);
    IdStack.resize(2 * static_cast<size_t>(N)); // The root and a child.
    BestOrder.resize(N);
    CandOrder.resize(N);
    CandForm.reserve(N + 2 * Edges.size());
    EdgeKeys.reserve(Edges.size());
  }

  CanonicalLabeling run() {
    CanonicalLabeling Result;
    Result.CanonicalIndex.assign(N, 0);
    if (N == 0) {
      Result.InvariantHash = hashMix(0x63616e6fu); // "cano"
      return Result;
    }

    // Initial partition from the caller's node colors, then refine.
    std::vector<int> RootIds(N);
    for (int V = 0; V < N; ++V)
      Keys[V] = {NodeColors[V], V};
    int Classes = refine(RootIds.data(), rankKeys(RootIds.data()));

    // The invariant hash depends only on the stable color multiset plus
    // the (edge color, endpoint color) multiset — never on the tie-break
    // search below, so it stays relabeling-invariant even when the
    // budget trips.
    uint64_t NodeAcc = 0;
    for (int V = 0; V < N; ++V)
      NodeAcc = hashUnordered(NodeAcc, hashMix(RootIds[V] + 1));
    uint64_t EdgeAcc = 0;
    for (const CanonicalEdge &E : Edges) {
      uint64_t H = hashMix(0x65646765u); // "edge"
      H = hashCombine(H, E.Color);
      H = hashCombine(H, RootIds[E.Src] + 1);
      H = hashCombine(H, RootIds[E.Dst] + 1);
      EdgeAcc = hashUnordered(EdgeAcc, H);
    }
    uint64_t Inv = hashMix(0x63616e6fu); // "cano"
    Inv = hashCombine(Inv, static_cast<uint64_t>(N));
    Inv = hashCombine(Inv, NodeAcc);
    Inv = hashCombine(Inv, EdgeAcc);
    Result.InvariantHash = Inv;

    // Individualization-refinement: explore every way of splitting the
    // first non-singleton class and keep the first lexicographically
    // smallest complete form, skipping children that a recorded
    // automorphism maps onto an explored sibling. The root node refines
    // its (already stable) partition once more, which renumbers it.
    if (!Exhausted) {
      std::copy(RootIds.begin(), RootIds.end(), IdStack.begin());
      dfs(0, Classes);
    }

    if (HaveBest) {
      for (int Pos = 0; Pos < N; ++Pos)
        Result.CanonicalIndex[BestOrder[Pos]] = Pos;
      Result.Exact = !Exhausted;
    } else {
      // Budget died before any leaf: deterministic fallback order (by
      // refined color, then original index). Never relabeling-invariant.
      std::vector<int> Order(N);
      for (int V = 0; V < N; ++V)
        Order[V] = V;
      std::sort(Order.begin(), Order.end(), [&](int A, int B) {
        return std::make_pair(RootIds[A], A) < std::make_pair(RootIds[B], B);
      });
      for (int Pos = 0; Pos < N; ++Pos)
        Result.CanonicalIndex[Order[Pos]] = Pos;
      Result.Exact = false;
    }
    return Result;
  }

private:
  /// One CSR entry: the node at the other end of an edge and its color.
  struct Arc {
    int Node;
    uint64_t Color;
  };

  /// Per-depth state of the tree node on the current DFS path.
  struct Level {
    /// The child being searched.
    int Child = -1;
    /// The node's explored children are Explored[ExploredBegin, next
    /// level's ExploredBegin).
    size_t ExploredBegin = 0;
    /// Union-find over nodes (allocated once a second child is
    /// considered): orbits of the recorded automorphisms that fix the
    /// node's individualized prefix pointwise.
    std::vector<int> Orbit;
    /// Recorded automorphisms already merged into Orbit.
    size_t Merged = 0;
  };

  int *ids(int Depth) { return IdStack.data() + size_t(Depth) * N; }

  /// Writes the dense rank of Keys[V].first to Ids[V] — ranked by value,
  /// not first occurrence, so the numbering is relabeling-invariant —
  /// and returns the number of distinct values.
  int rankKeys(int *Ids) {
    std::sort(Keys.begin(), Keys.end(),
              [](const std::pair<uint64_t, int> &A,
                 const std::pair<uint64_t, int> &B) {
                return A.first < B.first;
              });
    int Rank = 0;
    for (int I = 0; I < N; ++I) {
      if (I > 0 && Keys[I].first != Keys[I - 1].first)
        ++Rank;
      Ids[Keys[I].second] = Rank;
    }
    return Rank + 1;
  }

  /// WL refinement to fixpoint of the dense partition \p Ids with
  /// \p Classes classes, in place. Returns the final class count, or -1
  /// when the step budget runs out (Ids then holds the last full round).
  /// A round that splits nothing still renumbers the classes.
  int refine(int *Ids, int Classes) {
    for (int Round = 0; Round < N && Classes < N; ++Round) {
      Budget -= RoundCost;
      if (Budget < 0) {
        Exhausted = true;
        return -1;
      }
      for (int V = 0; V < N; ++V)
        IdMix[V] = hashMix(Ids[V] + 1);
      for (int V = 0; V < N; ++V) {
        uint64_t OutAcc = 0, InAcc = 0;
        for (int A = Start[2 * V]; A < Start[2 * V + 1]; ++A)
          OutAcc = hashUnordered(
              OutAcc, hashCombineMixed(Arcs[A].Color, IdMix[Arcs[A].Node]));
        for (int A = Start[2 * V + 1]; A < Start[2 * V + 2]; ++A)
          InAcc = hashUnordered(
              InAcc, hashCombineMixed(Arcs[A].Color, IdMix[Arcs[A].Node]));
        Keys[V] = {hashCombine(hashCombine(IdMix[V], OutAcc), InAcc), V};
      }
      int NextClasses = rankKeys(Ids);
      if (NextClasses == Classes)
        return Classes; // Stable partition.
      Classes = NextClasses;
    }
    return Classes;
  }

  /// Scores the discrete partition \p Ids (Ids[V] = V's position) of the
  /// tree node at \p Depth. The form is the node colors in canonical
  /// order, then the sorted ((src, dst) position pair, color) edge keys;
  /// a form equal to the best one yields an automorphism.
  void leaf(const int *Ids, int Depth) {
    for (int V = 0; V < N; ++V)
      CandOrder[Ids[V]] = V;
    CandForm.clear();
    for (int P = 0; P < N; ++P)
      CandForm.push_back(NodeColors[CandOrder[P]]);
    EdgeKeys.clear();
    for (const CanonicalEdge &E : Edges)
      EdgeKeys.push_back({(static_cast<uint64_t>(Ids[E.Src]) << 32) |
                              static_cast<uint64_t>(Ids[E.Dst]),
                          E.Color});
    std::sort(EdgeKeys.begin(), EdgeKeys.end());
    for (const auto &[Key, Color] : EdgeKeys) {
      CandForm.push_back(Key);
      CandForm.push_back(Color);
    }
    if (!HaveBest || CandForm < BestForm) {
      HaveBest = true;
      BestForm.swap(CandForm);
      BestOrder.swap(CandOrder);
      return;
    }
    if (CandForm != BestForm || OrbitBudget <= 0)
      return;
    // Mapping each node to the best leaf's node at its position is an
    // automorphism Gamma, since the two leaves render the same form. Keep
    // the nodes it moves.
    size_t Begin = Moves.size();
    for (int V = 0; V < N; ++V)
      if (BestOrder[Ids[V]] != V)
        Moves.push_back({V, BestOrder[Ids[V]]});
    OrbitBudget -= static_cast<int64_t>(Moves.size() - Begin);
    if (Moves.size() == Begin)
      return;
    AutoEnd.push_back(Moves.size());

    // If Gamma fixes the path down to an ancestor and maps the ancestor's
    // current child onto an explored sibling, the rest of that child's
    // subtree mirrors explored leaves: return to the ancestor.
    for (int D = 0; D < Depth; ++D) {
      int Child = Levels[D].Child, Image = BestOrder[Ids[Child]];
      auto First = Explored.begin() + Levels[D].ExploredBegin;
      auto Last = Explored.begin() + Levels[D + 1].ExploredBegin;
      OrbitBudget -= (Last - First) + 1;
      if (std::find(First, Last, Image) != Last) {
        AbortTo = D;
        return;
      }
      if (Image != Child)
        return;
    }
  }

  static int findRoot(std::vector<int> &Parent, int V) {
    while (Parent[V] != V)
      V = Parent[V] = Parent[Parent[V]];
    return V;
  }

  /// True when \p V lies in the orbit of an explored child of the node at
  /// \p Depth under the recorded automorphisms that fix the node's
  /// individualized prefix pointwise. Such an automorphism maps the node
  /// onto itself and the explored child's subtree onto V's, leaf forms
  /// included, so V's subtree holds no leaf that is smaller than, or
  /// equal to and earlier than, one already seen.
  bool inExploredOrbit(int Depth, int V) {
    Level &L = Levels[Depth];
    if (L.Orbit.empty()) {
      L.Orbit.resize(N);
      for (int W = 0; W < N; ++W)
        L.Orbit[W] = W;
      L.Merged = 0;
    }
    for (; L.Merged < AutoEnd.size() && OrbitBudget > 0; ++L.Merged) {
      auto First = Moves.begin() + (L.Merged ? AutoEnd[L.Merged - 1] : 0);
      auto Last = Moves.begin() + AutoEnd[L.Merged];
      OrbitBudget -= Last - First;
      if (std::any_of(First, Last, [&](const std::pair<int, int> &M) {
            return InPrefix[M.first];
          }))
        continue;
      for (auto It = First; It != Last; ++It) {
        int A = findRoot(L.Orbit, It->first);
        int B = findRoot(L.Orbit, It->second);
        if (A != B)
          L.Orbit[std::max(A, B)] = std::min(A, B);
      }
    }
    int Root = findRoot(L.Orbit, V);
    for (size_t I = L.ExploredBegin; I < Explored.size(); ++I)
      if (findRoot(L.Orbit, Explored[I]) == Root)
        return true;
    return false;
  }

  /// Searches the tree node at \p Depth, whose partition (with
  /// \p Classes classes) is at ids(Depth).
  void dfs(int Depth, int Classes) {
    Classes = refine(ids(Depth), Classes);
    if (Classes < 0)
      return; // Keep the first complete leaf found before exhaustion.
    if (Classes == N) {
      leaf(ids(Depth), Depth);
      return;
    }

    // Target the smallest non-singleton color class: the first run of
    // equal signatures in Keys, which the refinement round that produced
    // these ids left sorted.
    int Target = 0;
    for (int I = 1; Keys[I].first != Keys[I - 1].first; ++I)
      ++Target;

    if (static_cast<int>(Levels.size()) < Depth + 2)
      Levels.resize(Depth + 2);
    Levels[Depth].ExploredBegin = Explored.size();
    Levels[Depth].Orbit.clear();
    if (IdStack.size() < size_t(Depth + 2) * N)
      IdStack.resize(size_t(Depth + 2) * N);
    if (InPrefix.empty())
      InPrefix.assign(N, false);

    // Individualize each member of the target class in turn: it becomes
    // class Target and the rest of its old class and every later class
    // shift up by one (ids stay dense).
    for (int V = 0; V < N && !Exhausted; ++V) {
      const int *Ids = ids(Depth); // Deeper levels may grow the stack.
      if (Ids[V] != Target)
        continue;
      if (Explored.size() > Levels[Depth].ExploredBegin &&
          inExploredOrbit(Depth, V))
        continue;
      int *Child = ids(Depth + 1);
      for (int W = 0; W < N; ++W)
        Child[W] = Ids[W] < Target ? Ids[W] : Ids[W] + 1;
      Child[V] = Target;
      InPrefix[V] = true;
      Levels[Depth].Child = V;
      Levels[Depth + 1].ExploredBegin = Explored.size();
      dfs(Depth + 1, Classes + 1);
      InPrefix[V] = false;
      Explored.resize(Levels[Depth + 1].ExploredBegin);
      if (AbortTo >= 0) {
        if (AbortTo < Depth)
          return;
        AbortTo = -1;
      }
      Explored.push_back(V);
    }
  }

  const int N;
  const std::vector<uint64_t> &NodeColors;
  const std::vector<CanonicalEdge> &Edges;
  int64_t Budget;
  /// Bounds the orbit bookkeeping, which the step budget does not see:
  /// once spent, no automorphism is recorded or merged and the search
  /// prunes with the orbits it has. Pruning only ever skips work, so
  /// this never changes the result or when the step budget trips.
  int64_t OrbitBudget;
  const int64_t RoundCost;
  bool Exhausted = false;

  std::vector<int> Start;
  std::vector<Arc> Arcs;
  std::vector<uint64_t> IdMix;
  std::vector<std::pair<uint64_t, int>> Keys;
  std::vector<int> IdStack;
  /// Marks the nodes individualized on the current DFS path.
  std::vector<char> InPrefix;
  /// Explored children of the nodes on the current DFS path, level after
  /// level.
  std::vector<int> Explored;
  /// Depth the search is returning to after a leaf's automorphism showed
  /// the rest of the path's subtree to be a mirror image, or -1.
  int AbortTo = -1;
  std::vector<Level> Levels;

  bool HaveBest = false;
  std::vector<uint64_t> BestForm, CandForm;
  std::vector<int> BestOrder, CandOrder;
  std::vector<std::pair<uint64_t, uint64_t>> EdgeKeys;
  /// Recorded automorphisms as (node, image) pairs of the nodes each one
  /// moves; automorphism I ends at Moves[AutoEnd[I]].
  std::vector<std::pair<int, int>> Moves;
  std::vector<size_t> AutoEnd;
};

} // namespace

CanonicalLabeling modsched::canonicalLabeling(
    int NumNodes, const std::vector<uint64_t> &NodeColors,
    const std::vector<CanonicalEdge> &Edges, int64_t StepBudget) {
  assert(static_cast<int>(NodeColors.size()) == NumNodes &&
         "one color per node required");
  for (const CanonicalEdge &E : Edges) {
    assert(E.Src >= 0 && E.Src < NumNodes && E.Dst >= 0 &&
           E.Dst < NumNodes && "canonical edge endpoint out of range");
    (void)E;
  }
  return CanonicalSearch(NumNodes, NodeColors, Edges, StepBudget).run();
}
