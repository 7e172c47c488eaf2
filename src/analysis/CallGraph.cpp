//===--- CallGraph.cpp - Whole-program call graph + SCC schedule ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include <algorithm>
#include <cassert>

using namespace lockin;
using namespace lockin::analysis;
using namespace lockin::ir;

std::vector<const IrFunction *> CallGraph::directCallees(const IrStmt *S) {
  std::vector<const IrFunction *> Out;
  walkStmts(S, [&](const IrStmt *St, WalkContext) {
    if (const auto *C = dyn_cast<CallStmt>(St))
      Out.push_back(C->callee());
    else if (const auto *Sp = dyn_cast<SpawnIrStmt>(St))
      Out.push_back(Sp->callee());
    return true;
  });
  return Out;
}

CallGraph::CallGraph(const IrModule &M) {
  Funcs.reserve(M.functions().size());
  for (const auto &F : M.functions()) {
    FuncIndex[F.get()] = static_cast<unsigned>(Funcs.size());
    Funcs.push_back(F.get());
  }

  unsigned N = numFunctions();
  Callees.resize(N);
  Callers.resize(N);
  std::vector<char> Seen(N, 0);
  for (unsigned I = 0; I < N; ++I) {
    // Deduplicate, keeping first-occurrence order.
    for (const IrFunction *Callee : directCallees(Funcs[I]->body())) {
      unsigned CI = FuncIndex.at(Callee);
      if (!Seen[CI]) {
        Seen[CI] = 1;
        Callees[I].push_back(CI);
      }
    }
    for (unsigned CI : Callees[I])
      Seen[CI] = 0;
  }
  for (unsigned I = 0; I < N; ++I)
    for (unsigned CI : Callees[I])
      Callers[CI].push_back(I);

  runTarjan();

  // Condensation edges, deduplicated. Callee SCC ids are always lower.
  unsigned S = numSccs();
  SccCalleeSccs.resize(S);
  SccCallerSccs.resize(S);
  SccRecursive.assign(S, false);
  std::vector<char> SccSeen(S, 0);
  for (unsigned Scc = 0; Scc < S; ++Scc) {
    if (SccMembers[Scc].size() > 1)
      SccRecursive[Scc] = true;
    for (unsigned FnIdx : SccMembers[Scc]) {
      for (unsigned CI : Callees[FnIdx]) {
        unsigned CScc = SccId[CI];
        if (CScc == Scc) {
          SccRecursive[Scc] = true; // intra-SCC edge (incl. self loops)
          continue;
        }
        assert(CScc < Scc && "SCC ids must be reverse-topological");
        if (!SccSeen[CScc]) {
          SccSeen[CScc] = 1;
          SccCalleeSccs[Scc].push_back(CScc);
        }
      }
    }
    for (unsigned CScc : SccCalleeSccs[Scc])
      SccSeen[CScc] = 0;
  }
  for (unsigned Scc = 0; Scc < S; ++Scc)
    for (unsigned CScc : SccCalleeSccs[Scc])
      SccCallerSccs[CScc].push_back(Scc);

  // Depths in id order: callees (lower ids) are already done.
  SccDepths.assign(S, 0);
  for (unsigned Scc = 0; Scc < S; ++Scc) {
    unsigned D = 0;
    for (unsigned CScc : SccCalleeSccs[Scc])
      D = std::max(D, SccDepths[CScc] + 1);
    SccDepths[Scc] = D;
    MaxDepth = std::max(MaxDepth, D);
  }
}

void CallGraph::runTarjan() {
  // Iterative Tarjan: the synthetic Table-1 programs have call chains
  // thousands of functions deep, so the DFS must not use the C++ stack.
  unsigned N = numFunctions();
  constexpr unsigned None = ~0u;
  std::vector<unsigned> Index(N, None), Low(N, 0);
  std::vector<char> OnStack(N, 0);
  std::vector<unsigned> Stack;
  SccId.assign(N, None);

  struct Frame {
    unsigned Fn;
    unsigned NextEdge;
  };
  std::vector<Frame> Dfs;
  unsigned NextIndex = 0;
  std::vector<std::vector<unsigned>> RevOrderSccs;

  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != None)
      continue;
    Dfs.push_back({Root, 0});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = 1;

    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      if (F.NextEdge < Callees[F.Fn].size()) {
        unsigned Child = Callees[F.Fn][F.NextEdge++];
        if (Index[Child] == None) {
          Index[Child] = Low[Child] = NextIndex++;
          Stack.push_back(Child);
          OnStack[Child] = 1;
          Dfs.push_back({Child, 0});
        } else if (OnStack[Child]) {
          Low[F.Fn] = std::min(Low[F.Fn], Index[Child]);
        }
        continue;
      }
      // F.Fn is finished: pop an SCC if it is a root.
      if (Low[F.Fn] == Index[F.Fn]) {
        std::vector<unsigned> Members;
        while (true) {
          unsigned V = Stack.back();
          Stack.pop_back();
          OnStack[V] = 0;
          Members.push_back(V);
          if (V == F.Fn)
            break;
        }
        RevOrderSccs.push_back(std::move(Members));
      }
      unsigned Done = F.Fn;
      Dfs.pop_back();
      if (!Dfs.empty())
        Low[Dfs.back().Fn] = std::min(Low[Dfs.back().Fn], Low[Done]);
    }
  }

  // Tarjan pops SCCs callees-first already, which is exactly the
  // reverse-topological numbering we promise.
  SccMembers = std::move(RevOrderSccs);
  for (unsigned Scc = 0; Scc < SccMembers.size(); ++Scc) {
    std::sort(SccMembers[Scc].begin(), SccMembers[Scc].end());
    for (unsigned FnIdx : SccMembers[Scc])
      SccId[FnIdx] = Scc;
  }
}

bool CallGraph::mayCall(const IrFunction *F, const IrFunction *G) const {
  unsigned FromScc = SccId[indexOf(F)];
  unsigned ToScc = SccId[indexOf(G)];
  // Same SCC: distinct members mutually reach each other by definition
  // (and such SCCs are recursive); F reaches itself iff the SCC cycles.
  if (FromScc == ToScc)
    return SccRecursive[FromScc];
  if (ToScc > FromScc)
    return false; // callees always have lower SCC ids

  if (ReachMemo.empty())
    ReachMemo.resize(numSccs());
  std::vector<bool> &Reach = ReachMemo[FromScc];
  if (Reach.empty()) {
    Reach.assign(numSccs(), false);
    std::vector<unsigned> Work = {FromScc};
    while (!Work.empty()) {
      unsigned Scc = Work.back();
      Work.pop_back();
      for (unsigned CScc : SccCalleeSccs[Scc]) {
        if (!Reach[CScc]) {
          Reach[CScc] = true;
          Work.push_back(CScc);
        }
      }
    }
  }
  return Reach[ToScc];
}

std::vector<char> CallGraph::upwardClosure(
    const std::vector<unsigned> &SeedSccs) const {
  std::vector<char> Dirty(numSccs(), 0);
  std::vector<unsigned> Work;
  for (unsigned Scc : SeedSccs) {
    if (Scc < numSccs() && !Dirty[Scc]) {
      Dirty[Scc] = 1;
      Work.push_back(Scc);
    }
  }
  while (!Work.empty()) {
    unsigned Scc = Work.back();
    Work.pop_back();
    for (unsigned Caller : SccCallerSccs[Scc]) {
      if (!Dirty[Caller]) {
        Dirty[Caller] = 1;
        Work.push_back(Caller);
      }
    }
  }
  return Dirty;
}

std::vector<bool> CallGraph::reachableClosure(
    const std::vector<const IrFunction *> &Roots) const {
  std::vector<bool> Reach(numFunctions(), false);
  std::vector<unsigned> Work;
  for (const IrFunction *F : Roots) {
    unsigned I = indexOf(F);
    if (!Reach[I]) {
      Reach[I] = true;
      Work.push_back(I);
    }
  }
  while (!Work.empty()) {
    unsigned I = Work.back();
    Work.pop_back();
    for (unsigned CI : Callees[I]) {
      if (!Reach[CI]) {
        Reach[CI] = true;
        Work.push_back(CI);
      }
    }
  }
  return Reach;
}
