//===--- Mhp.cpp - May-happen-in-parallel analysis -----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "analysis/Mhp.h"

#include <cassert>

using namespace lockin;
using namespace lockin::analysis;
using namespace lockin::ir;

namespace {

unsigned countBits(const std::vector<char> &S) {
  unsigned N = 0;
  for (char C : S)
    N += C ? 1 : 0;
  return N;
}

int firstBit(const std::vector<char> &S) {
  for (size_t I = 0; I < S.size(); ++I)
    if (S[I])
      return static_cast<int>(I);
  return -1;
}

/// True if there are a in A and b in B with a != b.
bool distinctPair(const std::vector<char> &A, const std::vector<char> &B) {
  int FA = firstBit(A);
  if (FA < 0)
    return false;
  for (size_t I = 0; I < B.size(); ++I)
    if (B[I] && static_cast<int>(I) != FA)
      return true;
  // B is empty or exactly {FA}; a distinct pair needs a second bit in A.
  if (firstBit(B) < 0)
    return false;
  for (size_t I = FA + 1; I < A.size(); ++I)
    if (A[I])
      return true;
  return false;
}

bool intersects(const std::vector<char> &A, const std::vector<char> &B) {
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I < N; ++I)
    if (A[I] && B[I])
      return true;
  return false;
}

} // namespace

bool MhpAnalysis::unionInto(std::vector<char> &Dst,
                            const std::vector<char> &Src) {
  bool Changed = false;
  if (Dst.size() < Src.size())
    Dst.resize(Src.size(), 0);
  for (size_t I = 0; I < Src.size(); ++I)
    if (Src[I] && !Dst[I]) {
      Dst[I] = 1;
      Changed = true;
    }
  return Changed;
}

MhpAnalysis::MhpAnalysis(const IrModule &M, const CallGraph &CG)
    : Module(M), CG(CG) {
  unsigned N = CG.numFunctions();
  CallOnly.resize(N);
  for (unsigned I = 0; I < N; ++I)
    enumerateSites(I);

  unsigned S = numSpawnSites();
  EmptySites.assign(S, 0);
  for (unsigned I = 0; I < N; ++I) {
    // Deduplicate call-only edges, keeping first-occurrence order.
    std::vector<unsigned> Dedup;
    std::vector<char> Seen(N, 0);
    for (unsigned CI : CallOnly[I])
      if (!Seen[CI]) {
        Seen[CI] = 1;
        Dedup.push_back(CI);
      }
    CallOnly[I] = std::move(Dedup);
  }

  const IrFunction *Main = M.findFunction("main");
  if (Main)
    Live = CG.reachableClosure({Main});
  else
    Live.assign(N, false);

  buildThreadClosures();
  buildSpawnsIn();
  buildBeforeSets();
  buildMultiplicity();
}

void MhpAnalysis::enumerateSites(unsigned OwnerIdx) {
  const IrFunction *Owner = CG.function(OwnerIdx);
  walkStmts(Owner->body(), [&](const IrStmt *S, WalkContext Ctx) {
    Stmts[S].Owner = Owner;
    if (const auto *Sp = dyn_cast<SpawnIrStmt>(S)) {
      unsigned Id = static_cast<unsigned>(Sites.size());
      Sites.push_back({Sp, Owner, Id, Ctx.InLoop});
      SiteOf[S] = Id;
      Invokes.push_back({OwnerIdx, CG.indexOf(Sp->callee()), Ctx.InLoop});
    } else if (const auto *C = dyn_cast<CallStmt>(S)) {
      unsigned Callee = CG.indexOf(C->callee());
      CallOnly[OwnerIdx].push_back(Callee);
      Invokes.push_back({OwnerIdx, Callee, Ctx.InLoop});
    }
    return true;
  });
}

void MhpAnalysis::buildThreadClosures() {
  unsigned N = CG.numFunctions();
  unsigned S = numSpawnSites();

  auto callClosure = [&](unsigned Root) {
    std::vector<char> Reach(N, 0);
    std::vector<unsigned> Work = {Root};
    Reach[Root] = 1;
    while (!Work.empty()) {
      unsigned I = Work.back();
      Work.pop_back();
      for (unsigned CI : CallOnly[I])
        if (!Reach[CI]) {
          Reach[CI] = 1;
          Work.push_back(CI);
        }
    }
    return Reach;
  };

  MainClosure.assign(N, 0);
  if (const IrFunction *Main = Module.findFunction("main"))
    MainClosure = callClosure(CG.indexOf(Main));

  ThreadClosure.assign(S, {});
  for (unsigned I = 0; I < S; ++I) {
    // A site may fire only if its owner may execute at all; dead sites
    // spawn no abstract thread.
    if (!Live[CG.indexOf(Sites[I].Owner)]) {
      ThreadClosure[I].assign(N, 0);
      continue;
    }
    ThreadClosure[I] = callClosure(CG.indexOf(Sites[I].Stmt->callee()));
  }

  ThreadsOf.assign(N, std::vector<char>(S, 0));
  for (unsigned T = 0; T < S; ++T)
    for (unsigned F = 0; F < N; ++F)
      if (ThreadClosure[T][F])
        ThreadsOf[F][T] = 1;
}

void MhpAnalysis::buildSpawnsIn() {
  unsigned N = CG.numFunctions();
  unsigned S = numSpawnSites();
  SpawnsIn.assign(N, std::vector<char>(S, 0));
  for (const SpawnSite &Site : Sites)
    SpawnsIn[CG.indexOf(Site.Owner)][Site.Id] = 1;

  // Bottom-up over the condensation: iterating SCC ids ascending is the
  // reverse-topological schedule, and an inner fixpoint handles cycles
  // within a recursive SCC.
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned F : CG.sccMembers(Scc))
        for (unsigned Callee : CallOnly[F])
          Changed |= unionInto(SpawnsIn[F], SpawnsIn[Callee]);
    }
  }

  // Transitive spawn descendants of each site's thread: the site itself,
  // plus every site a (transitively) spawned thread may fire.
  SpawnDesc.assign(S, std::vector<char>(S, 0));
  for (unsigned I = 0; I < S; ++I)
    SpawnDesc[I][I] = 1;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 0; I < S; ++I)
      for (unsigned J = 0; J < S; ++J)
        if (SpawnDesc[I][J])
          Changed |=
              unionInto(SpawnDesc[I],
                        SpawnsIn[CG.indexOf(Sites[J].Stmt->callee())]);
  }
}

void MhpAnalysis::buildBeforeSets() {
  unsigned N = CG.numFunctions();
  unsigned S = numSpawnSites();
  EntryBefore.assign(N, std::vector<char>(S, 0));
  FuncBefore.assign(N, std::vector<char>(S, 0));

  const IrFunction *Main = Module.findFunction("main");
  if (!Main || S == 0)
    return;

  // Forward interprocedural fixpoint over the main thread's call-only
  // closure. All sets grow monotonically and the walk is a deterministic
  // function of EntryBefore, so the first pass in which no entry set
  // widens records the saturated before-sets everywhere.
  bool Changed = true;
  while (Changed) {
    WidenedEntry = false;
    for (unsigned F = 0; F < N; ++F) {
      if (!MainClosure[F] || !CG.function(F)->body())
        continue;
      std::vector<char> B = EntryBefore[F];
      walkBefore(CG.function(F)->body(), F, B);
    }
    Changed = WidenedEntry;
  }
}

void MhpAnalysis::walkBefore(const IrStmt *S, unsigned OwnerIdx,
                             std::vector<char> &B) {
  StmtInfo &Info = Stmts[S];
  unionInto(Info.Before, B);
  unionInto(FuncBefore[OwnerIdx], B);

  switch (S->kind()) {
  case IrStmt::Kind::Call: {
    unsigned Callee = CG.indexOf(cast<CallStmt>(S)->callee());
    WidenedEntry |= unionInto(EntryBefore[Callee], B);
    unionInto(B, SpawnsIn[Callee]);
    return;
  }
  case IrStmt::Kind::Spawn:
    B[SiteOf.at(S)] = 1;
    return;
  case IrStmt::Kind::Seq:
    for (const IrStmtPtr &Child : cast<SeqStmt>(S)->stmts())
      walkBefore(Child.get(), OwnerIdx, B);
    return;
  case IrStmt::Kind::If: {
    const auto *I = cast<IfIrStmt>(S);
    std::vector<char> Then = B;
    walkBefore(I->thenStmt(), OwnerIdx, Then);
    if (I->elseStmt())
      walkBefore(I->elseStmt(), OwnerIdx, B);
    unionInto(B, Then);
    return;
  }
  case IrStmt::Kind::While: {
    const auto *W = cast<WhileIrStmt>(S);
    // Loop to a local fixpoint so statements in early iterations see the
    // spawns of later ones on re-walk.
    while (true) {
      std::vector<char> Snapshot = B;
      walkBefore(W->prelude(), OwnerIdx, B);
      walkBefore(W->body(), OwnerIdx, B);
      if (B == Snapshot)
        break;
    }
    // The loop's own condition read repeats after each iteration, so the
    // While item overlaps threads spawned inside its body.
    unionInto(Stmts[S].Before, B);
    return;
  }
  case IrStmt::Kind::Atomic:
    walkBefore(cast<AtomicIrStmt>(S)->body(), OwnerIdx, B);
    // A section overlaps threads spawned during its own body (directly or
    // via callees), so its before-set includes the body's spawn effects.
    unionInto(Stmts[S].Before, B);
    return;
  default:
    return;
  }
}

void MhpAnalysis::buildMultiplicity() {
  unsigned N = CG.numFunctions();
  unsigned S = numSpawnSites();

  // Static invocation weights: each call or spawn site targeting F adds
  // one, two when the site sits in a loop.
  std::vector<unsigned> Weight(N, 0);
  std::vector<std::vector<unsigned>> Invokers(N); // callee -> owner idxs
  for (const InvokeSite &R : Invokes) {
    Weight[R.Callee] += R.InLoop ? 2 : 1;
    Invokers[R.Callee].push_back(R.Owner);
  }

  // MultiExec(F): F's body may run at least twice within one program
  // execution — enough static invocations, recursion, or propagation
  // from a multiply-executed invoker.
  std::vector<char> MultiExec(N, 0);
  for (unsigned F = 0; F < N; ++F)
    if (Weight[F] >= 2 || CG.isRecursiveFunction(CG.function(F)))
      MultiExec[F] = 1;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned F = 0; F < N; ++F) {
      if (MultiExec[F])
        continue;
      for (unsigned Owner : Invokers[F])
        if (MultiExec[Owner]) {
          MultiExec[F] = 1;
          Changed = true;
          break;
        }
    }
  }

  SiteMulti.assign(S, 0);
  for (const SpawnSite &Site : Sites) {
    unsigned OwnerIdx = CG.indexOf(Site.Owner);
    unsigned ThreadsRunningOwner =
        (MainClosure[OwnerIdx] ? 1u : 0u) + countBits(ThreadsOf[OwnerIdx]);
    if (Site.InLoop || MultiExec[OwnerIdx] || ThreadsRunningOwner >= 2)
      SiteMulti[Site.Id] = 1;
  }
}

const MhpAnalysis::StmtInfo *MhpAnalysis::infoOf(const IrStmt *S) const {
  auto It = Stmts.find(S);
  return It == Stmts.end() ? nullptr : &It->second;
}

bool MhpAnalysis::reachable(const IrFunction *F) const {
  return Live[CG.indexOf(F)];
}

bool MhpAnalysis::inMainThread(const IrFunction *F) const {
  return MainClosure[CG.indexOf(F)] != 0;
}

const std::vector<char> &
MhpAnalysis::spawnedThreadsOf(const IrFunction *F) const {
  return ThreadsOf[CG.indexOf(F)];
}

bool MhpAnalysis::mayHappenInParallel(const IrStmt *A, const IrStmt *B) const {
  const StmtInfo *IA = infoOf(A), *IB = infoOf(B);
  if (!IA || !IB)
    return false;
  unsigned FA = CG.indexOf(IA->Owner), FB = CG.indexOf(IB->Owner);
  const std::vector<char> &TA = ThreadsOf[FA], &TB = ThreadsOf[FB];
  bool MA = MainClosure[FA] != 0, MB = MainClosure[FB] != 0;

  // Two distinct spawned threads: lifetimes extend to the join at program
  // exit, so coexistence is unconditional.
  if (distinctPair(TA, TB))
    return true;
  // The same spawned thread: parallel only via two live instances.
  for (unsigned T = 0; T < numSpawnSites(); ++T)
    if (T < TA.size() && T < TB.size() && TA[T] && TB[T] && SiteMulti[T])
      return true;
  // Main vs a spawned thread: the spawning chain's root must be able to
  // fire before the main-thread statement runs.
  auto mainVsSpawned = [&](const StmtInfo *MainItem,
                           const std::vector<char> &SpawnedThreads) {
    const std::vector<char> &Before =
        MainItem->Before.empty() ? EmptySites : MainItem->Before;
    for (unsigned S0 = 0; S0 < Before.size(); ++S0)
      if (Before[S0] && intersects(SpawnDesc[S0], SpawnedThreads))
        return true;
    return false;
  };
  if (MA && firstBit(TB) >= 0 && mainVsSpawned(IA, TB))
    return true;
  if (MB && firstBit(TA) >= 0 && mainVsSpawned(IB, TA))
    return true;
  // Main vs main: one thread, sequential.
  return false;
}

bool MhpAnalysis::functionsConcurrent(const IrFunction *F,
                                      const IrFunction *G) const {
  unsigned FA = CG.indexOf(F), FB = CG.indexOf(G);
  const std::vector<char> &TA = ThreadsOf[FA], &TB = ThreadsOf[FB];
  if (distinctPair(TA, TB))
    return true;
  for (unsigned T = 0; T < numSpawnSites(); ++T)
    if (TA[T] && TB[T] && SiteMulti[T])
      return true;
  auto mainVsSpawned = [&](unsigned MainFn, const std::vector<char> &TS) {
    const std::vector<char> &Before = FuncBefore[MainFn];
    for (unsigned S0 = 0; S0 < Before.size(); ++S0)
      if (Before[S0] && intersects(SpawnDesc[S0], TS))
        return true;
    return false;
  };
  if (MainClosure[FA] && firstBit(TB) >= 0 && mainVsSpawned(FA, TB))
    return true;
  if (MainClosure[FB] && firstBit(TA) >= 0 && mainVsSpawned(FB, TA))
    return true;
  return false;
}

bool MhpAnalysis::sccsConcurrent(unsigned SccA, unsigned SccB) const {
  for (unsigned FA : CG.sccMembers(SccA))
    for (unsigned FB : CG.sccMembers(SccB))
      if (functionsConcurrent(CG.function(FA), CG.function(FB)))
        return true;
  return false;
}
