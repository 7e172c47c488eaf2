//===--- Summaries.cpp - Function summaries and the SCC fixpoint ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/Summaries.h"

#include <algorithm>
#include <cassert>

using namespace lockin;
using namespace lockin::ir;

//===----------------------------------------------------------------------===//
// Path/expressibility helpers
//===----------------------------------------------------------------------===//

bool lockin::lockPathRootedIn(const LockExpr &Path, const IrFunction *F) {
  if (Path.base()->owner() == F)
    return true;
  for (const LockOp &Op : Path.ops()) {
    if (Op.K != LockOp::Kind::Index)
      continue;
    std::vector<const IdxExpr *> Work = {Op.Idx};
    while (!Work.empty()) {
      const IdxExpr *E = Work.back();
      Work.pop_back();
      if (E->kind() == IdxExpr::Kind::VarVal && E->var()->owner() == F)
        return true;
      if (E->kind() == IdxExpr::Kind::Bin) {
        Work.push_back(E->lhs());
        Work.push_back(E->rhs());
      }
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Transitive write regions (eager, bottom-up over the condensation)
//===----------------------------------------------------------------------===//

namespace {

/// Collects the regions directly written by statements of \p S into
/// \p Writes.
void collectDirectWrites(const IrStmt *S, const PointsToAnalysis &PT,
                         std::set<RegionId> &Writes) {
  walkStmts(S, [&](const IrStmt *St, WalkContext) {
    if (const auto *Store = dyn_cast<StoreStmt>(St)) {
      RegionId R = PT.derefRegion(PT.regionOfVarCell(Store->addr()));
      if (R != InvalidRegion)
        Writes.insert(R);
    } else if (const auto *Inst = dyn_cast<InstStmt>(St)) {
      // Definitions of shared variables write their cells.
      const Variable *Def = Inst->def();
      if (Def && (Def->isGlobal() || Def->isAddressTaken())) {
        RegionId R = PT.regionOfVarCell(Def);
        if (R != InvalidRegion)
          Writes.insert(R);
      }
    }
    return true;
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// FunctionSummaries
//===----------------------------------------------------------------------===//

FunctionSummaries::FunctionSummaries(const IrModule &M,
                                     const analysis::CallGraph &CG,
                                     const TransferContext &Ctx,
                                     SummaryBodyEvaluator &Eval,
                                     unsigned MaxSccRounds)
    : Module(M), CG(CG), Ctx(Ctx), Eval(Eval), MaxSccRounds(MaxSccRounds) {
  Sccs.resize(CG.numSccs());
  for (auto &S : Sccs)
    S = std::make_unique<SccState>();

  // Transitive write regions in one bottom-up pass: members of one SCC all
  // reach each other, so they share one set — the union of the members'
  // direct writes and the (already computed) callee-SCC sets.
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc) {
    std::set<RegionId> SccWrites;
    for (unsigned FnIdx : CG.sccMembers(Scc))
      collectDirectWrites(CG.function(FnIdx)->body(), Ctx.PT, SccWrites);
    for (unsigned CScc : CG.sccCallees(Scc)) {
      const std::set<RegionId> &Theirs =
          WriteRegions[CG.function(CG.sccMembers(CScc).front())];
      SccWrites.insert(Theirs.begin(), Theirs.end());
    }
    const auto &Members = CG.sccMembers(Scc);
    for (size_t I = 0; I + 1 < Members.size(); ++I)
      WriteRegions[CG.function(Members[I])] = SccWrites;
    if (!Members.empty())
      WriteRegions[CG.function(Members.back())] = std::move(SccWrites);
  }
}

const std::set<RegionId> &
FunctionSummaries::writeRegions(const IrFunction *F) const {
  return WriteRegions.at(F);
}

void FunctionSummaries::unmapLock(const LockName &L, const CallStmt *Call,
                                  LockSet &Out) const {
  const IrFunction *F = Call->callee();
  LockSet Cur;
  Cur.insert(L);
  // Reverse of the parameter bindings p_i = a_i.
  for (size_t I = Call->args().size(); I-- > 0;) {
    CopyStmt Binding(F->param(static_cast<unsigned>(I)), Call->args()[I],
                     Call->loc());
    LockSet Next;
    for (const LockName &Lock : Cur)
      transferLock(Lock, &Binding, Ctx, Next);
    Cur = std::move(Next);
  }
  for (const LockName &Lock : Cur) {
    if (Lock.isFine() && lockPathRootedIn(Lock.path(), F))
      Out.insert(Ctx.coarsen(Lock));
    else
      Out.insert(Lock);
  }
}

const LockSet &FunctionSummaries::summary(const IrFunction *F,
                                          const LockName &L) {
  return query(Key{F, /*Own=*/false, L});
}

const LockSet &FunctionSummaries::ownLocks(const IrFunction *F) {
  return query(Key{F, /*Own=*/true, LockName::top()});
}

void FunctionSummaries::prewarmScc(unsigned Scc) {
  for (unsigned FnIdx : CG.sccMembers(Scc))
    ownLocks(CG.function(FnIdx));
}

LockSet FunctionSummaries::evaluate(SccState &S, const Key &K) {
  ++S.Evaluations;
  LockSet Exit;
  if (!K.Own)
    Exit.insert(K.L);
  return Eval.evaluateEntry(K.F, Exit);
}

void FunctionSummaries::publish(Entry &E) {
  size_t H = E.Locks.contentHash();
  std::lock_guard<std::mutex> Guard(DedupMu);
  auto &Bucket = DedupTable[H];
  for (const auto &Shared : Bucket)
    if (Shared->sameSequence(E.Locks)) {
      // An identical set was already published: share it and free the
      // local copy. The shared object is element-wise equal, so every
      // reader sees the same value it would have seen.
      E.Published = Shared;
      ++DedupHits;
      break;
    }
  if (!E.Published) {
    E.Published = std::make_shared<const LockSet>(std::move(E.Locks));
    Bucket.push_back(E.Published);
  }
  E.Locks = LockSet();
  E.Final = true;
}

const LockSet &FunctionSummaries::query(Key K) {
  unsigned SccIdx = CG.sccOfFunction(K.F);
  SccState &S = *Sccs[SccIdx];
  std::lock_guard<std::recursive_mutex> Guard(S.M);

  auto [It, Inserted] = S.Entries.try_emplace(std::move(K));
  Entry &E = It->second; // value references are stable across inserts
  const Key &StoredKey = It->first;
  if (E.Final) {
    ++S.FinalHits;
    return *E.Published;
  }
  if (!Inserted) {
    // A recursive demand (the entry is being evaluated higher in this
    // thread's stack) or a mid-fixpoint read: return the current partial
    // value; the SCC-local fixpoint re-evaluates until it is stable.
    return E.Locks;
  }

  bool Recursive = CG.isRecursive(SccIdx);
  ++S.EvalDepth;
  E.InProgress = true;
  LockSet First = evaluate(S, StoredKey);
  E.InProgress = false;
  E.Locks.merge(First);
  S.PeakEntryLocks = std::max<uint64_t>(S.PeakEntryLocks, E.Locks.size());
  --S.EvalDepth;

  if (!Recursive) {
    // Every callee lies in a lower, already-final SCC: the very first
    // evaluation is exact. Non-recursive functions are summarized once.
    publish(E);
    return *E.Published;
  }

  S.Pending.push_back(StoredKey);
  if (S.EvalDepth == 0 && !S.InFixpoint) {
    // Outermost demand on this SCC: run the local worklist fixpoint over
    // every entry demanded so far (the list may grow while we iterate),
    // then publish all of them as final.
    S.InFixpoint = true;
    for (unsigned Round = 0; Round < MaxSccRounds; ++Round) {
      ++S.FixpointRounds;
      bool Changed = false;
      for (size_t I = 0; I < S.Pending.size(); ++I) {
        Key Cur = S.Pending[I]; // copy: Pending may reallocate
        Entry &PE = S.Entries.find(Cur)->second;
        PE.InProgress = true;
        LockSet Next = evaluate(S, Cur);
        PE.InProgress = false;
        Changed |= PE.Locks.merge(Next);
        S.PeakEntryLocks =
            std::max<uint64_t>(S.PeakEntryLocks, PE.Locks.size());
      }
      if (!Changed)
        break;
      // On round overflow we stop like the seed's MaxSummaryRounds cap
      // did; the k-limited domain is finite, so this is unreachable in
      // practice.
    }
    for (const Key &PK : S.Pending)
      publish(S.Entries.find(PK)->second);
    S.Pending.clear();
    S.InFixpoint = false;
  }
  return E.Final ? *E.Published : E.Locks;
}

SummaryStats FunctionSummaries::stats() const {
  SummaryStats Out;
  for (const auto &S : Sccs) {
    std::lock_guard<std::recursive_mutex> Guard(S->M);
    Out.Entries += S->Entries.size();
    Out.Evaluations += S->Evaluations;
    Out.SccFixpointRounds += S->FixpointRounds;
    Out.FinalHits += S->FinalHits;
    Out.PeakEntryLocks = std::max(Out.PeakEntryLocks, S->PeakEntryLocks);
  }
  {
    std::lock_guard<std::mutex> Guard(DedupMu);
    Out.Deduped = DedupHits;
  }
  return Out;
}
