//===--- Inference.cpp - Lock inference for atomic sections -------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/Inference.h"

#include "locks/Interner.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace lockin;
using namespace lockin::ir;

LockCensus lockin::censusOf(const LockSet &Locks) {
  LockCensus Census;
  for (const LockName &L : Locks) {
    bool RW = L.effect() == Effect::RW || L.isTop();
    if (L.isFine()) {
      if (RW)
        ++Census.FineRW;
      else
        ++Census.FineRO;
    } else {
      if (RW)
        ++Census.CoarseRW;
      else
        ++Census.CoarseRO;
    }
  }
  return Census;
}

LockCensus InferenceResult::census() const {
  LockCensus Census;
  for (const Section &S : Sections)
    Census += censusOf(S.Locks);
  return Census;
}

LockInference::LockInference(const IrModule &Module,
                             const PointsToAnalysis &PT,
                             InferenceOptions Options)
    : Module(Module),
      Interner(std::make_shared<LockInterner>()),
      Ctx{Module, PT, Options.K, *Interner}, Options(Options),
      OwnedCG(std::make_unique<analysis::CallGraph>(Module)), CG(*OwnedCG),
      Summaries(Module, CG, Ctx, *this, Options.MaxSummaryRounds) {}

LockInference::LockInference(const IrModule &Module,
                             const PointsToAnalysis &PT,
                             const analysis::CallGraph &ExtCG,
                             InferenceOptions Options)
    : Module(Module),
      Interner(std::make_shared<LockInterner>()),
      Ctx{Module, PT, Options.K, *Interner}, Options(Options), CG(ExtCG),
      Summaries(Module, CG, Ctx, *this, Options.MaxSummaryRounds) {}

namespace {

/// True if every cell read while evaluating \p Path (deref positions and
/// index variables) lies in a known region outside \p Writes. Returns on
/// the first written or unknown region: callers then treat the path as
/// potentially affected.
bool pathCellsUnwritten(const LockExpr &Path, const PointsToAnalysis &PT,
                        const std::set<RegionId> &Writes) {
  auto Unwritten = [&](RegionId R) {
    return R != InvalidRegion && !Writes.count(R);
  };
  RegionId Cur = PT.regionOfVarCell(Path.base());
  for (const LockOp &Op : Path.ops()) {
    switch (Op.K) {
    case LockOp::Kind::Deref:
      if (!Unwritten(Cur))
        return false;
      Cur = PT.derefRegion(Cur);
      break;
    case LockOp::Kind::Field:
      break;
    case LockOp::Kind::Index: {
      std::vector<const IdxExpr *> Work = {Op.Idx};
      while (!Work.empty()) {
        const IdxExpr *E = Work.back();
        Work.pop_back();
        switch (E->kind()) {
        case IdxExpr::Kind::Const:
          break;
        case IdxExpr::Kind::VarVal:
          if (!Unwritten(PT.regionOfVarCell(E->var())))
            return false;
          break;
        case IdxExpr::Kind::Bin:
          Work.push_back(E->lhs());
          Work.push_back(E->rhs());
          break;
        }
      }
      break;
    }
    }
  }
  return true;
}

/// True if \p Path mentions \p V as its base or inside an index component.
bool pathMentionsVar(const LockExpr &Path, const Variable *V) {
  if (Path.base() == V)
    return true;
  for (const LockOp &Op : Path.ops())
    if (Op.K == LockOp::Kind::Index && Op.Idx->mentionsVar(V))
      return true;
  return false;
}

} // namespace

LockSet LockInference::transferCall(const CallStmt *St,
                                    const LockSet &After) {
  const IrFunction *F = St->callee();
  LockSet Result;
  for (const Variable *Arg : St->args())
    genVarRead(Arg, Ctx, Result);
  if (St->def() && Ctx.isLockableVar(St->def()))
    Result.insert(LockName::fine(LockExpr(St->def()),
                                 Ctx.PT.regionOfVarCell(St->def()),
                                 Effect::RW, Ctx.Interner));

  // The locks for the callee's own (transitive) accesses, expressed at
  // the call site: copy because the store may grow under recursive
  // demands while we unmap.
  {
    LockSet CalleeOwn = Summaries.ownLocks(F);
    for (const LockName &E : CalleeOwn)
      Summaries.unmapLock(E, St, Result);
  }

  const std::set<RegionId> &Writes = Summaries.writeRegions(F);
  auto Unaffected = [&](const LockName &L) {
    return !pathMentionsVar(L.path(), St->def()) &&
           pathCellsUnwritten(L.path(), Ctx.PT, Writes);
  };

  for (const LockName &L : After) {
    if (!L.isFine()) {
      Result.insert(L);
      continue;
    }
    if (Unaffected(L)) {
      Result.insert(L);
      continue;
    }
    // Map the lock into the callee's frame via def = ret_f.
    LockSet Mapped;
    if (St->def() && F->retVar()) {
      CopyStmt RetCopy(St->def(), F->retVar(), St->loc());
      transferLock(L, &RetCopy, Ctx, Mapped);
    } else {
      Mapped.insert(L);
    }
    for (const LockName &M : Mapped) {
      if (!M.isFine()) {
        Result.insert(M);
        continue;
      }
      // A mapped lock that is unaffected by the body and not rooted in the
      // callee skips the summary entirely.
      if (!lockPathRootedIn(M.path(), F) && Unaffected(M)) {
        Result.insert(M);
        continue;
      }
      const LockSet &EntryLocks = Summaries.summary(F, M);
      for (const LockName &E : EntryLocks)
        Summaries.unmapLock(E, St, Result);
    }
  }
  return Result;
}

LockSet LockInference::transferInst(const InstStmt *St,
                                    const LockSet &After) {
  LockSet Out;
  genLocks(St, Ctx, Out);
  transferSet(St, After, Ctx, Out);
  return Out;
}

LockSet LockInference::analyze(const IrFunction *CurFn, const IrStmt *S,
                               const LockSet &After,
                               const LockSet &ExitSet) {
  switch (S->kind()) {
  case IrStmt::Kind::Call:
    return transferCall(cast<CallStmt>(S), After);
  case IrStmt::Kind::Copy:
  case IrStmt::Kind::ConstInt:
  case IrStmt::Kind::ConstNull:
  case IrStmt::Kind::AddrOf:
  case IrStmt::Kind::FieldAddr:
  case IrStmt::Kind::IndexAddr:
  case IrStmt::Kind::Load:
  case IrStmt::Kind::Store:
  case IrStmt::Kind::Alloc:
  case IrStmt::Kind::IntBin:
  case IrStmt::Kind::Cmp:
    return transferInst(cast<InstStmt>(S), After);
  case IrStmt::Kind::Seq: {
    const auto &Stmts = cast<SeqStmt>(S)->stmts();
    LockSet Cur = After;
    for (size_t I = Stmts.size(); I-- > 0;)
      Cur = analyze(CurFn, Stmts[I].get(), Cur, ExitSet);
    return Cur;
  }
  case IrStmt::Kind::If: {
    const auto *I = cast<IfIrStmt>(S);
    LockSet Merged = analyze(CurFn, I->thenStmt(), After, ExitSet);
    if (I->elseStmt())
      Merged.merge(analyze(CurFn, I->elseStmt(), After, ExitSet));
    else
      Merged.merge(After);
    genVarRead(I->condVar(), Ctx, Merged);
    return Merged;
  }
  case IrStmt::Kind::While: {
    const auto *W = cast<WhileIrStmt>(S);
    // Exit edge: locks needed after the loop plus the condition read.
    LockSet Base = After;
    genVarRead(W->condVar(), Ctx, Base);
    // Backward fixpoint: X approximates the locks at the loop head.
    LockSet X = analyze(CurFn, W->prelude(), Base, ExitSet);
    for (unsigned Iter = 0;; ++Iter) {
      if (Iter >= Options.MaxLoopIterations) {
        // Sound fallback; with a bounded k this should be unreachable.
        X.insert(LockName::top());
        break;
      }
      LockSet AfterPrelude = Base;
      AfterPrelude.merge(analyze(CurFn, W->body(), X, ExitSet));
      LockSet NewX = analyze(CurFn, W->prelude(), AfterPrelude, ExitSet);
      if (!X.merge(NewX))
        break;
    }
    return X;
  }
  case IrStmt::Kind::Atomic:
    // Nested sections acquire nothing at runtime (§5.3); the outer
    // section's locks must cover the body, so locks flow through.
    return analyze(CurFn, cast<AtomicIrStmt>(S)->body(), After, ExitSet);
  case IrStmt::Kind::Return: {
    const auto *R = cast<ReturnIrStmt>(S);
    // Control leaves the function: the incoming After is unreachable;
    // the exit set flows through ret_f = value.
    LockSet Out;
    if (R->value() && CurFn && CurFn->retVar()) {
      CopyStmt RetCopy(CurFn->retVar(), R->value(), R->loc());
      transferSet(&RetCopy, ExitSet, Ctx, Out);
    } else {
      Out = ExitSet;
    }
    if (R->value())
      genVarRead(R->value(), Ctx, Out);
    return Out;
  }
  case IrStmt::Kind::Spawn: {
    LockSet Out = After;
    for (const Variable *Arg : cast<SpawnIrStmt>(S)->args())
      genVarRead(Arg, Ctx, Out);
    return Out;
  }
  case IrStmt::Kind::Assert: {
    LockSet Out = After;
    genVarRead(cast<AssertIrStmt>(S)->condVar(), Ctx, Out);
    return Out;
  }
  }
  assert(false && "unhandled statement kind");
  return After;
}

LockSet LockInference::evaluateEntry(const IrFunction *F,
                                     const LockSet &Exit) {
  return analyze(F, F->body(), Exit, Exit);
}

void LockInference::analyzeSection(InferenceResult &Result,
                                   const AtomicIrStmt *A,
                                   const IrFunction *F) {
  LockSet Empty;
  InferenceResult::Section &Section = Result.Sections[A->sectionId()];
  Section.SectionId = A->sectionId();
  Section.Function = F;
  Section.Locks = analyze(F, A->body(), Empty, Empty);
}

void LockInference::runSerial(const std::vector<char> &WantScc,
                              InferenceResult &Result) {
  // Iterating SCC ids in order IS the bottom-up schedule: every callee
  // SCC is fully summarized (final) before its callers are evaluated, so
  // non-recursive functions are summarized exactly once.
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc)
    if (WantScc[Scc])
      Summaries.prewarmScc(Scc);
  for (const SectionTask &T : SectionTasks)
    if (T.Stmt)
      analyzeSection(Result, T.Stmt, T.Function);
}

void LockInference::runParallel(unsigned Jobs,
                                const std::vector<char> &WantScc,
                                InferenceResult &Result) {
  // Phase 1 schedules the prewarm over the condensation DAG by dependency
  // counting: an SCC becomes ready when its last callee SCC finishes, so
  // SCCs at the same condensation depth (pairwise unreachable) run
  // concurrently. Phase 2 fans the independent sections out over the same
  // workers. Determinism: every summary a section can read is final (the
  // phase-1 barrier), final entries are immutable, and final values are
  // least fixpoints of monotone equations — unique regardless of
  // interleaving — so the inferred lock sets match the serial run.
  unsigned NumSccs = CG.numSccs();
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<unsigned> Ready;
  std::vector<unsigned> DepsLeft(NumSccs);
  unsigned RemainingSccs = NumSccs;
  for (unsigned Scc = 0; Scc < NumSccs; ++Scc) {
    DepsLeft[Scc] = static_cast<unsigned>(CG.sccCallees(Scc).size());
    if (DepsLeft[Scc] == 0)
      Ready.push_back(Scc);
  }
  std::atomic<size_t> NextSection{0};

  auto Worker = [&]() {
    while (true) {
      unsigned Scc;
      {
        std::unique_lock<std::mutex> Lock(QueueMutex);
        QueueCV.wait(Lock,
                     [&] { return !Ready.empty() || RemainingSccs == 0; });
        if (Ready.empty())
          break; // RemainingSccs == 0: every prewarm has completed
        Scc = Ready.front();
        Ready.pop_front();
      }
      if (WantScc[Scc])
        Summaries.prewarmScc(Scc);
      {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        --RemainingSccs;
        for (unsigned Caller : CG.sccCallers(Scc))
          if (--DepsLeft[Caller] == 0)
            Ready.push_back(Caller);
        QueueCV.notify_all();
      }
    }
    // Sections write disjoint Result slots, claimed via the atomic
    // ticket.
    size_t I;
    while ((I = NextSection.fetch_add(1)) < SectionTasks.size()) {
      const SectionTask &T = SectionTasks[I];
      if (T.Stmt)
        analyzeSection(Result, T.Stmt, T.Function);
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Jobs);
  for (unsigned J = 0; J < Jobs; ++J)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
}

InferenceResult LockInference::run() {
  InferenceResult Result;
  Result.Sections.resize(Module.numAtomicSections());
  SectionTasks.assign(Module.numAtomicSections(), SectionTask{});

  // Restrict to the requested sections (incremental re-analysis); empty
  // means all.
  std::vector<char> Selected;
  if (!Options.OnlySections.empty()) {
    Selected.assign(Module.numAtomicSections(), 0);
    for (uint32_t Id : Options.OnlySections)
      if (Id < Selected.size())
        Selected[Id] = 1;
  }

  // Only SCCs reachable from some selected atomic section need summaries.
  std::vector<const IrFunction *> Roots;
  for (const auto &F : Module.functions()) {
    for (const AtomicIrStmt *A : F->atomicSections()) {
      if (!Selected.empty() && !Selected[A->sectionId()])
        continue;
      SectionTasks[A->sectionId()] = SectionTask{A, F.get()};
      std::vector<const IrFunction *> Direct =
          analysis::CallGraph::directCallees(A->body());
      Roots.insert(Roots.end(), Direct.begin(), Direct.end());
    }
  }
  std::vector<bool> Reach = CG.reachableClosure(Roots);
  std::vector<char> WantScc(CG.numSccs(), 0);
  unsigned ReachableFns = 0;
  for (unsigned I = 0; I < CG.numFunctions(); ++I) {
    if (Reach[I]) {
      ++ReachableFns;
      WantScc[CG.sccOf(I)] = 1;
    }
  }

  Stats = InferenceStats{};
  Stats.Functions = CG.numFunctions();
  Stats.ReachableFunctions = ReachableFns;
  Stats.Sccs = CG.numSccs();
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc)
    if (CG.isRecursive(Scc))
      ++Stats.RecursiveSccs;
  Stats.CondensationDepth = CG.maxDepth();
  Stats.Sections = Module.numAtomicSections();

  unsigned Jobs = Options.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  Stats.JobsUsed = Jobs;

  if (Jobs <= 1)
    runSerial(WantScc, Result);
  else
    runParallel(Jobs, WantScc, Result);

  if (Options.ElideNeverParallel && Options.OnlySections.empty())
    elideNeverParallel(Result);

  Stats.Summaries = Summaries.stats();
  LockInterner::Stats IS = Interner->stats();
  Stats.InternerNodes = IS.nodes();
  Stats.InternerHits = IS.hits();
  Stats.ArenaBytes = IS.ArenaBytes;
  Result.Interner = Interner;
  return Result;
}
