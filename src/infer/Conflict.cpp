//===--- Conflict.cpp - Abstract-location conflict tests -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/Conflict.h"

using namespace lockin;
using namespace lockin::ir;

bool lockin::locksMayConflict(const LockName &A, const LockName &B) {
  if (A.effect() != Effect::RW && B.effect() != Effect::RW)
    return false; // two reads never conflict
  if (A.kind() == LockName::Kind::Top || B.kind() == LockName::Kind::Top)
    return true;
  return A.region() != InvalidRegion && A.region() == B.region();
}

bool lockin::lockSetsMayConflict(const LockSet &A, const LockSet &B) {
  for (const LockName &La : A.locks())
    for (const LockName &Lb : B.locks())
      if (locksMayConflict(La, Lb))
        return true;
  return false;
}

namespace {

/// Collects call/spawn targets lexically outside atomic bodies (the edges
/// a thread can traverse while holding no section locks), and spawn
/// callees anywhere (a spawned thread starts outside every section even
/// when the spawn site itself sits in one).
void collectBareEdges(const IrStmt *S,
                      std::vector<const IrFunction *> &BareCallees,
                      std::vector<const IrFunction *> &SpawnCallees) {
  walkStmts(S, [&](const IrStmt *St, WalkContext Ctx) {
    if (const auto *C = dyn_cast<CallStmt>(St)) {
      if (!Ctx.InAtomic)
        BareCallees.push_back(C->callee());
    } else if (const auto *Sp = dyn_cast<SpawnIrStmt>(St)) {
      SpawnCallees.push_back(Sp->callee());
    }
    return true;
  });
}

/// The accesses of \p S's statements outside atomic bodies, one entry per
/// statement that touches a lockable location.
void collectBareStmts(const IrStmt *S, const IrFunction *F,
                      const TransferContext &Ctx,
                      std::vector<BareAccess> &Out) {
  walkStmts(S, [&](const IrStmt *St, WalkContext) {
    LockSet Accesses;
    switch (St->kind()) {
    case IrStmt::Kind::Seq:
      return true;
    case IrStmt::Kind::If:
      genVarRead(cast<IfIrStmt>(St)->condVar(), Ctx, Accesses);
      break;
    case IrStmt::Kind::While:
      genVarRead(cast<WhileIrStmt>(St)->condVar(), Ctx, Accesses);
      break;
    case IrStmt::Kind::Atomic:
      return false; // the section's own accesses are modeled by its lock set
    case IrStmt::Kind::Return:
      if (const ir::Variable *V = cast<ReturnIrStmt>(St)->value())
        genVarRead(V, Ctx, Accesses);
      break;
    case IrStmt::Kind::Assert:
      genVarRead(cast<AssertIrStmt>(St)->condVar(), Ctx, Accesses);
      break;
    case IrStmt::Kind::Spawn:
      for (const ir::Variable *A : cast<SpawnIrStmt>(St)->args())
        genVarRead(A, Ctx, Accesses);
      break;
    default: {
      const auto *Inst = cast<InstStmt>(St);
      genLocks(Inst, Ctx, Accesses);
      if (const auto *Call = dyn_cast<CallStmt>(Inst))
        for (const ir::Variable *A : Call->args())
          genVarRead(A, Ctx, Accesses);
      break;
    }
    }
    if (!Accesses.empty())
      Out.push_back({St, F, std::move(Accesses)});
    return true;
  });
}

} // namespace

std::vector<BareAccess>
lockin::collectBareAccesses(const IrModule &M, const analysis::CallGraph &CG,
                            const TransferContext &Ctx) {
  unsigned N = CG.numFunctions();
  std::vector<std::vector<const IrFunction *>> BareCallees(N);
  std::vector<const IrFunction *> Roots;
  if (const IrFunction *Main = M.findFunction("main"))
    Roots.push_back(Main);
  std::vector<bool> Live =
      Roots.empty() ? std::vector<bool>(N, false) : CG.reachableClosure(Roots);
  for (unsigned I = 0; I < N; ++I) {
    std::vector<const IrFunction *> Spawned;
    collectBareEdges(CG.function(I)->body(), BareCallees[I], Spawned);
    // Spawn callees of any live function root new bare contexts: Live is
    // the full call+spawn closure from main, so this covers spawners only
    // reachable through sections or through other spawned threads.
    if (Live[I])
      for (const IrFunction *SF : Spawned)
        Roots.push_back(SF);
  }
  std::vector<char> Bare(N, 0);
  std::vector<unsigned> Work;
  for (const IrFunction *R : Roots) {
    unsigned I = CG.indexOf(R);
    if (!Bare[I]) {
      Bare[I] = 1;
      Work.push_back(I);
    }
  }
  while (!Work.empty()) {
    unsigned I = Work.back();
    Work.pop_back();
    for (const IrFunction *Callee : BareCallees[I]) {
      unsigned CI = CG.indexOf(Callee);
      if (!Bare[CI]) {
        Bare[CI] = 1;
        Work.push_back(CI);
      }
    }
  }

  std::vector<BareAccess> Out;
  for (unsigned I = 0; I < N; ++I)
    if (Bare[I])
      collectBareStmts(CG.function(I)->body(), CG.function(I), Ctx, Out);
  return Out;
}
