//===--- Transfer.cpp - Backward transfer functions ----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/Transfer.h"

#include "locks/Interner.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace lockin;
using namespace lockin::ir;

LockName TransferContext::finalize(LockExpr Path, RegionId Region,
                                   Effect Eff) const {
  if (Path.size() > K) {
    if (Region == InvalidRegion)
      return LockName::top();
    return LockName::coarse(Region, Eff);
  }
  return LockName::fine(Path, Region, Eff, Interner);
}

LockName TransferContext::coarsen(const LockName &L) const {
  if (L.region() == InvalidRegion)
    return LockName::top();
  return LockName::coarse(L.region(), L.effect());
}

namespace {

/// Result of substituting index variables in one IdxExpr.
struct IdxSubst {
  IdxExpr::Ptr Expr;  // null => substitution impossible
  bool Dropped = false; // assigned var became null: path unreachable
};

/// Substitutes occurrences of VarVal(X) in \p E according to the defining
/// statement \p St (which assigns X). Returns a null Expr with
/// Dropped=false when the definition cannot be traced (load, call,
/// address); the caller coarsens.
IdxSubst substIdx(IdxExpr::Ptr E, const Variable *X, const InstStmt *St,
                  LockInterner &IN) {
  if (!E->mentionsVar(X))
    return {E, false};
  switch (E->kind()) {
  case IdxExpr::Kind::Const:
    return {E, false};
  case IdxExpr::Kind::VarVal: {
    assert(E->var() == X && "mentionsVar mismatch");
    switch (St->kind()) {
    case IrStmt::Kind::Copy:
      return {IN.idxVar(cast<CopyStmt>(St)->src()), false};
    case IrStmt::Kind::ConstInt:
      return {IN.idxConst(cast<ConstIntStmt>(St)->value()), false};
    case IrStmt::Kind::IntBin: {
      const auto *B = cast<IntBinStmt>(St);
      return {IN.idxBin(B->op(), IN.idxVar(B->lhs()), IN.idxVar(B->rhs())),
              false};
    }
    case IrStmt::Kind::ConstNull:
      // The index variable would hold null; any path using it is
      // unreachable at runtime.
      return {nullptr, true};
    default:
      // Load, Cmp, Alloc, AddrOf: the value is not expressible as an index
      // expression at an earlier point; coarsen.
      return {nullptr, false};
    }
  }
  case IdxExpr::Kind::Bin: {
    IdxSubst L = substIdx(E->lhs(), X, St, IN);
    if (!L.Expr)
      return L;
    IdxSubst R = substIdx(E->rhs(), X, St, IN);
    if (!R.Expr)
      return R;
    return {IN.idxBin(E->op(), L.Expr, R.Expr), false};
  }
  }
  return {nullptr, false};
}

/// Substitutes index variables across the whole path. Outcome is one of:
/// unchanged/new path (Path set), Dropped, or Coarsen (neither).
struct PathSubst {
  std::optional<LockExpr> Path;
  bool Dropped = false;
};

PathSubst substPathIdx(const LockExpr &P, const Variable *X,
                       const InstStmt *St, LockInterner &IN) {
  std::vector<LockOp> NewOps;
  NewOps.reserve(P.ops().size());
  for (const LockOp &Op : P.ops()) {
    if (Op.K != LockOp::Kind::Index || !Op.Idx->mentionsVar(X)) {
      NewOps.push_back(Op);
      continue;
    }
    IdxSubst S = substIdx(Op.Idx, X, St, IN);
    if (!S.Expr)
      return {std::nullopt, S.Dropped};
    NewOps.push_back(LockOp::index(S.Expr));
  }
  return {LockExpr(P.base(), std::move(NewOps)), false};
}

/// True if any index component of \p P reads a variable whose cell lies in
/// \p Region (and so may be changed by a store into that region).
bool pathIdxReadsRegion(const LockExpr &P, RegionId Region,
                        const TransferContext &Ctx) {
  if (Region == InvalidRegion)
    return false;
  for (const LockOp &Op : P.ops()) {
    if (Op.K != LockOp::Kind::Index)
      continue;
    // Walk the index expression's variables.
    std::vector<const IdxExpr *> Work = {Op.Idx};
    while (!Work.empty()) {
      const IdxExpr *E = Work.back();
      Work.pop_back();
      switch (E->kind()) {
      case IdxExpr::Kind::Const:
        break;
      case IdxExpr::Kind::VarVal:
        if (Ctx.PT.regionOfVarCell(E->var()) == Region)
          return true;
        break;
      case IdxExpr::Kind::Bin:
        Work.push_back(E->lhs());
        Work.push_back(E->rhs());
        break;
      }
    }
  }
  return false;
}

/// Head replacements for a path rooted at the assigned variable whose
/// first op is a Deref: the S_{x=e} relations of Fig. 4.
struct HeadRewrite {
  enum class Kind { Replace, Drop, Coarsen };
  Kind K;
  LockExpr Head; // valid for Replace; replaces [x, Deref]

  static HeadRewrite replace(LockExpr E) {
    return {Kind::Replace, std::move(E)};
  }
  static HeadRewrite drop() { return {Kind::Drop, LockExpr(nullptr)}; }
  static HeadRewrite coarsen() { return {Kind::Coarsen, LockExpr(nullptr)}; }
};

HeadRewrite headRewriteFor(const InstStmt *St, LockInterner &IN) {
  switch (St->kind()) {
  case IrStmt::Kind::Copy:
    // S_{x=y}: *x̄ -> *ȳ
    return HeadRewrite::replace(LockExpr(cast<CopyStmt>(St)->src())
                                    .plusDeref());
  case IrStmt::Kind::AddrOf:
    // S_{x=&y}: *x̄ -> ȳ
    return HeadRewrite::replace(LockExpr(cast<AddrOfStmt>(St)->target()));
  case IrStmt::Kind::FieldAddr: {
    // S_{x=y+i}: *x̄ -> *ȳ + i
    const auto *F = cast<FieldAddrStmt>(St);
    return HeadRewrite::replace(LockExpr(F->base()).plusDeref().plusField(
        F->structDecl(), F->fieldIndex()));
  }
  case IrStmt::Kind::IndexAddr: {
    // x = y @ i: *x̄ -> *ȳ @ value(i)
    const auto *Ix = cast<IndexAddrStmt>(St);
    return HeadRewrite::replace(LockExpr(Ix->base()).plusDeref().plusIndex(
        IN.idxVar(Ix->index())));
  }
  case IrStmt::Kind::Load: {
    // S_{x=*y}: *x̄ -> *(*ȳ)
    const auto *L = cast<LoadStmt>(St);
    return HeadRewrite::replace(LockExpr(L->addr()).plusDeref().plusDeref());
  }
  case IrStmt::Kind::Alloc:
  case IrStmt::Kind::ConstNull:
    // S_{x=new} = S_{x=null} = {}: locations reached through x after the
    // statement are fresh (or nonexistent); they are unreachable before
    // it, so the lock is dropped (Lemma 2's unreachability escape).
    return HeadRewrite::drop();
  case IrStmt::Kind::ConstInt:
  case IrStmt::Kind::IntBin:
  case IrStmt::Kind::Cmp:
    // Dereferencing an integer value cannot denote a location.
    return HeadRewrite::drop();
  default:
    assert(false && "headRewriteFor on unexpected statement");
    return HeadRewrite::coarsen();
  }
}

/// Out.insert(L) that records the lock actually stored (L, or L with the
/// joined effect) in \p Stored, when given.
void insertRecorded(const LockName &L, LockSet &Out,
                    std::vector<LockName> *Stored) {
  if (Out.insert(L) && Stored)
    Stored->push_back(Out.locks().back());
}

void transferStore(const LockName &L, const StoreStmt *St,
                   const TransferContext &Ctx, LockSet &Out,
                   std::vector<LockName> *Stored) {
  const LockExpr &P = L.path();
  RegionId WrittenRegion =
      Ctx.PT.derefRegion(Ctx.PT.regionOfVarCell(St->addr()));

  // If an index component reads a may-aliased cell, the precise variant
  // set would fork per occurrence; the region lock covers all variants.
  if (pathIdxReadsRegion(P, WrittenRegion, Ctx)) {
    insertRecorded(Ctx.coarsen(L), Out, Stored);
    return;
  }

  // closure(Id) − closure(Q_{*x}): identity unless the path starts
  // *(*x̄)... (i.e. [x, Deref, Deref, ...]).
  const auto &Ops = P.ops();
  bool QExcluded = P.base() == St->addr() && Ops.size() >= 2 &&
                   Ops[0].K == LockOp::Kind::Deref &&
                   Ops[1].K == LockOp::Kind::Deref;
  if (!QExcluded)
    insertRecorded(L, Out, Stored);

  // S_{*x=y} closed under suffixes: every deref position whose cell may
  // alias *x̄ may now yield the stored value, so the suffix re-roots at
  // *ȳ. (The j-th prefix is the cell; Ops[j] is the deref reading it.)
  if (WrittenRegion == InvalidRegion)
    return;
  LockExpr Prefix(P.base());
  for (size_t J = 0; J < Ops.size(); ++J) {
    if (Ops[J].K == LockOp::Kind::Deref) {
      RegionId CellRegion = evalPathRegion(Prefix, Ctx.PT);
      if (Ctx.PT.mayAlias(CellRegion, WrittenRegion)) {
        LockExpr Candidate =
            P.withPrefix(LockExpr(St->value()).plusDeref(), J + 1);
        insertRecorded(Ctx.finalize(std::move(Candidate), L.region(),
                                    L.effect()),
                       Out, Stored);
      }
    }
    // Extend the prefix by this op.
    switch (Ops[J].K) {
    case LockOp::Kind::Deref:
      Prefix = Prefix.plusDeref();
      break;
    case LockOp::Kind::Field:
      Prefix = Prefix.plusField(Ops[J].Struct, Ops[J].FieldIdx);
      break;
    case LockOp::Kind::Index:
      Prefix = Prefix.plusIndex(Ops[J].Idx);
      break;
    }
  }
}

/// True if \p St cannot rewrite \p L, so its transfer is L itself: coarse
/// locks and ⊤; fine locks of non-stores whose path cannot read the
/// defined variable (no false negatives: the mask covers the base and
/// every index leaf); bare-variable fine locks of stores, which
/// transferStore leaves as they are.
bool transferIsIdentity(const LockName &L, const InstStmt *St) {
  if (!L.isFine())
    return true;
  if (St->kind() != IrStmt::Kind::Store)
    return !L.pathMayMention(St->def());
  return L.path().ops().empty();
}

/// transferLock, recording every lock it stores in \p Stored.
void transferInto(const LockName &L, const InstStmt *St,
                  const TransferContext &Ctx, LockSet &Out,
                  std::vector<LockName> *Stored) {
  assert(St->kind() != IrStmt::Kind::Call &&
         "calls are handled interprocedurally");

  // Coarse and top locks are flow-insensitive (§4.3); fine locks the
  // statement cannot read pass unchanged, and re-finalizing would rebuild
  // the same lock.
  if (transferIsIdentity(L, St)) {
    insertRecorded(L, Out, Stored);
    return;
  }

  if (St->kind() == IrStmt::Kind::Store) {
    transferStore(L, cast<StoreStmt>(St), Ctx, Out, Stored);
    return;
  }

  const Variable *X = St->def();
  assert(X && "non-store primitive statements define a variable");
  const LockExpr &P = L.path();

  // Step 1: rewrite the pointer head if the path depends on the value of
  // the assigned variable.
  std::optional<LockExpr> Rewritten;
  if (P.base() == X && P.startsWithDeref()) {
    HeadRewrite HR = headRewriteFor(St, Ctx.Interner);
    switch (HR.K) {
    case HeadRewrite::Kind::Drop:
      return;
    case HeadRewrite::Kind::Coarsen:
      insertRecorded(Ctx.coarsen(L), Out, Stored);
      return;
    case HeadRewrite::Kind::Replace:
      Rewritten = P.withPrefix(HR.Head, 1);
      break;
    }
  } else {
    Rewritten = P; // identity (closure(Id))
  }

  // Step 2: substitute the assigned variable in index components.
  PathSubst Sub = substPathIdx(*Rewritten, X, St, Ctx.Interner);
  if (!Sub.Path) {
    if (!Sub.Dropped)
      insertRecorded(Ctx.coarsen(L), Out, Stored);
    return;
  }

  insertRecorded(
      Ctx.finalize(std::move(*Sub.Path), L.region(), L.effect()), Out,
      Stored);
}

/// True if \p A and \p B are related under insert()'s normalization:
/// same class, A ≤ B or B ≤ A.
bool related(const LockName &A, const LockName &B) {
  return A.sameLockIgnoringEffect(B) || A.leq(B) || B.leq(A);
}

} // namespace

void lockin::transferLock(const LockName &L, const InstStmt *St,
                          const TransferContext &Ctx, LockSet &Out) {
  transferInto(L, St, Ctx, Out, nullptr);
}

void lockin::transferSet(const InstStmt *St, const LockSet &After,
                         const TransferContext &Ctx, LockSet &Out) {
  // Every lock Out holds that is not an unchanged lock of After. Locks
  // later dropped from Out stay listed; that only costs a scan.
  std::vector<LockName> Added(Out.begin(), Out.end());
  for (const LockName &L : After) {
    if (transferIsIdentity(L, St) &&
        std::none_of(Added.begin(), Added.end(),
                     [&](const LockName &A) { return related(L, A); }))
      Out.appendUnrelated(L);
    else
      transferInto(L, St, Ctx, Out, &Added);
  }
}

void lockin::genVarRead(const Variable *V, const TransferContext &Ctx,
                        LockSet &Out) {
  if (!Ctx.isLockableVar(V))
    return;
  Out.insert(LockName::fine(LockExpr(V), Ctx.PT.regionOfVarCell(V),
                            Effect::RO, Ctx.Interner));
}

static void genVarWrite(const Variable *V, const TransferContext &Ctx,
                        LockSet &Out) {
  if (!V || !Ctx.isLockableVar(V))
    return;
  Out.insert(LockName::fine(LockExpr(V), Ctx.PT.regionOfVarCell(V),
                            Effect::RW, Ctx.Interner));
}

void lockin::genLocks(const InstStmt *St, const TransferContext &Ctx,
                      LockSet &Out) {
  genVarWrite(St->def(), Ctx, Out);
  switch (St->kind()) {
  case IrStmt::Kind::Copy:
    genVarRead(cast<CopyStmt>(St)->src(), Ctx, Out);
    return;
  case IrStmt::Kind::ConstInt:
  case IrStmt::Kind::ConstNull:
    return;
  case IrStmt::Kind::AddrOf:
    // Taking an address performs no memory access.
    return;
  case IrStmt::Kind::FieldAddr:
    genVarRead(cast<FieldAddrStmt>(St)->base(), Ctx, Out);
    return;
  case IrStmt::Kind::IndexAddr: {
    const auto *Ix = cast<IndexAddrStmt>(St);
    genVarRead(Ix->base(), Ctx, Out);
    genVarRead(Ix->index(), Ctx, Out);
    return;
  }
  case IrStmt::Kind::Load: {
    // G_{*y}: the dereferenced cell is read (ro); y itself is read.
    const auto *L = cast<LoadStmt>(St);
    genVarRead(L->addr(), Ctx, Out);
    LockExpr Path = LockExpr(L->addr()).plusDeref();
    RegionId Region = evalPathRegion(Path, Ctx.PT);
    Out.insert(Ctx.finalize(std::move(Path), Region, Effect::RO));
    return;
  }
  case IrStmt::Kind::Store: {
    // G for *x = y: the written cell needs rw; x and y are read.
    const auto *S = cast<StoreStmt>(St);
    genVarRead(S->addr(), Ctx, Out);
    genVarRead(S->value(), Ctx, Out);
    LockExpr Path = LockExpr(S->addr()).plusDeref();
    RegionId Region = evalPathRegion(Path, Ctx.PT);
    Out.insert(Ctx.finalize(std::move(Path), Region, Effect::RW));
    return;
  }
  case IrStmt::Kind::Alloc: {
    const auto *A = cast<AllocStmt>(St);
    if (A->sizeVar())
      genVarRead(A->sizeVar(), Ctx, Out);
    return;
  }
  case IrStmt::Kind::IntBin: {
    const auto *B = cast<IntBinStmt>(St);
    genVarRead(B->lhs(), Ctx, Out);
    genVarRead(B->rhs(), Ctx, Out);
    return;
  }
  case IrStmt::Kind::Cmp: {
    const auto *C = cast<CmpStmt>(St);
    genVarRead(C->lhs(), Ctx, Out);
    genVarRead(C->rhs(), Ctx, Out);
    return;
  }
  case IrStmt::Kind::Call:
    // Argument reads are generated by the interprocedural transfer.
    return;
  default:
    assert(false && "genLocks on structured statement");
    return;
  }
}
