//===--- Transfer.cpp - Backward transfer functions ----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/Transfer.h"

#include "locks/Interner.h"

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

void transferStore(const LockName &L, const StoreStmt *St,
                   const TransferContext &Ctx, LockSet &Out) {
  const LockExpr &P = L.path();
  RegionId WrittenRegion =
      Ctx.PT.derefRegion(Ctx.PT.regionOfVarCell(St->addr()));

  // If an index component reads a may-aliased cell, the precise variant
  // set would fork per occurrence; the region lock covers all variants.
  if (pathIdxReadsRegion(P, WrittenRegion, Ctx)) {
    Out.insert(Ctx.coarsen(L));
    return;
  }

  // closure(Id) − closure(Q_{*x}): identity unless the path starts
  // *(*x̄)... (i.e. [x, Deref, Deref, ...]).
  const auto &Ops = P.ops();
  bool QExcluded = P.base() == St->addr() && Ops.size() >= 2 &&
                   Ops[0].K == LockOp::Kind::Deref &&
                   Ops[1].K == LockOp::Kind::Deref;
  if (!QExcluded)
    Out.insert(L);

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
        Out.insert(Ctx.finalize(std::move(Candidate), L.region(),
                                L.effect()));
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

} // namespace

void lockin::transferLock(const LockName &L, const InstStmt *St,
                          const TransferContext &Ctx, LockSet &Out) {
  assert(St->kind() != IrStmt::Kind::Call &&
         "calls are handled interprocedurally");

  // Coarse and top locks are flow-insensitive (§4.3).
  if (!L.isFine()) {
    Out.insert(L);
    return;
  }

  if (St->kind() == IrStmt::Kind::Store) {
    transferStore(L, cast<StoreStmt>(St), Ctx, Out);
    return;
  }

  const Variable *X = St->def();
  assert(X && "non-store primitive statements define a variable");

  // Mask fast path: if the path certainly does not read X, both rewrite
  // steps below are the identity, and re-finalizing would rebuild the
  // same lock. (No false negatives: the mask covers the base and every
  // index leaf.)
  if (!L.pathMayMention(X)) {
    Out.insert(L);
    return;
  }

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
      Out.insert(Ctx.coarsen(L));
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
      Out.insert(Ctx.coarsen(L));
    return;
  }

  Out.insert(Ctx.finalize(std::move(*Sub.Path), L.region(), L.effect()));
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

//===----------------------------------------------------------------------===//
// TransferCache
//===----------------------------------------------------------------------===//

void TransferCache::apply(const LockName &L, const InstStmt *St,
                          const TransferContext &Ctx, LockSet &Out) {
  // Identity transfers skip the memo: coarse/⊤ locks are flow-insensitive,
  // and a fine lock whose path cannot read the defined variable passes
  // through any non-store statement unchanged. Caching them would only
  // grow the table (these are the overwhelmingly common cases).
  if (!L.isFine()) {
    Out.insert(L);
    return;
  }
  if (St->kind() != IrStmt::Kind::Store && !L.pathMayMention(St->def())) {
    Out.insert(L);
    return;
  }
  if (St->stmtId() == IrStmt::InvalidStmtId) {
    transferLock(L, St, Ctx, Out);
    return;
  }
  Key K{St->stmtId(), L};
  auto It = Xfer.find(K);
  if (It == Xfer.end()) {
    ++Misses;
    LockSet Result;
    transferLock(L, St, Ctx, Result);
    It = Xfer.emplace(std::move(K), std::move(Result)).first;
  } else {
    ++Hits;
  }
  for (const LockName &R : It->second)
    Out.insert(R);
}

void TransferCache::gen(const InstStmt *St, const TransferContext &Ctx,
                        LockSet &Out) {
  if (St->stmtId() == IrStmt::InvalidStmtId) {
    genLocks(St, Ctx, Out);
    return;
  }
  auto It = Gen.find(St->stmtId());
  if (It == Gen.end()) {
    ++GenMisses;
    LockSet Result;
    genLocks(St, Ctx, Result);
    It = Gen.emplace(St->stmtId(), std::move(Result)).first;
  } else {
    ++GenHits;
  }
  for (const LockName &R : It->second)
    Out.insert(R);
}

/// Key for the whole-set memo: statement id folded into the
/// order-sensitive set content hash.
static uint64_t setKey(uint32_t Stmt, const LockSet &After) {
  return static_cast<uint64_t>(After.contentHash()) * 1099511628211u ^ Stmt;
}

const LockSet *TransferCache::findSet(uint32_t Stmt,
                                      const LockSet &After) const {
  auto It = Sets.find(setKey(Stmt, After));
  if (It != Sets.end())
    for (const SetEntry &E : It->second)
      if (E.After.sameSequence(After))
        return &E.Result;
  return nullptr;
}

void TransferCache::storeSet(uint32_t Stmt, const LockSet &After,
                             const LockSet &Result) {
  Sets[setKey(Stmt, After)].push_back(SetEntry{After, Result});
}
