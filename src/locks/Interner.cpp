//===--- Interner.cpp - Hash-consing of lock paths -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "locks/Interner.h"

#include <cassert>

using namespace lockin;
using namespace lockin::ir;

// Mirrors the hashCombine in LockExpr.cpp, which folds IdxExpr hashes into
// LockExpr::hash.
static size_t hashCombine(size_t Seed, size_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

IdxExpr *LockInterner::newIdx() {
  // IdxExpr's constructor is private (friend access); it is trivially
  // destructible, so the arena needs no destructor registration.
  void *Mem = Arena.allocate(sizeof(IdxExpr), alignof(IdxExpr));
  return ::new (Mem) IdxExpr();
}

IdxExpr::Ptr LockInterner::idxConst(int64_t Value) {
  size_t H = hashCombine(static_cast<size_t>(IdxExpr::Kind::Const),
                         static_cast<size_t>(Value));
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<IdxExpr::Ptr> &Bucket = IdxTable[H];
  for (IdxExpr::Ptr E : Bucket)
    if (E->kind() == IdxExpr::Kind::Const && E->constValue() == Value) {
      ++Counters.IdxHits;
      return E;
    }
  IdxExpr *E = newIdx();
  E->K = IdxExpr::Kind::Const;
  E->Value = Value;
  E->Sz = 1;
  E->H = H;
  ++Counters.IdxNodes;
  Bucket.push_back(E);
  return E;
}

IdxExpr::Ptr LockInterner::idxVar(const Variable *Var) {
  assert(Var && "null index variable");
  size_t H = hashCombine(static_cast<size_t>(IdxExpr::Kind::VarVal),
                         reinterpret_cast<size_t>(Var));
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<IdxExpr::Ptr> &Bucket = IdxTable[H];
  for (IdxExpr::Ptr E : Bucket)
    if (E->kind() == IdxExpr::Kind::VarVal && E->var() == Var) {
      ++Counters.IdxHits;
      return E;
    }
  IdxExpr *E = newIdx();
  E->K = IdxExpr::Kind::VarVal;
  E->Var = Var;
  E->VarMask = varBit(Var);
  E->Sz = 1;
  E->H = H;
  ++Counters.IdxNodes;
  Bucket.push_back(E);
  return E;
}

IdxExpr::Ptr LockInterner::idxBin(IntBinOp Op, IdxExpr::Ptr Lhs,
                                  IdxExpr::Ptr Rhs) {
  assert(Lhs && Rhs && "null index operand");
  size_t H = static_cast<size_t>(IdxExpr::Kind::Bin);
  H = hashCombine(H, static_cast<size_t>(Op));
  H = hashCombine(H, Lhs->hash());
  H = hashCombine(H, Rhs->hash());
  std::lock_guard<std::mutex> Lock(Mu);
  // Operands of interned expressions are canonical, so child identity is
  // pointer identity.
  std::vector<IdxExpr::Ptr> &Bucket = IdxTable[H];
  for (IdxExpr::Ptr E : Bucket)
    if (E->kind() == IdxExpr::Kind::Bin && E->op() == Op && E->lhs() == Lhs &&
        E->rhs() == Rhs) {
      ++Counters.IdxHits;
      return E;
    }
  IdxExpr *E = newIdx();
  E->K = IdxExpr::Kind::Bin;
  E->Op = Op;
  E->Lhs = Lhs;
  E->Rhs = Rhs;
  E->VarMask = Lhs->varMask() | Rhs->varMask();
  E->Sz = 1 + Lhs->size() + Rhs->size();
  E->H = H;
  ++Counters.IdxNodes;
  Bucket.push_back(E);
  return E;
}

const LockPathNode *LockInterner::intern(const LockExpr &Path) {
  size_t H = Path.hash();
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<const LockPathNode *> &Bucket = PathTable[H];
  for (const LockPathNode *N : Bucket)
    if (N->Path == Path) {
      ++Counters.PathHits;
      return N;
    }
  const LockPathNode *N = Arena.create<LockPathNode>(Path, NextId++, H);
  ++Counters.PathNodes;
  Bucket.push_back(N);
  return N;
}

LockInterner::Stats LockInterner::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S = Counters;
  S.ArenaBytes = Arena.bytesAllocated();
  return S;
}
