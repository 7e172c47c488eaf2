//===--- LockExpr.cpp - Expression locks (paths) -------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "locks/LockExpr.h"

#include <cassert>

using namespace lockin;
using namespace lockin::ir;

//===----------------------------------------------------------------------===//
// IdxExpr
//===----------------------------------------------------------------------===//

bool IdxExpr::equals(const IdxExpr &Other) const {
  // Canonical nodes of one interner are unique per structure, so equal
  // structures arrive here as the same pointer.
  if (this == &Other)
    return true;
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Const:
    return Value == Other.Value;
  case Kind::VarVal:
    return Var == Other.Var;
  case Kind::Bin:
    return Op == Other.Op && Lhs->equals(*Other.Lhs) &&
           Rhs->equals(*Other.Rhs);
  }
  return false;
}

bool IdxExpr::mentionsVar(const Variable *V) const {
  switch (K) {
  case Kind::Const:
    return false;
  case Kind::VarVal:
    return Var == V;
  case Kind::Bin:
    return Lhs->mentionsVar(V) || Rhs->mentionsVar(V);
  }
  return false;
}

static const char *intBinOpSpelling(IntBinOp Op) {
  switch (Op) {
  case IntBinOp::Add:
    return "+";
  case IntBinOp::Sub:
    return "-";
  case IntBinOp::Mul:
    return "*";
  case IntBinOp::Div:
    return "/";
  case IntBinOp::Rem:
    return "%";
  }
  return "?";
}

std::string IdxExpr::str() const {
  switch (K) {
  case Kind::Const:
    return std::to_string(Value);
  case Kind::VarVal:
    return Var->name();
  case Kind::Bin:
    return '(' + Lhs->str() + " " + intBinOpSpelling(Op) + " " + Rhs->str() +
           ")";
  }
  return "?";
}

static size_t hashCombine(size_t Seed, size_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

//===----------------------------------------------------------------------===//
// LockOp / LockExpr
//===----------------------------------------------------------------------===//

bool LockOp::operator==(const LockOp &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Deref:
    return true;
  case Kind::Field:
    return Struct == Other.Struct && FieldIdx == Other.FieldIdx;
  case Kind::Index:
    return Idx->equals(*Other.Idx);
  }
  return false;
}

LockExpr LockExpr::withPrefix(const LockExpr &NewPrefix,
                              size_t PrefixLen) const {
  assert(PrefixLen <= Ops.size() && "prefix longer than path");
  LockExpr Result = NewPrefix;
  Result.Ops.reserve(Result.Ops.size() + (Ops.size() - PrefixLen));
  Result.Ops.insert(Result.Ops.end(), Ops.begin() + PrefixLen, Ops.end());
  return Result;
}

unsigned LockExpr::size() const {
  unsigned Size = 0;
  for (const LockOp &Op : Ops) {
    switch (Op.K) {
    case LockOp::Kind::Deref:
    case LockOp::Kind::Field:
      Size += 1;
      break;
    case LockOp::Kind::Index:
      Size += Op.Idx->size();
      break;
    }
  }
  return Size;
}

bool LockExpr::operator==(const LockExpr &Other) const {
  return Base == Other.Base && Ops == Other.Ops;
}

size_t LockExpr::hash() const {
  size_t H = reinterpret_cast<size_t>(Base);
  for (const LockOp &Op : Ops) {
    H = hashCombine(H, static_cast<size_t>(Op.K));
    switch (Op.K) {
    case LockOp::Kind::Deref:
      break;
    case LockOp::Kind::Field:
      H = hashCombine(H, static_cast<size_t>(Op.FieldIdx));
      break;
    case LockOp::Kind::Index:
      H = hashCombine(H, Op.Idx->hash());
      break;
    }
  }
  return H;
}

std::string LockExpr::str() const {
  // The empty path is the address lock &x; each deref peels one &.
  std::string Out = "&" + Base->name();
  for (const LockOp &Op : Ops) {
    switch (Op.K) {
    case LockOp::Kind::Deref:
      if (Out.size() > 1 && Out[0] == '&') {
        Out = Out.substr(1); // *&x == x
      } else {
        Out = "*(" + Out + ")";
      }
      break;
    case LockOp::Kind::Field:
      Out = "(" + Out + ")." + Op.Struct->fields()[Op.FieldIdx].Name;
      break;
    case LockOp::Kind::Index:
      Out = "(" + Out + ")[" + Op.Idx->str() + "]";
      break;
    }
  }
  return Out;
}
