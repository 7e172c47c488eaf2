//===--- LockName.cpp - The compiler's lock domain -----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "locks/LockName.h"

#include "locks/Interner.h"

using namespace lockin;

LockName LockName::fine(const LockExpr &Path, RegionId Region, Effect Eff,
                        LockInterner &Interner) {
  LockName L(Kind::Fine, Region, Eff);
  L.Node = Interner.intern(Path);
  return L;
}

bool LockName::leq(const LockName &Other) const {
  if (Other.K == Kind::Top)
    return true;
  if (K == Kind::Top)
    return false;
  if (!effectLeq(Eff, Other.Eff))
    return false;
  if (Other.K == Kind::Coarse)
    return Region != InvalidRegion && Region == Other.Region;
  // Other is fine: only a fine lock over the identical path is below it.
  return K == Kind::Fine && Region == Other.Region &&
         samePath(Node, Other.Node);
}

bool LockName::sameLockIgnoringEffect(const LockName &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Top:
    return true;
  case Kind::Coarse:
    return Region == Other.Region;
  case Kind::Fine:
    return Region == Other.Region && samePath(Node, Other.Node);
  }
  return false;
}

bool LockName::operator==(const LockName &Other) const {
  return Eff == Other.Eff && sameLockIgnoringEffect(Other);
}

size_t LockName::hash() const {
  size_t H = static_cast<size_t>(K) * 0x9e3779b97f4a7c15ULL +
             static_cast<size_t>(Eff);
  H ^= static_cast<size_t>(Region) * 0xbf58476d1ce4e5b9ULL;
  if (Node)
    H ^= Node->hash();
  return H;
}

std::string LockName::str() const {
  switch (K) {
  case Kind::Top:
    return "TOP";
  case Kind::Coarse:
    return "region#" + std::to_string(Region) + ":" + effectName(Eff);
  case Kind::Fine:
    return Node->Path.str() + "@region#" + std::to_string(Region) + ":" +
           effectName(Eff);
  }
  return "?";
}

RegionId lockin::evalPathRegion(const LockExpr &Path,
                                const PointsToAnalysis &PT) {
  RegionId R = PT.regionOfVarCell(Path.base());
  for (const LockOp &Op : Path.ops()) {
    if (R == InvalidRegion)
      return InvalidRegion;
    switch (Op.K) {
    case LockOp::Kind::Deref:
      R = PT.derefRegion(R);
      break;
    case LockOp::Kind::Field:
    case LockOp::Kind::Index:
      R = PT.offsetRegion(R);
      break;
    }
  }
  return R;
}
