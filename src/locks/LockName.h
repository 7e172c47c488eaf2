//===--- LockName.h - The compiler's lock domain ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock names for the instantiated scheme Σ_k × Σ_≡ × Σ_ε of §4.3. The
/// relevant combinations form a tree (not a general lattice):
///
///   Top                        the global lock (Loc, rw)
///   Coarse(R, ε)               everything in points-to region R
///   Fine(path, R, ε)           the single location `path` evaluates to,
///                              which lies inside region R
///
/// leq() is the coarser-than order used by the merge operation: a fine lock
/// is below the coarse lock of its region, ro is below rw, and everything
/// is below Top.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_LOCKS_LOCKNAME_H
#define LOCKIN_LOCKS_LOCKNAME_H

#include "locks/Effect.h"
#include "locks/LockExpr.h"
#include "pointsto/Steensgaard.h"

#include <string>

namespace lockin {

/// A lock name is a small trivially-copyable value: kind, region, effect,
/// and (for fine locks) a pointer to the interned path flyweight. Within
/// one interner path equality is a pointer compare and the path hash is a
/// field read, so LockName equality/hash are O(1).
class LockName {
public:
  enum class Kind { Top, Coarse, Fine };

  static LockName top() { return LockName(Kind::Top, InvalidRegion,
                                          Effect::RW); }
  static LockName coarse(RegionId Region, Effect Eff) {
    return LockName(Kind::Coarse, Region, Eff);
  }
  /// Fine lock over \p Path; the path is interned through \p Interner,
  /// which must outlive every LockName built from it.
  static LockName fine(const LockExpr &Path, RegionId Region, Effect Eff,
                       LockInterner &Interner);

  Kind kind() const { return K; }
  bool isTop() const { return K == Kind::Top; }
  bool isCoarse() const { return K == Kind::Coarse; }
  bool isFine() const { return K == Kind::Fine; }

  RegionId region() const { return Region; }
  Effect effect() const { return Eff; }
  const LockExpr &path() const { return Node->Path; }
  /// Dense interned-path identity (unique per distinct path within one
  /// interner).
  LockId pathId() const { return Node->Id; }

  /// Conservative O(1) test: false means the path certainly does not read
  /// \p V, so any transfer that only rewrites occurrences of V is the
  /// identity on this lock. True may be a bloom false positive; callers
  /// fall through to the precise rewrite. Fine locks only.
  bool pathMayMention(const ir::Variable *V) const {
    return (Node->VarMask & varBit(V)) != 0;
  }

  /// The coarser-than partial order: this ≤ Other means Other protects at
  /// least the locations of this lock, with at least its effects.
  bool leq(const LockName &Other) const;

  /// Same lock identity modulo the effect component (used to join effects
  /// when merging sets).
  bool sameLockIgnoringEffect(const LockName &Other) const;

  /// This lock with the joined effect.
  LockName withEffect(Effect NewEff) const {
    LockName L = *this;
    L.Eff = NewEff;
    return L;
  }

  bool operator==(const LockName &Other) const;
  size_t hash() const;
  std::string str() const;

private:
  LockName(Kind K, RegionId Region, Effect Eff)
      : K(K), Region(Region), Eff(Eff) {}

  Kind K;
  RegionId Region;
  Effect Eff;
  const LockPathNode *Node = nullptr;
};

/// Region of the location a lock path evaluates to: start at the cell of
/// the base variable, follow pointee edges at each Deref, stay put at
/// Field/Index. InvalidRegion when the points-to graph has no edge (the
/// path can only evaluate by dereferencing a pointer that is never
/// initialized anywhere in the program).
RegionId evalPathRegion(const LockExpr &Path, const PointsToAnalysis &PT);

} // namespace lockin

#endif // LOCKIN_LOCKS_LOCKNAME_H
