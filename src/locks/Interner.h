//===--- Interner.h - Hash-consing of lock paths ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LockInterner is the single construction point for IdxExpr trees and
/// interned lock paths (LockPathNode). It hash-conses: structurally equal
/// index expressions come back as the same arena node, and structurally
/// equal paths come back as the same
/// LockPathNode carrying a dense 32-bit LockId. That makes LockName a
/// small POD whose path equality is a pointer compare and whose hash is a
/// field read, which is what lets the Fig.-4 transfer functions and the
/// SCC summary maps scale to megaprograms.
///
/// Thread-safe: one inference run shares a single interner across its
/// worker pool; all mutation is serialized by an internal mutex. Interned
/// pointers stay valid for the interner's lifetime (the inference result
/// keeps the interner alive via shared_ptr).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_LOCKS_INTERNER_H
#define LOCKIN_LOCKS_INTERNER_H

#include "locks/LockExpr.h"
#include "support/Arena.h"

#include <mutex>
#include <unordered_map>
#include <vector>

namespace lockin {

class LockInterner {
public:
  struct Stats {
    uint64_t IdxNodes = 0;  ///< distinct IdxExpr nodes allocated
    uint64_t IdxHits = 0;   ///< constructions answered by an existing node
    uint64_t PathNodes = 0; ///< distinct lock paths interned
    uint64_t PathHits = 0;  ///< interns answered by an existing node
    uint64_t ArenaBytes = 0;

    uint64_t nodes() const { return IdxNodes + PathNodes; }
    uint64_t hits() const { return IdxHits + PathHits; }
  };

  /// IdxExpr construction (replaces the old IdxExpr::make* factories).
  IdxExpr::Ptr idxConst(int64_t Value);
  IdxExpr::Ptr idxVar(const ir::Variable *Var);
  IdxExpr::Ptr idxBin(ir::IntBinOp Op, IdxExpr::Ptr Lhs, IdxExpr::Ptr Rhs);

  /// Returns the canonical node for \p Path, interning it on first sight.
  const LockPathNode *intern(const LockExpr &Path);

  Stats stats() const;

private:
  IdxExpr *newIdx();

  mutable std::mutex Mu;
  support::BumpArena Arena;

  // Hash buckets; collisions are resolved by a structural scan. Children
  // of canonical nodes are themselves canonical, so the IdxExpr scan
  // compares child pointers.
  std::unordered_map<size_t, std::vector<IdxExpr::Ptr>> IdxTable;
  std::unordered_map<size_t, std::vector<const LockPathNode *>> PathTable;
  LockId NextId = 1; // 0 reserved for "no path"
  Stats Counters;
};

} // namespace lockin

#endif // LOCKIN_LOCKS_INTERNER_H
