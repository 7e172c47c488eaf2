//===--- Transfer.h - Backward transfer functions ---------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transfer functions of Fig. 4, implemented by recursive substitution
/// on lock paths (as §4.3 prescribes for a practical implementation, in
/// place of the declarative closure operators):
///
///  - S_{e1=e2}: the head of a path rooted at the assigned variable is
///    replaced by the right-hand side's path; array-index components are
///    substituted through integer assignments.
///  - closure(Id) − closure(Q): paths not affected by the assignment pass
///    through unchanged; `*x = y` drops the identity only for paths with
///    the *(*x̄) prefix and re-derives them (and every may-aliased deref
///    position) from *ȳ, implementing the weak update of the paper's
///    Fig. 2 example.
///  - G: locks protecting the accesses performed directly by a statement;
///    reads yield ro locks, writes rw locks, and locks on thread-local
///    variables whose address is never taken are omitted.
///
/// Only fine locks are rewritten: coarse region locks and ⊤ are
/// flow-insensitive and pass through every statement (§4.3).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INFER_TRANSFER_H
#define LOCKIN_INFER_TRANSFER_H

#include "infer/LockSet.h"
#include "ir/Ir.h"
#include "locks/LockName.h"
#include "pointsto/Steensgaard.h"

#include <cstdint>
#include <unordered_map>

namespace lockin {

/// Shared, immutable context for transfer computations.
struct TransferContext {
  const ir::IrModule &Module;
  const PointsToAnalysis &PT;
  /// Expression-length bound of the Σ_k component; longer paths collapse
  /// to the coarse lock of their region.
  unsigned K;
  /// Interner every lock path and index expression is built through; the
  /// substitution rewrites hash-cons their results so repeated fixpoint
  /// rounds reuse one node per distinct path. Thread-safe, shared by all
  /// workers of one inference run.
  LockInterner &Interner;

  /// True if accesses to the cell &V need a lock: globals and
  /// address-taken locals may be shared between threads.
  bool isLockableVar(const ir::Variable *V) const {
    return V->isGlobal() || V->isAddressTaken();
  }

  /// Builds the lock for \p Path protecting a location in \p Region;
  /// applies the k-limit (overflow coarsens to the region lock, and to ⊤
  /// if the region is unknown).
  LockName finalize(LockExpr Path, RegionId Region, Effect Eff) const;

  /// The coarse fallback for a fine lock that can no longer be expressed.
  LockName coarsen(const LockName &L) const;
};

/// Applies the backward transfer of primitive statement \p St (any
/// InstStmt except Call) to lock \p L, inserting the locks required before
/// the statement into \p Out.
void transferLock(const LockName &L, const ir::InstStmt *St,
                  const TransferContext &Ctx, LockSet &Out);

/// Inserts the G locks for the accesses performed directly by \p St.
void genLocks(const ir::InstStmt *St, const TransferContext &Ctx,
              LockSet &Out);

/// G lock for a plain read of variable \p V (condition variables, call
/// arguments, returned values).
void genVarRead(const ir::Variable *V, const TransferContext &Ctx,
                LockSet &Out);

/// Memo for the per-statement transfer results, keyed on (statement id,
/// incoming lock). Loop fixpoints and SCC summary rounds re-apply the
/// same S/Q/closure rewrites to the same locks many times; the memo turns
/// the repeats into hash hits. transferLock/genLocks are pure in
/// (statement, lock, context), so caching is exact. One instance per
/// worker thread (not shared), so no synchronization is needed.
class TransferCache {
public:
  /// transferLock with memoization; falls through uncached for statements
  /// without an id (the map/unmap binding copies built on the side).
  void apply(const LockName &L, const ir::InstStmt *St,
             const TransferContext &Ctx, LockSet &Out);

  /// genLocks with memoization, keyed on the statement id alone.
  void gen(const ir::InstStmt *St, const TransferContext &Ctx, LockSet &Out);

  /// Whole-set memo over the per-statement transfer: the cached result of
  /// gen(St) + apply(L, St) for every L of \p After, in order. Backward
  /// fixpoints re-apply identical (statement, set) pairs until
  /// convergence; a hit replaces the entire per-lock loop with one flat
  /// set copy. Keys hash the full after-set, which the interned
  /// representation answers with a field read per lock — the pre-refactor
  /// representation pays a structural hash per path, which is why this
  /// memo only became profitable with hash-consed nodes.
  /// Returns null on miss; entries are verified element-wise
  /// (sameSequence), so a hit is exact, never hash-trusting.
  const LockSet *findSet(uint32_t Stmt, const LockSet &After) const;
  void storeSet(uint32_t Stmt, const LockSet &After, const LockSet &Result);

  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t GenHits = 0;
  uint64_t GenMisses = 0;
  uint64_t SetHits = 0;
  uint64_t SetMisses = 0;

private:
  struct Key {
    uint32_t Stmt;
    LockName L;
    bool operator==(const Key &O) const {
      return Stmt == O.Stmt && L == O.L;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return K.L.hash() * 1099511628211u ^ K.Stmt;
    }
  };
  /// One (after-set, result) pair; more than one per key slot only on a
  /// content-hash collision.
  struct SetEntry {
    LockSet After;
    LockSet Result;
  };

  std::unordered_map<Key, LockSet, KeyHash> Xfer;
  std::unordered_map<uint32_t, LockSet> Gen;
  std::unordered_map<uint64_t, std::vector<SetEntry>> Sets;
};

} // namespace lockin

#endif // LOCKIN_INFER_TRANSFER_H
