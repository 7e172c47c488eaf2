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

/// Inserts transferLock(L, St) into \p Out for every L of \p After, in
/// order. The result equals those inserts, storage order included, but a
/// lock the statement cannot rewrite costs no scan unless it is related
/// (same class, ≤ or ≥) to a lock \p Out held on entry or a rewrite
/// stored: \p After is an antichain, so only those can interact with it.
void transferSet(const ir::InstStmt *St, const LockSet &After,
                 const TransferContext &Ctx, LockSet &Out);

/// Inserts the G locks for the accesses performed directly by \p St.
void genLocks(const ir::InstStmt *St, const TransferContext &Ctx,
              LockSet &Out);

/// G lock for a plain read of variable \p V (condition variables, call
/// arguments, returned values).
void genVarRead(const ir::Variable *V, const TransferContext &Ctx,
                LockSet &Out);

} // namespace lockin

#endif // LOCKIN_INFER_TRANSFER_H
