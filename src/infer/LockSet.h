//===--- LockSet.h - Normalized sets of lock names --------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow fact of the inference: a set of lock names N_p with no
/// internal redundancy, maintaining the invariant of §4.1(b): for any pair
/// l1, l2 in the set, neither l1 < l2 nor l2 < l1. The merge operation is
/// the paper's N1 ⊔ N2: union, dropping locks subsumed by coarser ones.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INFER_LOCKSET_H
#define LOCKIN_INFER_LOCKSET_H

#include "locks/LockName.h"

#include <string>
#include <vector>

namespace lockin {

class LockSet {
public:
  /// Inserts \p L, maintaining normalization:
  ///  - if an existing lock is ≥ L, nothing changes;
  ///  - otherwise every existing lock ≤ L is removed and L is added;
  ///  - two locks equal up to effect collapse into one with the joined
  ///    effect (ro ⊔ rw = rw).
  /// Returns true if the set changed.
  bool insert(const LockName &L);

  /// Appends \p L without the normalizing scans. Precondition: \p L shares
  /// no class with, is not ≤ and not ≥ any held lock — exactly the case
  /// in which insert(L) appends it. The transfer passes locks a statement
  /// cannot rewrite through this way.
  void appendUnrelated(const LockName &L) { Locks.push_back(L); }

  /// N := N ⊔ Other; returns true if the set changed.
  bool merge(const LockSet &Other);

  /// True if some held lock is ≥ L (i.e. L's protection is already
  /// guaranteed).
  bool covers(const LockName &L) const;

  bool contains(const LockName &L) const;
  bool empty() const { return Locks.empty(); }
  size_t size() const { return Locks.size(); }

  auto begin() const { return Locks.begin(); }
  auto end() const { return Locks.end(); }
  const std::vector<LockName> &locks() const { return Locks; }

  bool operator==(const LockSet &Other) const;

  /// Order-sensitive content hash over the held locks. Stricter than
  /// operator== (which is order-insensitive): equal hashes + sameSequence
  /// imply equal sets, which is what the summary deduplication needs.
  size_t contentHash() const;

  /// Element-wise equality in storage order (stricter than operator==).
  bool sameSequence(const LockSet &Other) const;

  /// Deterministic rendering, sorted by lock text; used in tests and the
  /// transformed-program printer.
  std::string str() const;

private:
  std::vector<LockName> Locks;
};

} // namespace lockin

#endif // LOCKIN_INFER_LOCKSET_H
