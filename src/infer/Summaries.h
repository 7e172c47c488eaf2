//===--- Summaries.h - Function summaries and the SCC fixpoint --*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural half of the §4.3 analysis: FunctionSummary storage
/// (f_s : LockName -> {LockName} plus the per-function "own accesses"
/// G-set), the map/unmap discipline at call boundaries, and the fixpoint
/// that makes summaries exact.
///
/// The fixpoint is scheduled by the call graph's SCC condensation instead
/// of the seed's whole-program re-iteration loop:
///
///  - Summaries live in per-SCC stores. A function in a non-recursive
///    (trivial) SCC is summarized exactly once: every callee lies in a
///    strictly lower SCC whose entries are already final, so the first
///    evaluation is exact and the entry is published as final immediately.
///  - A recursive SCC runs a local worklist fixpoint: the demanded entries
///    of that SCC are re-evaluated (reading monotonically growing
///    same-SCC entries and final lower-SCC entries) until none changes,
///    then all of them are published as final. Later demands for new locks
///    in the same SCC start fresh local fixpoints; already-final entries
///    are immutable and stay valid.
///
/// Publication discipline (the parallel determinism argument): an entry is
/// mutated only while its SCC's mutex is held, and a reference to a
/// non-final entry never escapes a frame that holds that mutex. Every
/// entry a caller can observe after summary()/ownLocks() returns is final
/// and immutable. Final values are least fixpoints of a monotone equation
/// system over a join-semilattice, which are unique regardless of
/// evaluation order or thread interleaving — hence serial and parallel
/// runs produce identical lock sets.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INFER_SUMMARIES_H
#define LOCKIN_INFER_SUMMARIES_H

#include "analysis/CallGraph.h"
#include "infer/LockSet.h"
#include "infer/Transfer.h"
#include "ir/Ir.h"
#include "pointsto/Steensgaard.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

namespace lockin {

/// True if \p Path is rooted in (or indexes through) a variable owned by
/// \p F; such paths are not expressible in F's callers and must coarsen
/// when unmapped out of F.
bool lockPathRootedIn(const LockExpr &Path, const ir::IrFunction *F);

/// Evaluates one function body: the locks needed at F's entry given the
/// locks \p Exit needed at its exit. Implemented by LockInference (the
/// structural backward walk); must be safe to call from worker threads.
class SummaryBodyEvaluator {
public:
  virtual ~SummaryBodyEvaluator() = default;
  virtual LockSet evaluateEntry(const ir::IrFunction *F,
                                const LockSet &Exit) = 0;
};

/// Counters the pass manager surfaces via --stats.
struct SummaryStats {
  uint64_t Entries = 0;          ///< distinct (function, lock) + own entries
  uint64_t Evaluations = 0;      ///< body evaluations (seed: per round per key)
  uint64_t SccFixpointRounds = 0;///< re-evaluation rounds in recursive SCCs
  uint64_t FinalHits = 0;        ///< queries answered by a final entry
  uint64_t PeakEntryLocks = 0;   ///< largest summary lock set seen
  uint64_t Deduped = 0;          ///< final entries sharing another's lock set
};

/// Whole-program summary store, scheduled by the SCC condensation.
/// Thread-safe: any thread may query any function; see the publication
/// discipline above.
class FunctionSummaries {
public:
  /// Final entries with structurally identical lock sets share one
  /// published object behind a content hash. Sharing never changes a
  /// returned set's value (the shared object is element-wise equal to the
  /// one it replaces); it only drops duplicate storage.
  FunctionSummaries(const ir::IrModule &M, const analysis::CallGraph &CG,
                    const TransferContext &Ctx, SummaryBodyEvaluator &Eval,
                    unsigned MaxSccRounds);

  /// Locks needed at F's entry (in F's naming) to cover \p L at F's exit.
  /// The returned set is final and immutable unless the query is re-entered
  /// from inside F's own SCC evaluation (recursion), where the current
  /// partial value is returned exactly as the seed's in-progress guard did.
  const LockSet &summary(const ir::IrFunction *F, const LockName &L);

  /// Locks needed at F's entry to protect every access F and its callees
  /// perform (the G-set part of the call transfer).
  const LockSet &ownLocks(const ir::IrFunction *F);

  /// Regions possibly written by F or its transitive callees; computed
  /// eagerly bottom-up over the condensation (read-only afterwards).
  const std::set<RegionId> &writeRegions(const ir::IrFunction *F) const;

  /// Rewrites \p L backward through the parameter bindings p_i = a_i of
  /// \p Call and coarsens locks still rooted in callee-local state.
  void unmapLock(const LockName &L, const ir::CallStmt *Call,
                 LockSet &Out) const;

  /// Evaluates ownLocks for every member of \p Scc (the bottom-up prewarm
  /// phase). Callee SCCs must already be prewarmed or final on demand.
  void prewarmScc(unsigned Scc);

  /// Aggregated counters (takes each SCC's mutex; call after analysis).
  SummaryStats stats() const;

private:
  struct Key {
    const ir::IrFunction *F;
    bool Own; ///< true: the G-set entry; L is ignored
    LockName L;
    bool operator==(const Key &O) const {
      return F == O.F && Own == O.Own && (Own || L == O.L);
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const void *>()(K.F);
      return K.Own ? ~H : H ^ K.L.hash();
    }
  };
  struct Entry {
    /// Working value while the entry is being computed. Cleared at
    /// publication when the final value is shared with another entry.
    LockSet Locks;
    /// The published, immutable value; non-null exactly when Final. May
    /// point at another entry's identical set (dedup).
    std::shared_ptr<const LockSet> Published;
    bool Final = false;
    bool InProgress = false;
  };
  struct SccState {
    /// Recursive: evaluating an entry demands other entries of the same
    /// SCC while the lock is already held.
    std::recursive_mutex M;
    std::unordered_map<Key, Entry, KeyHash> Entries;
    /// Non-final keys awaiting the local fixpoint, in demand order.
    std::vector<Key> Pending;
    /// Re-entrancy depth of query() on this SCC for the lock-holding
    /// thread; the outermost frame runs the fixpoint.
    unsigned EvalDepth = 0;
    /// True while the local fixpoint loop is draining Pending; new keys
    /// demanded meanwhile are appended to Pending instead of starting a
    /// nested fixpoint.
    bool InFixpoint = false;
    // Local counters, merged by stats().
    uint64_t Evaluations = 0;
    uint64_t FixpointRounds = 0;
    uint64_t FinalHits = 0;
    uint64_t PeakEntryLocks = 0;
  };

  const LockSet &query(Key K);
  LockSet evaluate(SccState &S, const Key &K);
  /// Marks \p E final, moving its locks into shared storage (reusing an
  /// identical published set if there is one).
  void publish(Entry &E);

  const ir::IrModule &Module;
  const analysis::CallGraph &CG;
  const TransferContext &Ctx;
  SummaryBodyEvaluator &Eval;
  const unsigned MaxSccRounds;

  std::vector<std::unique_ptr<SccState>> Sccs; // indexed by SCC id
  std::unordered_map<const ir::IrFunction *, std::set<RegionId>>
      WriteRegions;

  /// Published-set dedup table, keyed by an order-sensitive content hash
  /// (identical cones produce their locks in identical order, so ordered
  /// equality is enough and cheap). Guarded by its own mutex; always
  /// acquired after an SCC mutex, never the other way around.
  mutable std::mutex DedupMu;
  std::unordered_map<size_t, std::vector<std::shared_ptr<const LockSet>>>
      DedupTable;
  uint64_t DedupHits = 0;
};

} // namespace lockin

#endif // LOCKIN_INFER_SUMMARIES_H
