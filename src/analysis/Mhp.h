//===--- Mhp.h - May-happen-in-parallel analysis ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// May-happen-in-parallel (MHP) analysis over the language's fork-join
/// concurrency: `spawn f(...)` creates a thread per dynamic execution of
/// the site, and every spawned thread is joined only when main returns.
/// That join-at-exit discipline makes thread lifetimes maximal, so MHP
/// reduces to three questions the analysis answers statically:
///
///   1. which abstract threads exist (one per static spawn site, plus the
///      main thread), and which functions each may execute — per-thread
///      call-only reachability closures;
///   2. for a statement executing in the main thread, which spawn sites
///      may already have fired when it runs — a forward interprocedural
///      "spawn-sites-before" fixpoint over the structural IR, seeded
///      through the Tarjan condensation's bottom-up schedule (SpawnsIn);
///   3. which spawn sites may create two simultaneously-live threads —
///      loop-contained sites, sites in functions invoked more than once
///      (statically, recursively, or from multiply-executed callers), and
///      sites whose owner runs in more than one thread.
///
/// Queries are conservative (may-analysis): a `true` answer means some
/// interleaving may co-schedule the two statements; `false` is a proof of
/// never-parallel, which is what the lock-elision client requires.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_ANALYSIS_MHP_H
#define LOCKIN_ANALYSIS_MHP_H

#include "analysis/CallGraph.h"
#include "ir/Ir.h"

#include <unordered_map>
#include <vector>

namespace lockin {
namespace analysis {

/// One static `spawn` statement. Site ids are dense and deterministic
/// (module function order, then structural statement order).
struct SpawnSite {
  const ir::SpawnIrStmt *Stmt = nullptr;
  const ir::IrFunction *Owner = nullptr; ///< function containing the spawn
  unsigned Id = 0;
  bool InLoop = false; ///< lexically inside a While in Owner
};

/// Built once per module on top of an existing CallGraph; all queries are
/// table lookups over small per-site bitmaps afterwards.
class MhpAnalysis {
public:
  MhpAnalysis(const ir::IrModule &M, const CallGraph &CG);

  unsigned numSpawnSites() const {
    return static_cast<unsigned>(Sites.size());
  }
  const SpawnSite &spawnSite(unsigned Id) const { return Sites[Id]; }

  /// True if \p F may execute at all (reachable from main through calls
  /// and spawns).
  bool reachable(const ir::IrFunction *F) const;

  /// True if \p F may execute on the main thread (call-only closure).
  bool inMainThread(const ir::IrFunction *F) const;

  /// Bitmap over spawn-site ids: the spawned threads on which \p F may
  /// execute.
  const std::vector<char> &spawnedThreadsOf(const ir::IrFunction *F) const;

  /// May two distinct dynamic instances of the thread spawned at \p Site
  /// be live simultaneously?
  bool multiSpawned(unsigned Site) const { return SiteMulti[Site]; }

  /// May the statements \p A and \p B execute concurrently (on two
  /// different threads, or on two live instances of the same spawned
  /// thread)? Statements identify themselves; ownership is resolved via
  /// the per-thread closures, so a statement in a function reachable from
  /// several threads is considered in every one of them.
  bool mayHappenInParallel(const ir::IrStmt *A, const ir::IrStmt *B) const;

  /// May two dynamic executions of \p S overlap? (Self-MHP: the statement
  /// lives in a function running on two simultaneously-live threads.)
  bool selfParallel(const ir::IrStmt *S) const {
    return mayHappenInParallel(S, S);
  }

  /// Function-granularity projection of the statement query: may any
  /// statement of \p F run concurrently with any statement of \p G?
  bool functionsConcurrent(const ir::IrFunction *F,
                           const ir::IrFunction *G) const;

  /// SCC-granularity projection over the call-graph condensation.
  bool sccsConcurrent(unsigned SccA, unsigned SccB) const;

private:
  struct StmtInfo {
    const ir::IrFunction *Owner = nullptr;
    /// Spawn sites that may have fired before this statement executes on
    /// the main thread (meaningful only when Owner is main-reachable).
    std::vector<char> Before;
  };

  /// One call or spawn statement, with where it sits in its owner.
  struct InvokeSite {
    unsigned Owner, Callee;
    bool InLoop;
  };

  /// Records the statements, spawn sites and call/spawn edges of one
  /// function in one walk of its body.
  void enumerateSites(unsigned OwnerIdx);
  void buildThreadClosures();
  void buildSpawnsIn();
  void buildBeforeSets();
  void buildMultiplicity();
  void walkBefore(const ir::IrStmt *S, unsigned OwnerIdx,
                  std::vector<char> &B);
  static bool unionInto(std::vector<char> &Dst, const std::vector<char> &Src);

  const StmtInfo *infoOf(const ir::IrStmt *S) const;

  const ir::IrModule &Module;
  const CallGraph &CG;

  std::vector<SpawnSite> Sites;
  std::unordered_map<const ir::IrStmt *, unsigned> SiteOf;

  /// Call-only (no spawn edges) direct callees, per function index.
  std::vector<std::vector<unsigned>> CallOnly;
  /// Every call and spawn statement, in walk order.
  std::vector<InvokeSite> Invokes;
  /// Full reachability from main (calls + spawns), per function index.
  std::vector<bool> Live;
  /// Main thread's call-only closure, per function index.
  std::vector<char> MainClosure;
  /// Per spawn site: the spawned thread's call-only closure.
  std::vector<std::vector<char>> ThreadClosure;
  /// Per function index: bitmap of spawn sites whose thread may run it.
  std::vector<std::vector<char>> ThreadsOf;
  /// Per function index: spawn sites that may fire during a call to it
  /// (call-only transitive, computed bottom-up over the condensation).
  std::vector<std::vector<char>> SpawnsIn;
  /// Per function index: spawn sites that may have fired before entry to
  /// some main-thread call of it.
  std::vector<std::vector<char>> EntryBefore;
  /// Per spawn site: the site itself plus every site transitively firable
  /// by the spawned thread or its descendants.
  std::vector<std::vector<char>> SpawnDesc;
  /// Per spawn site: may two instances of this thread be live at once?
  std::vector<char> SiteMulti;
  /// Per function index: union of Before over the function's statements.
  std::vector<std::vector<char>> FuncBefore;

  std::unordered_map<const ir::IrStmt *, StmtInfo> Stmts;
  std::vector<char> EmptySites;
  bool WidenedEntry = false;
};

} // namespace analysis
} // namespace lockin

#endif // LOCKIN_ANALYSIS_MHP_H
