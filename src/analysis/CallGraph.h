//===--- CallGraph.h - Whole-program call graph + SCC schedule --*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit call graph over the IR and its strongly-connected-component
/// condensation. The interprocedural lock inference is summary-based; the
/// condensation gives it a bottom-up (reverse-topological) schedule in
/// which every callee SCC is fully summarized before its callers run, so
/// non-recursive functions are summarized exactly once and only genuine
/// recursion pays for a fixpoint.
///
/// SCC ids are handed out in reverse topological order: for every call
/// edge F -> G with sccOf(F) != sccOf(G), sccOf(G) < sccOf(F). Iterating
/// SCC ids 0..numSccs()-1 therefore *is* the bottom-up schedule, and SCCs
/// sharing a condensation depth are mutually independent (neither reaches
/// the other), which is what the parallel analysis driver exploits.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_ANALYSIS_CALLGRAPH_H
#define LOCKIN_ANALYSIS_CALLGRAPH_H

#include "ir/Ir.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace analysis {

/// Built once per module; all queries are O(1) (mayCall is O(reachable
/// SCCs) on first use per source SCC, then cached).
class CallGraph {
public:
  explicit CallGraph(const ir::IrModule &M);

  //===--------------------------------------------------------------------===//
  // Function nodes
  //===--------------------------------------------------------------------===//

  unsigned numFunctions() const {
    return static_cast<unsigned>(Funcs.size());
  }
  const ir::IrFunction *function(unsigned Idx) const { return Funcs[Idx]; }
  unsigned indexOf(const ir::IrFunction *F) const {
    return FuncIndex.at(F);
  }

  /// Direct callees of \p FnIdx (call and spawn sites), deduplicated, in
  /// first-occurrence order (deterministic).
  const std::vector<unsigned> &callees(unsigned FnIdx) const {
    return Callees[FnIdx];
  }
  const std::vector<unsigned> &callers(unsigned FnIdx) const {
    return Callers[FnIdx];
  }

  //===--------------------------------------------------------------------===//
  // SCC condensation
  //===--------------------------------------------------------------------===//

  unsigned numSccs() const {
    return static_cast<unsigned>(SccMembers.size());
  }
  unsigned sccOf(unsigned FnIdx) const { return SccId[FnIdx]; }
  unsigned sccOfFunction(const ir::IrFunction *F) const {
    return SccId[indexOf(F)];
  }

  /// Function indices in this SCC, in module order (deterministic).
  const std::vector<unsigned> &sccMembers(unsigned Scc) const {
    return SccMembers[Scc];
  }
  /// Distinct callee SCCs (all with lower ids), deduplicated.
  const std::vector<unsigned> &sccCallees(unsigned Scc) const {
    return SccCalleeSccs[Scc];
  }
  /// Distinct caller SCCs (all with higher ids).
  const std::vector<unsigned> &sccCallers(unsigned Scc) const {
    return SccCallerSccs[Scc];
  }

  /// Condensation depth: 0 for leaf SCCs (no callees), otherwise
  /// 1 + max(depth of callee SCCs). Reaching an SCC strictly increases
  /// depth, so SCCs at equal depth are pairwise unreachable and may be
  /// analyzed concurrently.
  unsigned sccDepth(unsigned Scc) const { return SccDepths[Scc]; }
  unsigned maxDepth() const { return MaxDepth; }

  /// True if the SCC contains a cycle: more than one member, or a single
  /// member that calls itself.
  bool isRecursive(unsigned Scc) const { return SccRecursive[Scc]; }
  bool isRecursiveFunction(const ir::IrFunction *F) const {
    return SccRecursive[SccId[indexOf(F)]];
  }

  /// Transitive may-call: true if some call chain from \p F reaches \p G.
  /// F == G answers true exactly when F can re-enter itself (recursion).
  bool mayCall(const ir::IrFunction *F, const ir::IrFunction *G) const;

  /// The set of functions transitively callable from \p Roots (including
  /// the roots), as a bitmap indexed by function index.
  std::vector<bool>
  reachableClosure(const std::vector<const ir::IrFunction *> &Roots) const;

  /// Dirty-SCC propagation for incremental re-analysis: the SCCs in
  /// \p SeedSccs plus everything that (transitively) calls into them —
  /// the upward cone whose summaries may change when a seed function's
  /// body changes. Returned as a bitmap indexed by SCC id.
  std::vector<char> upwardClosure(const std::vector<unsigned> &SeedSccs) const;

  /// Direct callees of a statement subtree (call and spawn sites), in
  /// first-occurrence order, duplicates included. The graph's own edges
  /// come from it; inference also seeds reachability from atomic-section
  /// bodies with it. A null subtree has none.
  static std::vector<const ir::IrFunction *>
  directCallees(const ir::IrStmt *S);

private:
  void runTarjan();

  std::vector<const ir::IrFunction *> Funcs;
  std::unordered_map<const ir::IrFunction *, unsigned> FuncIndex;
  std::vector<std::vector<unsigned>> Callees;
  std::vector<std::vector<unsigned>> Callers;

  std::vector<unsigned> SccId;                    // per function
  std::vector<std::vector<unsigned>> SccMembers;  // per SCC
  std::vector<std::vector<unsigned>> SccCalleeSccs;
  std::vector<std::vector<unsigned>> SccCallerSccs;
  std::vector<unsigned> SccDepths;
  std::vector<bool> SccRecursive;
  unsigned MaxDepth = 0;

  /// mayCall memo: per source SCC, the bitmap of reachable SCCs
  /// (including itself only when recursive). Built lazily.
  mutable std::vector<std::vector<bool>> ReachMemo;
};

} // namespace analysis
} // namespace lockin

#endif // LOCKIN_ANALYSIS_CALLGRAPH_H
