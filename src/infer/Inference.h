//===--- Inference.h - Lock inference for atomic sections -------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (§4): a whole-program backward
/// dataflow analysis that computes, for every atomic section, a set of
/// locks N such that acquiring N at the entry of the section protects
/// every shared location the section may access (Theorem 1).
///
/// The analysis runs structurally over the IR: sequences compose transfer
/// functions right to left, branches merge with ⊔, loops iterate to a
/// fixpoint (the k-limited lock domain is finite), and calls are handled
/// with function summaries using the map/unmap discipline of §4.3.
///
/// Interprocedurally the analysis is scheduled by the call graph's SCC
/// condensation (see infer/Summaries.h): callee SCCs are summarized
/// bottom-up before their callers, non-recursive functions exactly once,
/// and independent SCCs concurrently when InferenceOptions::Jobs > 1.
/// Serial and parallel runs produce identical lock sets: every published
/// summary is the least fixpoint of a monotone equation system, which is
/// unique regardless of evaluation order.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INFER_INFERENCE_H
#define LOCKIN_INFER_INFERENCE_H

#include "analysis/CallGraph.h"
#include "infer/LockSet.h"
#include "infer/Summaries.h"
#include "infer/Transfer.h"
#include "ir/Ir.h"
#include "pointsto/Steensgaard.h"

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

namespace lockin {

struct InferenceOptions {
  /// The k of the Σ_k expression-lock component; k = 0 disables fine
  /// tracing entirely (every lock is a region lock), matching the paper's
  /// "Only Coarse" configuration.
  unsigned K = 3;
  /// Safety caps; on overflow the analysis falls back to ⊤ (sound).
  unsigned MaxLoopIterations = 64;
  /// Cap on the per-SCC summary fixpoint rounds (the seed's
  /// MaxSummaryRounds applied per SCC instead of globally).
  unsigned MaxSummaryRounds = 16;
  /// Worker threads for the SCC-scheduled analysis; 0 means
  /// std::thread::hardware_concurrency(). 1 runs fully inline.
  unsigned Jobs = 0;
  /// When non-empty, only these atomic-section ids are analyzed; other
  /// result slots stay default-constructed (null Function, empty Locks).
  /// The incremental service uses this to re-analyze exactly the cache
  /// misses while serving every hit from the content-hashed cache.
  std::vector<uint32_t> OnlySections;
  /// MHP-driven lock elision: after inference, sections proven
  /// never-parallel with every conflicting section and bare access keep
  /// their inferred lock sets for the record but are marked elided — the
  /// runtime acquires nothing for them. Off by default; when off the
  /// result (and every rendered report) is byte-identical to a build
  /// without this option. Ignored for partial runs (OnlySections), which
  /// lack the whole-program view the proof needs.
  bool ElideNeverParallel = false;
};

/// Counters for --stats and the benchmarks; filled by run().
struct InferenceStats {
  SummaryStats Summaries;
  unsigned Functions = 0;
  /// Functions transitively callable from some atomic section (the set
  /// the bottom-up prewarm summarizes).
  unsigned ReachableFunctions = 0;
  unsigned Sccs = 0;
  unsigned RecursiveSccs = 0;
  unsigned CondensationDepth = 0;
  unsigned Sections = 0;
  unsigned JobsUsed = 0;
  /// Interner counters (see LockInterner::Stats): distinct nodes created,
  /// constructions answered by an existing node, and arena payload bytes.
  uint64_t InternerNodes = 0;
  uint64_t InternerHits = 0;
  uint64_t ArenaBytes = 0;
  /// MHP-driven elision (InferenceOptions::ElideNeverParallel): sections
  /// whose locks were elided, and the MHP item pairs the proof examined.
  unsigned ElidedSections = 0;
  uint64_t ElisionMhpPairs = 0;
};

/// Census of inferred locks in the four categories of Figure 7. ⊤ counts
/// as a coarse rw lock.
struct LockCensus {
  unsigned FineRO = 0;
  unsigned FineRW = 0;
  unsigned CoarseRO = 0;
  unsigned CoarseRW = 0;

  unsigned total() const { return FineRO + FineRW + CoarseRO + CoarseRW; }
  bool operator==(const LockCensus &Other) const {
    return FineRO == Other.FineRO && FineRW == Other.FineRW &&
           CoarseRO == Other.CoarseRO && CoarseRW == Other.CoarseRW;
  }
  LockCensus &operator+=(const LockCensus &Other) {
    FineRO += Other.FineRO;
    FineRW += Other.FineRW;
    CoarseRO += Other.CoarseRO;
    CoarseRW += Other.CoarseRW;
    return *this;
  }
};

/// Figure 7 census of one lock set (shared by InferenceResult::census and
/// the incremental summary cache, which stores the census per section so
/// warm responses reproduce the report's census line byte for byte).
LockCensus censusOf(const LockSet &Locks);

/// The per-program analysis output: one lock set per atomic section.
class InferenceResult {
public:
  struct Section {
    uint32_t SectionId = 0;
    const ir::IrFunction *Function = nullptr;
    LockSet Locks;
    /// MHP elision proved this section never runs concurrently with any
    /// conflicting code: the runtime acquires none of Locks for it.
    bool Elided = false;
  };

  const LockSet &sectionLocks(uint32_t SectionId) const {
    return Sections.at(SectionId).Locks;
  }
  bool sectionElided(uint32_t SectionId) const {
    return Sections.at(SectionId).Elided;
  }
  unsigned elidedCount() const {
    unsigned N = 0;
    for (const Section &S : Sections)
      N += S.Elided ? 1 : 0;
    return N;
  }
  const std::vector<Section> &sections() const { return Sections; }

  /// The interner every lock name in this result points into; shared with
  /// clients (the concurrency checker) that build comparable lock names.
  const std::shared_ptr<LockInterner> &interner() const { return Interner; }

  /// Figure 7 census over all sections.
  LockCensus census() const;

  /// Annotation string for the transformed-program printer
  /// (ir::SectionAnnotator).
  std::string annotate(uint32_t SectionId) const {
    const Section &S = Sections.at(SectionId);
    return S.Elided ? S.Locks.str() + " [elided: never-parallel]"
                    : S.Locks.str();
  }

private:
  friend class LockInference;
  std::vector<Section> Sections;
  /// Keeps the interner (and with it every LockPathNode the lock sets
  /// point into) alive for as long as the result is held, even after the
  /// LockInference that produced it is gone.
  std::shared_ptr<LockInterner> Interner;
};

class LockInference : public SummaryBodyEvaluator {
public:
  /// Builds (and owns) a fresh call graph for \p Module.
  LockInference(const ir::IrModule &Module, const PointsToAnalysis &PT,
                InferenceOptions Options = {});
  /// Reuses an externally built call graph (the driver's callgraph pass).
  LockInference(const ir::IrModule &Module, const PointsToAnalysis &PT,
                const analysis::CallGraph &CG,
                InferenceOptions Options = {});

  /// Runs the analysis for every atomic section in the module (or the
  /// subset in InferenceOptions::OnlySections).
  InferenceResult run();

  /// Runs the analysis for exactly \p OnlySections (empty = all). May be
  /// called repeatedly on one instance: the summary store persists across
  /// calls, so later batches reuse summaries computed by earlier ones —
  /// the incremental service's batched re-analysis path.
  InferenceResult run(std::vector<uint32_t> OnlySections) {
    Options.OnlySections = std::move(OnlySections);
    return run();
  }

  /// Counters of the last run().
  const InferenceStats &stats() const { return Stats; }

  /// Exposed for unit tests: locks needed before \p S given locks \p After
  /// needed after it, with an empty exit set.
  LockSet analyzeForTest(const ir::IrStmt *S, const LockSet &After) {
    LockSet Exit;
    return analyze(nullptr, S, After, Exit);
  }

  /// SummaryBodyEvaluator: locks at \p F's entry given \p Exit at its
  /// exit. Called by the summary store, possibly from worker threads.
  LockSet evaluateEntry(const ir::IrFunction *F,
                        const LockSet &Exit) override;

private:
  LockSet analyze(const ir::IrFunction *CurFn, const ir::IrStmt *S,
                  const LockSet &After, const LockSet &ExitSet);
  LockSet transferInst(const ir::InstStmt *St, const LockSet &After);
  LockSet transferCall(const ir::CallStmt *St, const LockSet &After);

  void analyzeSection(InferenceResult &Result, const ir::AtomicIrStmt *A,
                      const ir::IrFunction *F);
  /// InferenceOptions::ElideNeverParallel post-pass (Elision.cpp).
  void elideNeverParallel(InferenceResult &Result);
  void runSerial(const std::vector<char> &WantScc, InferenceResult &Result);
  void runParallel(unsigned Jobs, const std::vector<char> &WantScc,
                   InferenceResult &Result);

  const ir::IrModule &Module;
  /// Declared before Ctx: the context holds a reference into it.
  std::shared_ptr<LockInterner> Interner;
  TransferContext Ctx;
  InferenceOptions Options;
  std::unique_ptr<analysis::CallGraph> OwnedCG;
  const analysis::CallGraph &CG;
  FunctionSummaries Summaries;

  /// Section list in section-id order, filled by run().
  struct SectionTask {
    const ir::AtomicIrStmt *Stmt = nullptr;
    const ir::IrFunction *Function = nullptr;
  };
  std::vector<SectionTask> SectionTasks;

  InferenceStats Stats;
};

} // namespace lockin

#endif // LOCKIN_INFER_INFERENCE_H
