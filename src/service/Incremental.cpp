//===--- Incremental.cpp - Cache-backed incremental analysis --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "service/Incremental.h"

#include "check/Check.h"
#include "driver/Compiler.h"
#include "ir/IrPrinter.h"
#include "service/Fingerprint.h"
#include "service/Hash.h"

#include <algorithm>
#include <optional>

using namespace lockin;
using namespace lockin::service;

namespace {

/// Re-analysis batch size: small enough that deadline checks between
/// batches give real cancellation granularity, large enough that the
/// per-run() scheduling overhead (reachable-closure scan) stays noise.
constexpr size_t ReanalyzeBatch = 16;

bool pastDeadline(const AnalyzeParams &P) {
  return P.DeadlineNs && obs::nowNs() > P.DeadlineNs;
}

AnalyzeOutcome timedOut() {
  AnalyzeOutcome Out;
  Out.TimedOut = true;
  Out.Error = "timeout";
  return Out;
}

/// Per-section results of a cache pass, indexed by section id.
struct CachedSections {
  std::vector<std::shared_ptr<const std::string>> LocksText;
  std::vector<LockCensus> Censuses;
  /// Section ids that were not resident, ascending.
  std::vector<uint32_t> Misses;

  explicit CachedSections(size_t N) : LocksText(N), Censuses(N) {}

  /// Looks every key up (counting each hit or miss once in the cache).
  void lookupAll(SummaryCache &Cache, const std::vector<uint64_t> &Keys) {
    for (uint32_t Id = 0; Id < Keys.size(); ++Id) {
      SectionSummary Hit;
      if (Cache.lookup(Keys[Id], Hit)) {
        LocksText[Id] = std::move(Hit.LocksText);
        Censuses[Id] = Hit.Census;
      } else {
        Misses.push_back(Id);
      }
    }
  }
};

} // namespace

std::shared_ptr<const IncrementalAnalyzer::Snapshot>
IncrementalAnalyzer::snapshotOf(const std::string &Unit) const {
  std::lock_guard<std::mutex> Lock(SnapshotsMu);
  auto It = Snapshots.find(Unit);
  return It == Snapshots.end() ? nullptr : It->second;
}

AnalyzeOutcome IncrementalAnalyzer::analyze(const std::string &Unit,
                                            const std::string &Source,
                                            const AnalyzeParams &Params) {
  obs::RequestContext *Tel = obs::kEnabled ? Params.Telemetry : nullptr;
  std::shared_ptr<const Snapshot> Prev = snapshotOf(Unit);

  // Identical resubmit: the section keys are a pure function of (source,
  // k), so the snapshot's keys are the ones the full path would compute.
  // If all are resident, the full path would hit every section and
  // rebuild the stored report byte for byte; serve it instead. Otherwise
  // the probe's hits carry over so no key is looked up twice.
  std::optional<CachedSections> Probe;
  if (Prev && !Params.Force && !Params.Run && !Params.Check &&
      Prev->K == Params.K && Prev->Source == Source) {
    obs::PhaseScope Scope(Tel, obs::ReqPhase::Analyze);
    Probe.emplace(Prev->SectionKeys.size());
    Probe->lookupAll(Cache, Prev->SectionKeys);
    if (Probe->Misses.empty()) {
      AnalyzeOutcome Out;
      Out.Ok = true;
      Out.Report = Prev->Report;
      Out.Sections = Out.CacheHits =
          static_cast<unsigned>(Prev->SectionKeys.size());
      Out.FromSnapshot = true;
      Out.HadSnapshot = true;
      Resubmits.fetch_add(1, std::memory_order_relaxed);
      return Out;
    }
  }

  // Front half of the pipeline (content hashing needs the normalized IR,
  // the region signature needs points-to).
  std::unique_ptr<Compilation> C;
  {
    obs::PhaseScope Scope(Tel, obs::ReqPhase::Parse);
    CompileOptions Options;
    Options.K = Params.K;
    Options.Jobs = Params.Jobs;
    Options.InferLocks = false;
    C = compile(Source, Options);
  }
  if (!C->ok()) {
    AnalyzeOutcome Out;
    Out.Error = C->diagnostics().str();
    if (Out.Error.empty())
      Out.Error = "compilation failed";
    return Out;
  }
  if (pastDeadline(Params))
    return timedOut();

  const ir::IrModule &Module = C->module();
  const analysis::CallGraph &CG = C->callGraph();
  if (Tel)
    Tel->begin(obs::ReqPhase::Fingerprint);
  ModuleFingerprint FP(Module, CG, C->pointsTo());

  uint32_t NumSections = Module.numAtomicSections();
  std::vector<const ir::IrFunction *> SectionFunctions(NumSections);
  std::vector<uint64_t> Keys(NumSections);
  for (const auto &F : Module.functions()) {
    const auto &Atomics = F->atomicSections();
    for (unsigned Ord = 0; Ord < Atomics.size(); ++Ord) {
      uint32_t Id = Atomics[Ord]->sectionId();
      SectionFunctions[Id] = F.get();
      Keys[Id] = FP.sectionKey(F.get(), Ord, Params.K);
    }
  }

  AnalyzeOutcome Out;
  Out.Sections = NumSections;

  // Dirty accounting against the unit's previous snapshot: functions by
  // body hash (and their upward SCC closure), sections by key.
  if (Prev) {
    Out.HadSnapshot = true;
    std::vector<unsigned> Seeds;
    for (unsigned I = 0; I < CG.numFunctions(); ++I) {
      const ir::IrFunction *F = CG.function(I);
      auto Old = Prev->FunctionHashes.find(F->name());
      if (Old == Prev->FunctionHashes.end() ||
          Old->second != FP.functionHash(I)) {
        ++Out.DirtyFunctions;
        Seeds.push_back(CG.sccOf(I));
      }
    }
    std::vector<char> Cone = CG.upwardClosure(Seeds);
    for (char InCone : Cone)
      if (InCone)
        ++Out.DirtySccs;
    std::vector<uint64_t> OldKeys = Prev->SectionKeys;
    std::sort(OldKeys.begin(), OldKeys.end());
    for (uint32_t Id = 0; Id < NumSections; ++Id)
      if (!std::binary_search(OldKeys.begin(), OldKeys.end(), Keys[Id]))
        Out.DirtyConeSections.push_back(Id);
  }
  // Check-report cache: the report depends on every reachable body, the
  // region numbering, k, and the elision flag — exactly what the module
  // fingerprint components cover. An unchanged module serves the cached
  // JSON without re-running inference or the checker.
  uint64_t CheckFp = 0;
  if (Params.Check) {
    ContentHasher H;
    for (unsigned I = 0; I < CG.numFunctions(); ++I)
      H.u64(FP.functionHash(I));
    for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc)
      H.u64(FP.regionSignature(Scc));
    H.u32(Params.K);
    H.u32(Params.ElideNeverParallel ? 1 : 0);
    CheckFp = H.get();
    if (!Params.Force) {
      std::lock_guard<std::mutex> Lock(CheckMu);
      auto It = CheckEntries.find(Unit);
      if (It != CheckEntries.end() && It->second.Fingerprint == CheckFp) {
        Out.CheckCacheHit = true;
        Out.CheckJson = It->second.Report;
        Out.CheckFindings = It->second.Findings;
        Out.CheckMhpPairs = It->second.MhpPairs;
        Out.CheckElided = It->second.Elided;
      }
    }
  }
  bool NeedChecker = Params.Check && !Out.CheckCacheHit;
  if (Tel)
    Tel->end(obs::ReqPhase::Fingerprint);

  CachedSections Found =
      Probe ? std::move(*Probe) : CachedSections(NumSections);
  {
    obs::PhaseScope Scope(Tel, obs::ReqPhase::Analyze);

    // Cache pass: a run request needs live LockSets for the interpreter,
    // and an uncached check needs the live InferenceResult — both take
    // the uncached path (and refresh the cache). A probed resubmit has
    // already looked every key up.
    if (!Probe) {
      if (Params.Force || Params.Run || NeedChecker) {
        for (uint32_t Id = 0; Id < NumSections; ++Id)
          Found.Misses.push_back(Id);
      } else {
        Found.lookupAll(Cache, Keys);
      }
    }
    const std::vector<uint32_t> &Misses = Found.Misses;
    Out.CacheMisses = static_cast<unsigned>(Misses.size());
    Out.CacheHits = NumSections - Out.CacheMisses;

    InferenceOptions InferOpts;
    InferOpts.K = Params.K;
    InferOpts.Jobs = Params.Jobs;
    InferOpts.ElideNeverParallel = Params.ElideNeverParallel;
    LockInference Inference(Module, C->pointsTo(), CG, InferOpts);

    auto Harvest = [&](const InferenceResult &Result,
                       const std::vector<uint32_t> &Ids) {
      for (uint32_t Id : Ids) {
        const LockSet &Locks = Result.sectionLocks(Id);
        SectionSummary Summary;
        Summary.setText(Locks.str());
        Summary.Census = censusOf(Locks);
        Found.LocksText[Id] = Summary.LocksText;
        Found.Censuses[Id] = Summary.Census;
        Cache.insert(Keys[Id], std::move(Summary));
        Out.Reanalyzed.push_back(Id);
      }
    };

    if (Params.Run || NeedChecker) {
      // Full inference in one shot, then check and/or execute.
      if (pastDeadline(Params))
        return timedOut();
      InferenceResult Result = Inference.run();
      std::vector<uint32_t> All(NumSections);
      for (uint32_t Id = 0; Id < NumSections; ++Id)
        All[Id] = Id;
      Harvest(Result, All);

      if (NeedChecker) {
        check::CheckReport Report = check::Checker::runAll(
            Module, CG, C->pointsTo(), Result, Params.K);
        Out.Checked = true;
        Out.CheckJson = Report.toJson(Unit);
        Out.CheckFindings = Report.Stats.Findings;
        Out.CheckMhpPairs = Report.Stats.MhpPairs;
        Out.CheckElided = Report.Stats.ElidedSections;
        CheckEntry Entry{CheckFp, Out.CheckJson, Out.CheckFindings,
                         Out.CheckMhpPairs, Out.CheckElided};
        std::lock_guard<std::mutex> Lock(CheckMu);
        CheckEntries[Unit] = std::move(Entry);
      }

      if (Params.Run) {
        InterpOptions RunOpts;
        RunOpts.Mode = Params.RunMode;
        RunOpts.InjectYields = Params.InjectYields;
        RunOpts.YieldSeed = Params.YieldSeed;
        InterpResult R =
            interpret(Module, C->pointsTo(), &Result, RunOpts, "main");
        Out.RanProgram = true;
        Out.RunOk = R.Ok;
        Out.RunError = R.Error;
        Out.MainResult = R.MainResult;
        Out.TotalSteps = R.TotalSteps;
      }
    } else {
      // Re-analyze only the misses, in batches with deadline checks. The
      // LockInference instance is reused so summaries computed for one
      // batch warm the next.
      for (size_t Begin = 0; Begin < Misses.size();
           Begin += ReanalyzeBatch) {
        if (pastDeadline(Params))
          return timedOut();
        size_t End = std::min(Misses.size(), Begin + ReanalyzeBatch);
        std::vector<uint32_t> Batch(Misses.begin() + Begin,
                                    Misses.begin() + End);
        InferenceResult Result = Inference.run(Batch);
        Harvest(Result, Batch);
      }
    }
  }

  obs::PhaseScope RenderScope(Tel, obs::ReqPhase::Render);

  // Assemble the report with Compilation::report()'s own trailer.
  Out.Report = ir::printIrModule(Module, [&](uint32_t SectionId) {
    const auto &Text = Found.LocksText[SectionId];
    return Text ? *Text : std::string();
  });
  LockCensus Census;
  for (const LockCensus &C : Found.Censuses)
    Census += C;
  appendReportTrailer(Out.Report, SectionFunctions, Census,
                      [&](uint32_t Id, std::string &Text) {
                        if (Found.LocksText[Id])
                          Text += *Found.LocksText[Id];
                      });

  // Publish the new snapshot.
  {
    auto Snap = std::make_shared<Snapshot>();
    for (unsigned I = 0; I < CG.numFunctions(); ++I)
      Snap->FunctionHashes[CG.function(I)->name()] = FP.functionHash(I);
    Snap->SectionKeys = std::move(Keys);
    Snap->Source = Source;
    Snap->K = Params.K;
    Snap->Report = Out.Report;
    std::lock_guard<std::mutex> Lock(SnapshotsMu);
    Snapshots[Unit] = std::move(Snap);
  }

  Out.Ok = true;
  return Out;
}

bool IncrementalAnalyzer::invalidateUnit(const std::string &Unit) {
  {
    std::lock_guard<std::mutex> Lock(SnapshotsMu);
    auto It = Snapshots.find(Unit);
    if (It == Snapshots.end())
      return false;
    for (uint64_t Key : It->second->SectionKeys)
      Cache.erase(Key);
    Snapshots.erase(It);
  }
  std::lock_guard<std::mutex> Lock(CheckMu);
  CheckEntries.erase(Unit);
  return true;
}

void IncrementalAnalyzer::invalidateAll() {
  {
    std::lock_guard<std::mutex> Lock(SnapshotsMu);
    Snapshots.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(CheckMu);
    CheckEntries.clear();
  }
  Cache.clear();
}

size_t IncrementalAnalyzer::numUnits() const {
  std::lock_guard<std::mutex> Lock(SnapshotsMu);
  return Snapshots.size();
}
