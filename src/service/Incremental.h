//===--- Incremental.h - Cache-backed incremental analysis ------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's analysis engine. An `analyze` request re-runs the cheap
/// front half of the pipeline (parse → sema → lower → call graph →
/// points-to), fingerprints the module (service/Fingerprint.h), and then
/// serves every atomic section whose content-hash key is resident in the
/// SummaryCache without re-running the lock inference. Only cache misses
/// are re-analyzed, batched through InferenceOptions::OnlySections so one
/// summary store is shared across the batch.
///
/// Per-unit snapshots (function-name → body hash and the section keys of
/// the previous analyze of that unit) drive the dirty accounting: a
/// changed function seeds its SCC and CallGraph::upwardClosure expands to
/// every caller SCC; the sections whose key the snapshot does not hold
/// are the expected re-analysis set (on a warm cache, exactly the
/// misses) — surfaced in the outcome so tests and clients can verify the
/// invalidation rule.
///
/// Identical resubmits skip the pipeline. A snapshot also keeps the exact
/// source bytes, k and report of the analyze that published it. Section
/// keys are a pure function of (source, k), so a plain request (no force,
/// run or check) with the same k and byte-equal source only probes the
/// snapshot's keys in the cache: if all are resident it returns the
/// stored report — the outcome the full path would compute, with every
/// section a hit. If any key was evicted it falls through to the full
/// path, which reuses the probe's hits so each key is looked up once.
///
/// Everything here is re-entrant; one analyzer may serve concurrent
/// requests from the daemon's worker pool.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_INCREMENTAL_H
#define LOCKIN_SERVICE_INCREMENTAL_H

#include "infer/SummaryCache.h"
#include "interp/Interp.h"
#include "obs/RequestTelemetry.h"
#include "service/Json.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace service {

struct AnalyzeParams {
  unsigned K = 3;
  unsigned Jobs = 1;
  /// Skip cache lookups (still refreshes entries) — a client-forced cold
  /// run.
  bool Force = false;
  /// Execute the transformed program after analysis. Runs force a full
  /// (uncached) inference: the interpreter needs live LockSets, which
  /// cache entries (rendered text) cannot provide.
  bool Run = false;
  AtomicMode RunMode = AtomicMode::Inferred;
  /// Run the concurrency checker and return its JSON report. Check runs
  /// need the live InferenceResult, so a cache-served analysis cannot
  /// satisfy them — but the rendered report itself is cached per unit,
  /// keyed by the module fingerprint: an unchanged module serves the
  /// previous check verbatim (and the summary path stays warm).
  bool Check = false;
  /// InferenceOptions::ElideNeverParallel for check/run requests.
  bool ElideNeverParallel = false;
  /// Deterministic scheduling knobs forwarded to the checked interpreter
  /// (mirrors the tool's --inject-yields / --yield-seed).
  bool InjectYields = false;
  uint64_t YieldSeed = 1;
  /// Cooperative cancellation: checked between pipeline phases and
  /// between re-analysis batches. An obs::nowNs() time; 0 = no deadline.
  uint64_t DeadlineNs = 0;
  /// Request-scoped telemetry carrier (null = untelemetered). The
  /// analyzer brackets its pipeline stages (parse, fingerprint, analyze,
  /// render) with PhaseScopes on this context; the server rolls the
  /// spans up when the request completes. Ignored in LOCKIN_OBS=OFF
  /// builds — the bracketing sites compile out.
  obs::RequestContext *Telemetry = nullptr;
};

struct AnalyzeOutcome {
  bool Ok = false;
  bool TimedOut = false;
  std::string Error;

  /// Byte-identical to Compilation::report() of a cold run.
  std::string Report;

  unsigned Sections = 0;
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  /// Section ids actually re-analyzed this request (== misses).
  std::vector<uint32_t> Reanalyzed;
  /// Served from the unit snapshot: an identical resubmit whose sections
  /// were all resident, answered without parsing or rendering.
  bool FromSnapshot = false;

  /// Dirty-SCC accounting vs the unit's previous snapshot.
  bool HadSnapshot = false;
  unsigned DirtyFunctions = 0;
  unsigned DirtySccs = 0;
  /// Sections whose key the previous snapshot does not hold — the
  /// predicted re-analysis set: an edit inside a section, an edit to its
  /// function outside every section, or an edit in its callee closure.
  std::vector<uint32_t> DirtyConeSections;

  /// Checker results when AnalyzeParams::Check was set.
  bool Checked = false;        ///< the checker actually ran this request
  bool CheckCacheHit = false;  ///< served from the per-unit check cache
  Json CheckJson;              ///< CheckReport::toJson(unit)
  unsigned CheckFindings = 0;
  uint64_t CheckMhpPairs = 0;
  unsigned CheckElided = 0;

  /// Interpreter results when AnalyzeParams::Run was set.
  bool RanProgram = false;
  bool RunOk = false;
  std::string RunError;
  int64_t MainResult = 0;
  uint64_t TotalSteps = 0;
};

/// See file comment. Owns the per-unit snapshots; shares (does not own)
/// the summary cache.
class IncrementalAnalyzer {
public:
  explicit IncrementalAnalyzer(SummaryCache &Cache) : Cache(Cache) {}

  AnalyzeOutcome analyze(const std::string &Unit, const std::string &Source,
                         const AnalyzeParams &Params);

  /// Drops the unit's snapshot and evicts its cached section summaries.
  /// Returns true if the unit was known.
  bool invalidateUnit(const std::string &Unit);

  /// Drops every snapshot and the whole cache.
  void invalidateAll();

  size_t numUnits() const;
  /// Requests answered from a unit snapshot (AnalyzeOutcome::FromSnapshot).
  uint64_t resubmitsServed() const {
    return Resubmits.load(std::memory_order_relaxed);
  }
  SummaryCache &cache() { return Cache; }

private:
  /// What the last successful analyze of a unit left behind. Immutable
  /// once published, so readers use it outside SnapshotsMu.
  struct Snapshot {
    std::unordered_map<std::string, uint64_t> FunctionHashes;
    std::vector<uint64_t> SectionKeys; ///< indexed by section id
    std::string Source;                ///< exact bytes that were analyzed
    unsigned K = 0;
    std::string Report;
  };

  std::shared_ptr<const Snapshot> snapshotOf(const std::string &Unit) const;

  /// Cached check report for one unit: valid while the module fingerprint
  /// (every function body + every SCC's region signature + k + the
  /// elision flag) is unchanged.
  struct CheckEntry {
    uint64_t Fingerprint = 0;
    Json Report;
    unsigned Findings = 0;
    uint64_t MhpPairs = 0;
    unsigned Elided = 0;
  };

  SummaryCache &Cache;
  // Separate mutex domains: snapshot publication, check-report caching,
  // and the (itself sharded) summary cache never serialize each other —
  // a check-heavy tenant cannot block another tenant's snapshot reads.
  mutable std::mutex SnapshotsMu; // guards the Snapshots map only
  mutable std::mutex CheckMu;     // guards CheckEntries only
  std::unordered_map<std::string, std::shared_ptr<const Snapshot>> Snapshots;
  std::unordered_map<std::string, CheckEntry> CheckEntries;
  std::atomic<uint64_t> Resubmits{0};
};

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_INCREMENTAL_H
