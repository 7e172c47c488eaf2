//===--- BugReport.h - Concurrency-bug findings and reports -----*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker's report layer: `Finding` (one concurrency bug),
/// `BugReportMgr` (dedup by (kind, location set, lock-path signature) and
/// severity ranking), and `CheckReport` (the finished, deterministic
/// report with JSON and SARIF 2.1.0 renderers).
///
/// Both reports are support::Json values with insertion-ordered members:
/// the same module always produces byte-identical text, which is what the
/// golden tests and the service's warm-cache byte-identity contract rely
/// on. The daemon embeds the same value in its `check` responses.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_CHECK_BUGREPORT_H
#define LOCKIN_CHECK_BUGREPORT_H

#include "pointsto/Steensgaard.h"
#include "support/Json.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace lockin {
namespace check {

enum class FindingKind : unsigned char {
  DataRace = 0,          ///< two bare accesses, no protection at all
  LocksetRace = 1,       ///< two sections whose held sets fail to interlock
  AtomicityViolation = 2,///< bare access interleavable with a section
  DeadlockCycle = 3,     ///< cycle in the hypothetical 2PL acquisition order
};

const char *findingKindId(FindingKind K);    ///< "data-race", ...
const char *findingKindLevel(FindingKind K); ///< SARIF level: "error", ...

/// One code location participating in a finding.
struct FindingSite {
  std::string Function;
  SourceLoc Loc;
  std::string Role; ///< e.g. "atomic section #2", "unprotected write"
};

struct Finding {
  FindingKind Kind = FindingKind::DataRace;
  std::string Message;
  std::vector<FindingSite> Sites;
  /// Lock-path signature of the conflicting abstract location(s); part of
  /// the dedup key and rendered for triage.
  std::string LockSignature;
};

/// Collects findings, dedups by (kind, site list, lock signature), and
/// hands back a severity-ranked, deterministically ordered list.
class BugReportMgr {
public:
  void add(Finding F);
  /// Ranked findings: severity first (data-race worst), then location,
  /// then message. Leaves the manager empty.
  std::vector<Finding> take();
  unsigned size() const { return static_cast<unsigned>(Findings.size()); }

private:
  std::vector<Finding> Findings;
  std::vector<std::string> Keys;
};

/// Counters surfaced through --stats, the service metrics, and the
/// report summary.
struct CheckStats {
  unsigned Sections = 0;
  unsigned ElidedSections = 0;
  unsigned BareAccesses = 0;
  unsigned SpawnSites = 0;
  /// Item pairs (sections + bare accesses) that may happen in parallel.
  uint64_t MhpPairs = 0;
  unsigned Findings = 0;
};

/// The finished check: ranked findings plus the projections the fuzz
/// oracle differentially validates against the checking interpreter.
struct CheckReport {
  std::vector<Finding> Findings;
  CheckStats Stats;

  /// Access-model projection: the points-to regions some atomic section
  /// may touch (per its inferred lock set). Every interpreter-observed
  /// protection violation names a region this model must cover.
  bool SectionsCoverAllRegions = false; ///< some section access is ⊤
  std::vector<char> SectionAccessRegions; ///< indexed by RegionId

  bool coversRegion(RegionId R) const {
    return SectionsCoverAllRegions ||
           (R < SectionAccessRegions.size() && SectionAccessRegions[R]);
  }

  /// The JSON report; \p Artifact names the analyzed input.
  support::Json toJson(const std::string &Artifact) const;
  /// SARIF 2.1.0 (loads in standard viewers); \p Artifact becomes the
  /// result locations' artifact URI.
  support::Json toSarif(const std::string &Artifact) const;
  /// The two documents as compact text.
  std::string json(const std::string &Artifact) const {
    return toJson(Artifact).str();
  }
  std::string sarif(const std::string &Artifact) const {
    return toSarif(Artifact).str();
  }
};

} // namespace check
} // namespace lockin

#endif // LOCKIN_CHECK_BUGREPORT_H
