//===--- BugReport.cpp - Concurrency-bug findings and reports ------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "check/BugReport.h"

#include "support/JsonString.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace lockin;
using namespace lockin::check;

const char *check::findingKindId(FindingKind K) {
  switch (K) {
  case FindingKind::DataRace:
    return "data-race";
  case FindingKind::LocksetRace:
    return "lockset-race";
  case FindingKind::AtomicityViolation:
    return "atomicity-violation";
  case FindingKind::DeadlockCycle:
    return "deadlock-cycle";
  }
  return "unknown";
}

const char *check::findingKindLevel(FindingKind K) {
  switch (K) {
  case FindingKind::DataRace:
  case FindingKind::LocksetRace:
    return "error";
  case FindingKind::AtomicityViolation:
    return "warning";
  case FindingKind::DeadlockCycle:
    // The deployed protocol (acquireAll) takes every lock atomically, so
    // order cycles are latent, not reachable — worth noting, not fixing.
    return "note";
  }
  return "none";
}

namespace {

std::string dedupKey(const Finding &F) {
  std::string Key = findingKindId(F.Kind);
  std::vector<std::string> Sites;
  for (const FindingSite &S : F.Sites)
    Sites.push_back(S.Function + "@" + S.Loc.str());
  std::sort(Sites.begin(), Sites.end());
  for (const std::string &S : Sites)
    Key += "|" + S;
  Key += "|" + F.LockSignature;
  return Key;
}

/// \p S as a quoted JSON string literal.
std::string quoted(std::string_view S) {
  std::string Out;
  support::appendJsonString(Out, S);
  return Out;
}

void appendSiteJson(std::ostringstream &Out, const FindingSite &S) {
  Out << "{\"function\":" << quoted(S.Function) << ",\"line\":"
      << S.Loc.Line << ",\"column\":" << S.Loc.Col
      << ",\"role\":" << quoted(S.Role) << "}";
}

} // namespace

void BugReportMgr::add(Finding F) {
  std::string Key = dedupKey(F);
  for (const std::string &K : Keys)
    if (K == Key)
      return;
  Keys.push_back(std::move(Key));
  Findings.push_back(std::move(F));
}

std::vector<Finding> BugReportMgr::take() {
  std::stable_sort(Findings.begin(), Findings.end(),
                   [](const Finding &A, const Finding &B) {
                     if (A.Kind != B.Kind)
                       return static_cast<unsigned>(A.Kind) <
                              static_cast<unsigned>(B.Kind);
                     const SourceLoc &LA =
                         A.Sites.empty() ? SourceLoc() : A.Sites[0].Loc;
                     const SourceLoc &LB =
                         B.Sites.empty() ? SourceLoc() : B.Sites[0].Loc;
                     if (LA.Line != LB.Line)
                       return LA.Line < LB.Line;
                     if (LA.Col != LB.Col)
                       return LA.Col < LB.Col;
                     return A.Message < B.Message;
                   });
  Keys.clear();
  return std::move(Findings);
}

std::string CheckReport::json(const std::string &Artifact) const {
  std::ostringstream Out;
  Out << "{\"tool\":\"lockin-check\",\"module\":" << quoted(Artifact)
      << ",\"summary\":{\"findings\":" << Findings.size()
      << ",\"sections\":" << Stats.Sections
      << ",\"elidedSections\":" << Stats.ElidedSections
      << ",\"bareAccesses\":" << Stats.BareAccesses
      << ",\"spawnSites\":" << Stats.SpawnSites
      << ",\"mhpPairs\":" << Stats.MhpPairs << "},\"findings\":[";
  for (size_t I = 0; I < Findings.size(); ++I) {
    const Finding &F = Findings[I];
    if (I)
      Out << ",";
    Out << "{\"kind\":\"" << findingKindId(F.Kind) << "\",\"level\":\""
        << findingKindLevel(F.Kind) << "\",\"message\":" << quoted(F.Message)
        << ",\"locks\":" << quoted(F.LockSignature) << ",\"locations\":[";
    for (size_t J = 0; J < F.Sites.size(); ++J) {
      if (J)
        Out << ",";
      appendSiteJson(Out, F.Sites[J]);
    }
    Out << "]}";
  }
  Out << "]}";
  return Out.str();
}

std::string CheckReport::sarif(const std::string &Artifact) const {
  // Rules in kind order; results reference them by id and index.
  static const FindingKind Kinds[] = {
      FindingKind::DataRace, FindingKind::LocksetRace,
      FindingKind::AtomicityViolation, FindingKind::DeadlockCycle};
  static const char *Descriptions[] = {
      "Two unprotected accesses to the same abstract location may execute "
      "concurrently with at least one write.",
      "Two atomic sections conflict on an abstract location but hold no "
      "interlocking lock pair.",
      "An access outside every atomic section may interleave with an "
      "atomic section touching the same abstract location.",
      "The hypothetical incremental two-phase acquisition order of the "
      "inferred locks contains a cycle among may-parallel sections."};

  std::ostringstream Out;
  Out << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"lockin-check\",\"informationUri\":"
         "\"https://example.invalid/lockin\",\"rules\":[";
  for (size_t I = 0; I < 4; ++I) {
    if (I)
      Out << ",";
    Out << "{\"id\":\"" << findingKindId(Kinds[I])
        << "\",\"shortDescription\":{\"text\":" << quoted(Descriptions[I])
        << "}}";
  }
  Out << "]}},\"results\":[";
  for (size_t I = 0; I < Findings.size(); ++I) {
    const Finding &F = Findings[I];
    if (I)
      Out << ",";
    Out << "{\"ruleId\":\"" << findingKindId(F.Kind) << "\",\"ruleIndex\":"
        << static_cast<unsigned>(F.Kind) << ",\"level\":\""
        << findingKindLevel(F.Kind) << "\",\"message\":{\"text\":"
        << quoted(F.Message) << "},\"locations\":[";
    for (size_t J = 0; J < F.Sites.size(); ++J) {
      const FindingSite &S = F.Sites[J];
      if (J)
        Out << ",";
      Out << "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":"
          << quoted(Artifact) << "},\"region\":{\"startLine\":"
          << (S.Loc.isValid() ? S.Loc.Line : 1u)
          << ",\"startColumn\":" << (S.Loc.isValid() ? S.Loc.Col : 1u)
          << "}},\"message\":{\"text\":" << quoted(S.Role) << "}}";
    }
    Out << "],\"properties\":{\"locks\":" << quoted(F.LockSignature) << "}}";
  }
  Out << "]}]}";
  return Out.str();
}
