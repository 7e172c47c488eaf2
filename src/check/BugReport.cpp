//===--- BugReport.cpp - Concurrency-bug findings and reports ------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "check/BugReport.h"

#include <algorithm>

using namespace lockin;
using namespace lockin::check;
using support::Json;

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

/// A SARIF message object.
Json text(std::string S) {
  return Json::object({{"text", Json::string(std::move(S))}});
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

Json CheckReport::toJson(const std::string &Artifact) const {
  Json List = Json::array();
  for (const Finding &F : Findings) {
    Json Locations = Json::array();
    for (const FindingSite &S : F.Sites)
      Locations.push(Json::object({{"function", Json::string(S.Function)},
                                   {"line", Json::integer(S.Loc.Line)},
                                   {"column", Json::integer(S.Loc.Col)},
                                   {"role", Json::string(S.Role)}}));
    Json &Item = List.push(
        Json::object({{"kind", Json::string(findingKindId(F.Kind))},
                      {"level", Json::string(findingKindLevel(F.Kind))},
                      {"message", Json::string(F.Message)},
                      {"locks", Json::string(F.LockSignature)}}));
    Item.set("locations", std::move(Locations));
  }
  Json Report = Json::object(
      {{"tool", Json::string("lockin-check")},
       {"module", Json::string(Artifact)},
       {"summary",
        Json::object(
            {{"findings", Json::uinteger(Findings.size())},
             {"sections", Json::integer(Stats.Sections)},
             {"elidedSections", Json::integer(Stats.ElidedSections)},
             {"bareAccesses", Json::integer(Stats.BareAccesses)},
             {"spawnSites", Json::integer(Stats.SpawnSites)},
             {"mhpPairs", Json::uinteger(Stats.MhpPairs)}})}});
  Report.set("findings", std::move(List));
  return Report;
}

Json CheckReport::toSarif(const std::string &Artifact) const {
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

  Json Rules = Json::array();
  for (size_t I = 0; I < 4; ++I)
    Rules.push(Json::object({{"id", Json::string(findingKindId(Kinds[I]))},
                             {"shortDescription", text(Descriptions[I])}}));
  Json Results = Json::array();
  for (const Finding &F : Findings) {
    Json Locations = Json::array();
    for (const FindingSite &S : F.Sites) {
      unsigned Line = S.Loc.isValid() ? S.Loc.Line : 1u;
      unsigned Col = S.Loc.isValid() ? S.Loc.Col : 1u;
      Locations.push(Json::object(
          {{"physicalLocation",
            Json::object(
                {{"artifactLocation",
                  Json::object({{"uri", Json::string(Artifact)}})},
                 {"region", Json::object({{"startLine", Json::integer(Line)},
                                          {"startColumn",
                                           Json::integer(Col)}})}})},
           {"message", text(S.Role)}}));
    }
    Json &Result = Results.push(Json::object(
        {{"ruleId", Json::string(findingKindId(F.Kind))},
         {"ruleIndex", Json::integer(static_cast<unsigned>(F.Kind))},
         {"level", Json::string(findingKindLevel(F.Kind))},
         {"message", text(F.Message)}}));
    Result.set("locations", std::move(Locations));
    Result.set("properties",
               Json::object({{"locks", Json::string(F.LockSignature)}}));
  }

  Json Driver = Json::object(
      {{"name", Json::string("lockin-check")},
       {"informationUri", Json::string("https://example.invalid/lockin")},
       {"rules", std::move(Rules)}});
  Json Run = Json::object({{"tool", Json::object({{"driver", Driver}})}});
  Run.set("results", std::move(Results));
  Json Log = Json::object(
      {{"$schema",
        Json::string("https://json.schemastore.org/sarif-2.1.0.json")},
       {"version", Json::string("2.1.0")}});
  Log.set("runs", Json::array()).push(std::move(Run));
  return Log;
}
