//===--- test_check.cpp - Concurrency checker tests ----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lockin-check subsystem end to end:
///
///  - Golden reports: tests/golden/check_*.atom each exercise one finding
///    kind (data race, atomicity violation, lock-order cycle, clean,
///    elision-eligible); the checker must reproduce the checked-in JSON
///    and SARIF byte for byte, at every --jobs setting.
///  - Byte identity: running the checker, and ElideNeverParallel=off,
///    never change the transformed-program report.
///  - Elision soundness: an elided program still runs clean under the
///    §4.2 checking interpreter across yield schedules, with the same
///    final heap as the global-lock reference.
///  - Checker vs interpreter: every protection violation the checking
///    interpreter observes names a region the checker's section access
///    model covers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "check/BugReport.h"
#include "check/Check.h"

#include <gtest/gtest.h>

#include <string>

using namespace lockin;
using namespace lockin::check;
using namespace lockin::test;

namespace {

std::unique_ptr<Compilation> compileChecked(const std::string &Source,
                                            bool Elide = false,
                                            unsigned Jobs = 0) {
  CompileOptions Options;
  Options.Check = true;
  Options.ElideNeverParallel = Elide;
  Options.Jobs = Jobs;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  EXPECT_TRUE(C->ok()) << C->diagnostics().str();
  EXPECT_NE(C->checkReport(), nullptr);
  return C;
}

struct GoldenCase {
  const char *Name;
  bool Elide;
};

const GoldenCase GoldenCases[] = {
    {"check_race", false},     {"check_atomicity", false},
    {"check_deadlock", false}, {"check_clean", false},
    {"check_elide", true},
};

} // namespace

TEST(Check, GoldenJsonAndSarif) {
  for (const GoldenCase &Case : GoldenCases) {
    std::string Source = readFile(goldenDir() + Case.Name + ".atom");
    std::string Json = readFile(goldenDir() + Case.Name + ".check.json");
    std::string Sarif = readFile(goldenDir() + Case.Name + ".check.sarif");
    std::string Artifact = std::string(Case.Name) + ".atom";
    for (unsigned Jobs : {1u, 2u, 4u}) {
      std::unique_ptr<Compilation> C =
          compileChecked(Source, Case.Elide, Jobs);
      EXPECT_EQ(C->checkReport()->json(Artifact) + "\n", Json)
          << Case.Name << " json, jobs=" << Jobs;
      EXPECT_EQ(C->checkReport()->sarif(Artifact) + "\n", Sarif)
          << Case.Name << " sarif, jobs=" << Jobs;
    }
  }
}

TEST(Check, FindingKinds) {
  auto kinds = [](const CheckReport &R) {
    std::string Out;
    for (const Finding &F : R.Findings)
      Out += std::string(findingKindId(F.Kind)) + ";";
    return Out;
  };
  std::unique_ptr<Compilation> C =
      compileChecked(readFile(goldenDir() + "check_race.atom"));
  EXPECT_EQ(kinds(*C->checkReport()), "data-race;");

  C = compileChecked(readFile(goldenDir() + "check_atomicity.atom"));
  EXPECT_EQ(kinds(*C->checkReport()),
            "atomicity-violation;atomicity-violation;");

  C = compileChecked(readFile(goldenDir() + "check_deadlock.atom"));
  EXPECT_EQ(kinds(*C->checkReport()), "deadlock-cycle;");

  C = compileChecked(readFile(goldenDir() + "check_clean.atom"));
  EXPECT_TRUE(C->checkReport()->Findings.empty());
}

TEST(Check, SeverityRanking) {
  // A program with both an atomicity violation and a data race: the race
  // (error) must rank ahead of the violation (warning).
  const char *Source = R"(
    int a;
    int b;
    void wa() { a = a + 1; }
    void wb() { b = b + 1; }
    int main() {
      spawn wa();
      spawn wa();
      spawn wb();
      atomic { b = b + 2; }
      return 0;
    }
  )";
  std::unique_ptr<Compilation> C = compileChecked(Source);
  const CheckReport &R = *C->checkReport();
  ASSERT_GE(R.Findings.size(), 2u);
  EXPECT_EQ(R.Findings[0].Kind, FindingKind::DataRace);
  for (size_t I = 1; I < R.Findings.size(); ++I)
    EXPECT_LE(static_cast<unsigned>(R.Findings[I - 1].Kind),
              static_cast<unsigned>(R.Findings[I].Kind));
}

TEST(Check, DedupByKindSitesAndLocks) {
  BugReportMgr Mgr;
  Finding F;
  F.Kind = FindingKind::DataRace;
  F.Message = "m";
  F.Sites.push_back({"f", SourceLoc{3, 1}, "unprotected write"});
  F.LockSignature = "sig";
  Mgr.add(F);
  Mgr.add(F); // identical key: dropped
  F.Message = "different message, same key";
  Mgr.add(F); // message is not part of the key: still dropped
  EXPECT_EQ(Mgr.size(), 1u);
  F.LockSignature = "other";
  Mgr.add(F);
  EXPECT_EQ(Mgr.size(), 2u);
}

TEST(Check, ByteIdentityWithCheckAndElideOff) {
  // Running the checker must not perturb the report; ElideNeverParallel
  // off is the default and must be byte-identical at every jobs setting.
  for (const GoldenCase &Case : GoldenCases) {
    std::string Source = readFile(goldenDir() + Case.Name + ".atom");
    std::unique_ptr<Compilation> Base = compileOk(Source);
    for (unsigned Jobs : {1u, 2u, 4u}) {
      std::unique_ptr<Compilation> C = compileChecked(Source, false, Jobs);
      EXPECT_EQ(C->report(), Base->report())
          << Case.Name << " jobs=" << Jobs;
    }
  }
}

TEST(Check, ElisionMarksOnlyNeverParallelSections) {
  std::unique_ptr<Compilation> C =
      compileChecked(readFile(goldenDir() + "check_elide.atom"), true);
  EXPECT_EQ(C->inference().elidedCount(), 1u);
  EXPECT_TRUE(C->inference().sectionElided(0));
  EXPECT_NE(C->transformedText().find("[elided: never-parallel]"),
            std::string::npos);

  // Sections with may-parallel conflicts keep their acquisition.
  C = compileChecked(readFile(goldenDir() + "check_clean.atom"), true);
  EXPECT_EQ(C->inference().elidedCount(), 0u);
}

TEST(Check, ElidedProgramRunsCleanAndHeapEquivalent) {
  std::string Source = readFile(goldenDir() + "check_elide.atom");

  InterpOptions Ref;
  Ref.Mode = AtomicMode::GlobalLock;
  Ref.FingerprintHeap = true;
  std::unique_ptr<Compilation> Base = compileOk(Source);
  InterpResult RefResult = Base->run(Ref);
  ASSERT_TRUE(RefResult.Ok) << RefResult.Error;

  std::unique_ptr<Compilation> C = compileChecked(Source, true);
  for (uint64_t Seed : {1ull, 7ull, 101ull}) {
    InterpOptions Opt;
    Opt.Mode = AtomicMode::Inferred;
    Opt.Checked = true;
    Opt.InjectYields = true;
    Opt.YieldSeed = Seed;
    Opt.FingerprintHeap = true;
    InterpResult R = C->run(Opt);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    EXPECT_EQ(R.MainResult, RefResult.MainResult);
    EXPECT_EQ(R.HeapFingerprint, RefResult.HeapFingerprint)
        << "seed " << Seed;
  }
}

TEST(Check, CoversInterpreterObservedViolation) {
  // AtomicMode::None faults on the first shared access inside a section;
  // the faulted region must be part of the checker's access model.
  std::string Source = readFile(goldenDir() + "check_atomicity.atom");
  std::unique_ptr<Compilation> C = compileChecked(Source);

  InterpOptions Opt;
  Opt.Mode = AtomicMode::None;
  Opt.Checked = true;
  InterpResult R = C->run(Opt);
  ASSERT_FALSE(R.Ok);
  ASSERT_NE(R.Error.find("protection violation"), std::string::npos)
      << R.Error;
  size_t Pos = R.Error.find("in region ");
  ASSERT_NE(Pos, std::string::npos) << R.Error;
  unsigned Region = std::stoul(R.Error.substr(Pos + 10));
  EXPECT_TRUE(C->checkReport()->coversRegion(Region))
      << "checker misses interpreter-observed region " << Region;
}

TEST(Check, PassTimingsRecorded) {
  std::unique_ptr<Compilation> C =
      compileChecked(readFile(goldenDir() + "check_clean.atom"));
  const PipelineStats &S = C->pipelineStats();
  for (const char *Pass :
       {"check-mhp", "check-lockset", "check-order", "check-report"}) {
    bool Found = false;
    for (const PassTiming &T : S.Passes)
      Found |= T.Name == Pass;
    EXPECT_TRUE(Found) << "missing pass " << Pass;
  }
  EXPECT_TRUE(S.HasCheck);
  EXPECT_NE(S.renderStats().find("; check:"), std::string::npos);
}
