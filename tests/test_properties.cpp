//===--- test_properties.cpp - Cross-cutting analysis properties ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// Property-style sweeps over generated programs, checking invariants the
/// individual unit tests cannot: k-monotonicity of the inferred sets,
/// determinism of the whole pipeline, printer round-trips, and agreement
/// between the analysis and the checking interpreter on every program the
/// synthetic generator produces.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Generator.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "workloads/ToyPrograms.h"

using namespace lockin;
using namespace lockin::test;
using namespace lockin::workloads;

namespace {

/// The sequential program generator now lives in the shared fuzzing
/// library (fuzz/Generator.h) so the differential fuzzer and these
/// property sweeps draw from one grammar; byte-identical output per seed
/// is asserted in test_fuzz.cpp, keeping this file's seed ranges stable.
using fuzz::generateSequentialProgram;

class SequentialSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SequentialSweep, ResultIndependentOfProtection) {
  // The same deterministic program must compute the same value under
  // every protection regime (locks only add exclusion, never semantics).
  std::string Source = generateSequentialProgram(GetParam());
  int64_t Expected = 0;
  bool First = true;
  struct Config {
    AtomicMode Mode;
    unsigned K;
  };
  for (Config Cfg : {Config{AtomicMode::GlobalLock, 3},
                     Config{AtomicMode::Inferred, 0},
                     Config{AtomicMode::Inferred, 3},
                     Config{AtomicMode::Inferred, 9}}) {
    std::unique_ptr<Compilation> C = compileOk(Source, Cfg.K);
    InterpOptions Options;
    Options.Mode = Cfg.Mode;
    InterpResult R = C->run(Options);
    ASSERT_TRUE(R.Ok) << "seed " << GetParam() << ": " << R.Error
                      << fuzzRepro("legacy-seq", GetParam(), Cfg.K);
    if (First) {
      Expected = R.MainResult;
      First = false;
    } else {
      EXPECT_EQ(R.MainResult, Expected) << "seed " << GetParam();
    }
  }
}

TEST_P(SequentialSweep, KSweepMonotonicity) {
  // Coarse lock counts never increase with k, and every inferred set at
  // any k passes the checking interpreter.
  std::string Source = generateSequentialProgram(GetParam());
  unsigned PrevCoarse = ~0u;
  for (unsigned K = 0; K <= 9; ++K) {
    std::unique_ptr<Compilation> C = compileOk(Source, K);
    LockCensus Census = C->inference().census();
    unsigned Coarse = Census.CoarseRO + Census.CoarseRW;
    EXPECT_LE(Coarse, PrevCoarse) << "seed " << GetParam() << " k=" << K;
    PrevCoarse = Coarse;
  }
}

TEST_P(SequentialSweep, PipelineIsDeterministic) {
  std::string Source = generateSequentialProgram(GetParam());
  std::unique_ptr<Compilation> A = compileOk(Source, 5);
  std::unique_ptr<Compilation> B = compileOk(Source, 5);
  ASSERT_EQ(A->inference().sections().size(),
            B->inference().sections().size());
  for (size_t I = 0; I < A->inference().sections().size(); ++I)
    EXPECT_EQ(A->inference().sections()[I].Locks.str(),
              B->inference().sections()[I].Locks.str());
  EXPECT_EQ(A->transformedText(), B->transformedText());
}

TEST_P(SequentialSweep, SourcePrinterRoundTrip) {
  // print(parse(P)) reparses to a fixed point of printing.
  std::string Source = generateSequentialProgram(GetParam());
  DiagnosticEngine Diags;
  Parser P1(Source, Diags);
  std::unique_ptr<Program> Prog = P1.parseProgram();
  ASSERT_TRUE(Prog && !Diags.hasErrors()) << Diags.str();
  std::string Printed = printProgram(*Prog);
  DiagnosticEngine Diags2;
  Parser P2(Printed, Diags2);
  std::unique_ptr<Program> Again = P2.parseProgram();
  ASSERT_TRUE(Again && !Diags2.hasErrors())
      << "printed program failed to reparse:\n" << Diags2.str();
  EXPECT_EQ(printProgram(*Again), Printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialSweep,
                         ::testing::Range(uint64_t{100}, uint64_t{130}));

//===----------------------------------------------------------------------===//
// Inference invariants on the benchmark programs
//===----------------------------------------------------------------------===//

class BenchmarkInvariants
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BenchmarkInvariants, LockSetsAreNormalized) {
  // §4.1(b): no lock in an inferred set is subsumed by another.
  std::unique_ptr<Compilation> C =
      compileOk(toyProgram(GetParam()).Source, /*K=*/9);
  for (const auto &Section : C->inference().sections()) {
    const auto &Locks = Section.Locks.locks();
    for (size_t I = 0; I < Locks.size(); ++I) {
      for (size_t J = 0; J < Locks.size(); ++J) {
        if (I == J)
          continue;
        EXPECT_FALSE(Locks[I].leq(Locks[J]))
            << GetParam() << " section " << Section.SectionId << ": "
            << Locks[I].str() << " subsumed by " << Locks[J].str();
      }
    }
  }
}

TEST_P(BenchmarkInvariants, FineLocksHaveValidRegions) {
  std::unique_ptr<Compilation> C =
      compileOk(toyProgram(GetParam()).Source, /*K=*/9);
  for (const auto &Section : C->inference().sections())
    for (const LockName &L : Section.Locks)
      if (L.isFine()) {
        EXPECT_EQ(evalPathRegion(L.path(), C->pointsTo()), L.region())
            << GetParam() << ": " << L.str();
      }
}

TEST_P(BenchmarkInvariants, FineLockPathsRespectKLimit) {
  for (unsigned K : {1u, 3u, 9u}) {
    std::unique_ptr<Compilation> C =
        compileOk(toyProgram(GetParam()).Source, K);
    for (const auto &Section : C->inference().sections())
      for (const LockName &L : Section.Locks)
        if (L.isFine()) {
          EXPECT_LE(L.path().size(), K)
              << GetParam() << " k=" << K << ": " << L.str();
        }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkInvariants,
    ::testing::Values("list", "hashtable", "hashtable-2", "rbtree", "TH",
                      "genome", "vacation", "kmeans", "bayes", "labyrinth"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
