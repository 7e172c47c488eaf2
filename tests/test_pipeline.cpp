//===--- test_pipeline.cpp - Pipeline golden-oracle and determinism tests ------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end checks of the SCC-scheduled pipeline:
///
///  - Golden oracles: tests/golden/*.golden hold the full lockinfer report
///    produced by the pre-refactor (global re-iteration) engine for
///    interprocedural corner programs — 2- and 3-cycle mutual recursion,
///    self-recursion, call chains through pointer fields, and functions
///    unreachable from main. The SCC engine must reproduce them byte for
///    byte.
///  - Determinism: --jobs 1, 2, and 8 (and repeated runs) must produce
///    identical lock sets and identical transformed text on the largest
///    synthetic Table-1 program.
///  - Stats plumbing: pass timings and analysis counters are populated.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "ir/IrPrinter.h"
#include "lang/Parser.h"
#include "workloads/ToyPrograms.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

using namespace lockin;
using namespace lockin::test;

namespace {

void checkGolden(const std::string &Name, unsigned Jobs) {
  std::string Source = readFile(goldenDir() + Name + ".atom");
  std::string Expected = readFile(goldenDir() + Name + ".golden");
  CompileOptions Options;
  Options.Jobs = Jobs;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  ASSERT_TRUE(C->ok()) << C->diagnostics().str();
  EXPECT_EQ(C->report(), Expected) << Name << " with jobs=" << Jobs;
}

const char *GoldenNames[] = {"mutual2", "mutual3", "selfrec", "ptrchain",
                             "unreachable"};

TEST(PipelineGolden, SerialMatchesPreRefactorOracle) {
  for (const char *Name : GoldenNames)
    checkGolden(Name, /*Jobs=*/1);
}

TEST(PipelineGolden, ParallelMatchesPreRefactorOracle) {
  for (const char *Name : GoldenNames)
    checkGolden(Name, /*Jobs=*/8);
}

/// All sections rendered to one string, plus the transformed program.
std::string fingerprint(Compilation &C) {
  std::string Out = C.transformedText();
  for (const auto &Section : C.inference().sections()) {
    Out += Section.Locks.str();
    Out += "\n";
  }
  return Out;
}

TEST(PipelineDeterminism, JobsDoNotChangeTheResult) {
  // The largest synthetic Table-1 stand-in exercises thousands of
  // functions and sections.
  std::string Source = workloads::generateSyntheticSpec(20, 7);
  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    CompileOptions Options;
    Options.Jobs = Jobs;
    std::unique_ptr<Compilation> C = compile(Source, Options);
    ASSERT_TRUE(C->ok()) << C->diagnostics().str();
    std::string Fp = fingerprint(*C);
    if (Baseline.empty())
      Baseline = std::move(Fp);
    else
      EXPECT_EQ(Fp, Baseline) << "jobs=" << Jobs;
  }
}

TEST(PipelineDeterminism, ToyProgramsAgreeAcrossJobs) {
  for (const workloads::ToyProgram &P :
       workloads::concurrentToyPrograms()) {
    std::string Baseline;
    for (unsigned Jobs : {1u, 8u}) {
      CompileOptions Options;
      Options.Jobs = Jobs;
      std::unique_ptr<Compilation> C = compile(P.Source, Options);
      ASSERT_TRUE(C->ok()) << P.Name << ": " << C->diagnostics().str();
      std::string Fp = fingerprint(*C);
      if (Baseline.empty())
        Baseline = std::move(Fp);
      else
        EXPECT_EQ(Fp, Baseline) << P.Name << " jobs=" << Jobs;
    }
  }
}

TEST(PipelineDeterminism, RepeatedParallelRunsAgree) {
  std::string Source = workloads::generateSyntheticSpec(10, 11);
  std::string Baseline;
  for (int Round = 0; Round < 3; ++Round) {
    CompileOptions Options;
    Options.Jobs = 4;
    std::unique_ptr<Compilation> C = compile(Source, Options);
    ASSERT_TRUE(C->ok()) << C->diagnostics().str();
    std::string Fp = fingerprint(*C);
    if (Baseline.empty())
      Baseline = std::move(Fp);
    else
      EXPECT_EQ(Fp, Baseline) << "round " << Round;
  }
}

TEST(PipelineStats, PassesAndCountersArePopulated) {
  std::string Source = readFile(goldenDir() + "mutual3.atom");
  CompileOptions Options;
  Options.Jobs = 1;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  ASSERT_TRUE(C->ok()) << C->diagnostics().str();

  const PipelineStats &Stats = C->pipelineStats();
  const char *Expected[] = {"parse",     "sema",  "lower",    "callgraph",
                            "points-to", "infer", "transform"};
  ASSERT_EQ(Stats.Passes.size(), 7u);
  for (size_t I = 0; I < 7; ++I)
    EXPECT_EQ(Stats.Passes[I].Name, Expected[I]);
  EXPECT_GT(Stats.totalSeconds(), 0.0);
  EXPECT_GT(Stats.passSeconds("infer"), 0.0);

  ASSERT_TRUE(Stats.HasInference);
  const InferenceStats &Inf = Stats.Inference;
  // phaseA/phaseB/phaseC form one recursive SCC; main is its own.
  EXPECT_EQ(Inf.Functions, 4u);
  EXPECT_EQ(Inf.Sccs, 2u);
  EXPECT_EQ(Inf.RecursiveSccs, 1u);
  EXPECT_EQ(Inf.ReachableFunctions, 3u);
  EXPECT_EQ(Inf.Sections, 2u);
  EXPECT_EQ(Inf.JobsUsed, 1u);
  EXPECT_GT(Inf.Summaries.Entries, 0u);
  EXPECT_GT(Inf.Summaries.Evaluations, 0u);
  EXPECT_GT(Inf.Summaries.SccFixpointRounds, 0u);
  EXPECT_GT(Inf.InternerNodes, 0u);
  EXPECT_EQ(C->inference().sections().size(), 2u);
}

TEST(PipelineStats, FrontHalfCompileRendersNothing) {
  // Without inference nothing is annotated, so the compile stops after
  // points-to and the text is printed only when someone asks for it.
  std::string Source = readFile(goldenDir() + "mutual3.atom");
  CompileOptions Options;
  Options.Jobs = 1;
  Options.InferLocks = false;
  std::unique_ptr<Compilation> Front = compile(Source, Options);
  ASSERT_TRUE(Front->ok()) << Front->diagnostics().str();
  const std::vector<PassTiming> &Passes = Front->pipelineStats().Passes;
  ASSERT_FALSE(Passes.empty());
  for (const PassTiming &P : Passes)
    EXPECT_NE(P.Name, "transform");
  EXPECT_EQ(Passes.back().Name, "points-to");
  EXPECT_EQ(Front->transformedText(), ir::printIrModule(Front->module()));

  Options.InferLocks = true;
  std::unique_ptr<Compilation> Full = compile(Source, Options);
  ASSERT_TRUE(Full->ok()) << Full->diagnostics().str();
  EXPECT_EQ(Full->pipelineStats().Passes.back().Name, "transform");
  EXPECT_EQ(Full->report(), readFile(goldenDir() + "mutual3.golden"));
}

TEST(PipelineStats, UnreachableFunctionIsNotSummarized) {
  std::string Source = readFile(goldenDir() + "unreachable.atom");
  CompileOptions Options;
  Options.Jobs = 1;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  ASSERT_TRUE(C->ok()) << C->diagnostics().str();
  const InferenceStats &Inf = C->pipelineStats().Inference;
  // Neither section calls a function, so no summary is ever demanded —
  // including for `never`, which main never calls.
  EXPECT_LT(Inf.ReachableFunctions, Inf.Functions);
  EXPECT_EQ(Inf.Summaries.Evaluations, 0u);
}

TEST(PipelineDepth, DeepestAcceptedNestCompilesChecksAndRuns) {
  // Every pass after the parser recurses on the tree the parser's nesting
  // budget bounds: at the limit, each of them must still fit its stack.
  constexpr unsigned Levels = Parser::MaxNestingDepth - 2;
  for (NestKind Kind : AllNestKinds) {
    SCOPED_TRACE(static_cast<int>(Kind));
    CompileOptions Options;
    Options.Jobs = 1;
    Options.Check = true;
    std::unique_ptr<Compilation> C = compile(deepNest(Kind, Levels), Options);
    ASSERT_TRUE(C->ok()) << C->diagnostics().str();
    EXPECT_NE(C->checkReport(), nullptr);
    EXPECT_FALSE(C->report().empty());
    InterpResult R = C->run(InterpOptions());
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.MainResult, Kind == NestKind::Unary && Levels % 2 ? -1 : 1);
  }
}

/// Drives cli::parseArgs the way main() does, without a process spawn.
bool parse(std::initializer_list<const char *> Args, cli::CliOptions &Out) {
  std::vector<const char *> Argv = {"lockinfer"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return cli::parseArgs(static_cast<int>(Argv.size()), Argv.data(), Out);
}

TEST(CliParsing, DefaultsAndBasicFlags) {
  cli::CliOptions O;
  ASSERT_TRUE(parse({"prog.atom"}, O));
  EXPECT_EQ(O.K, 3u);
  EXPECT_EQ(O.Jobs, 0u);
  EXPECT_FALSE(O.Run);
  EXPECT_TRUE(O.TraceOut.empty());
  EXPECT_TRUE(O.MetricsOut.empty());
  EXPECT_EQ(O.Path, "prog.atom");

  cli::CliOptions O2;
  ASSERT_TRUE(parse({"--run", "--quiet", "--global-lock", "--time-passes",
                     "--stats", "--profile-locks", "-k", "5", "-j", "2",
                     "p.atom"},
                    O2));
  EXPECT_TRUE(O2.Run);
  EXPECT_TRUE(O2.Quiet);
  EXPECT_TRUE(O2.GlobalLock);
  EXPECT_TRUE(O2.TimePasses);
  EXPECT_TRUE(O2.Stats);
  EXPECT_TRUE(O2.ProfileLocks);
  EXPECT_EQ(O2.K, 5u);
  EXPECT_EQ(O2.Jobs, 2u);
}

TEST(CliParsing, ValueAttachmentForms) {
  // "--opt value" and "--opt=value" are equivalent; '-' means stdout for
  // the metrics export.
  cli::CliOptions O;
  ASSERT_TRUE(parse({"--trace-out", "t.json", "--metrics-out=-", "--jobs=4",
                     "p.atom"},
                    O));
  EXPECT_EQ(O.TraceOut, "t.json");
  EXPECT_EQ(O.MetricsOut, "-");
  EXPECT_EQ(O.Jobs, 4u);

  cli::CliOptions O2;
  ASSERT_TRUE(parse({"--trace-out=t2.json", "--metrics-out", "m.json",
                     "p.atom"},
                    O2));
  EXPECT_EQ(O2.TraceOut, "t2.json");
  EXPECT_EQ(O2.MetricsOut, "m.json");
}

TEST(CliParsing, Rejections) {
  // A fresh CliOptions per case: parseArgs mutates its output as it goes,
  // so state from a failed parse must not leak into the next.
  auto Rejects = [](std::initializer_list<const char *> Args) {
    cli::CliOptions O;
    return !parse(Args, O);
  };
  EXPECT_TRUE(Rejects({"--no-such-flag", "p.atom"})); // unknown option
  EXPECT_TRUE(Rejects({"p.atom", "--trace-out"}));    // missing value
  EXPECT_TRUE(Rejects({"--metrics-out=", "p.atom"})); // empty value
  EXPECT_TRUE(Rejects({"--run=yes", "p.atom"}));      // flag takes none
  EXPECT_TRUE(Rejects({"-k", "abc", "p.atom"}));      // non-numeric
  EXPECT_TRUE(Rejects({"a.atom", "b.atom"}));         // two inputs
  EXPECT_TRUE(Rejects({}));                           // no input
}

TEST(CliParsing, HelpNeedsNoInput) {
  cli::CliOptions O;
  ASSERT_TRUE(parse({"--help"}, O));
  EXPECT_TRUE(O.Help);
}

TEST(CliParsing, YieldInjectionFlags) {
  cli::CliOptions O;
  ASSERT_TRUE(parse({"--run", "--inject-yields", "--yield-seed", "1234",
                     "p.atom"},
                    O));
  EXPECT_TRUE(O.InjectYields);
  EXPECT_EQ(O.YieldSeed, 1234u);

  cli::CliOptions O2;
  ASSERT_TRUE(parse({"p.atom"}, O2));
  EXPECT_FALSE(O2.InjectYields);
  EXPECT_EQ(O2.YieldSeed, 1u);

  cli::CliOptions O3;
  EXPECT_FALSE(parse({"--yield-seed", "nope", "p.atom"}, O3));
}

TEST(CliParsing, ServeFlags) {
  cli::CliOptions O;
  ASSERT_TRUE(parse({"--serve", "--socket", "/tmp/s.sock", "--port=0",
                     "--service-workers", "4", "--queue-depth=8",
                     "--request-timeout-ms", "250", "--cache-capacity",
                     "1024"},
                    O));
  EXPECT_TRUE(O.Serve);
  EXPECT_EQ(O.Socket, "/tmp/s.sock");
  EXPECT_EQ(O.Port, 0);
  EXPECT_EQ(O.ServiceWorkers, 4u);
  EXPECT_EQ(O.QueueDepth, 8u);
  EXPECT_EQ(O.RequestTimeoutMs, 250u);
  EXPECT_EQ(O.CacheCapacity, 1024u);

  // --serve lifts the input-file requirement but still needs a listener,
  // rejects an input file, and validates numeric ranges.
  auto Rejects = [](std::initializer_list<const char *> Args) {
    cli::CliOptions O;
    return !parse(Args, O);
  };
  EXPECT_TRUE(Rejects({"--serve"}));
  EXPECT_TRUE(Rejects({"--serve", "--socket", "/tmp/s.sock", "p.atom"}));
  EXPECT_TRUE(Rejects({"--serve", "--port", "70000"}));
  EXPECT_TRUE(Rejects({"--serve", "--port=0", "--service-workers", "0"}));
  EXPECT_TRUE(Rejects({"--serve", "--port=0", "--queue-depth=0"}));
}

TEST(CliParsing, ObservabilityFlags) {
  cli::CliOptions O;
  EXPECT_EQ(O.LogLevel, "info");
  EXPECT_EQ(O.FlightCapacity, 256u);
  ASSERT_TRUE(parse({"--serve", "--port=0", "--log-level", "debug",
                     "--flightrecord-out=/tmp/fr.json",
                     "--flightrecord-capacity", "64"},
                    O));
  EXPECT_EQ(O.LogLevel, "debug");
  EXPECT_EQ(O.FlightRecordOut, "/tmp/fr.json");
  EXPECT_EQ(O.FlightCapacity, 64u);

  cli::CliOptions O2;
  ASSERT_TRUE(parse({"--log-level=off", "p.atom"}, O2));
  EXPECT_EQ(O2.LogLevel, "off");

  auto Rejects = [](std::initializer_list<const char *> Args) {
    cli::CliOptions O;
    return !parse(Args, O);
  };
  EXPECT_TRUE(Rejects({"--log-level", "chatty", "p.atom"}));
  EXPECT_TRUE(Rejects({"--log-level=", "p.atom"}));
  EXPECT_TRUE(Rejects({"--serve", "--port=0", "--flightrecord-capacity=0"}));
}

} // namespace
