//===--- bench_table1.cpp - Table 1: program size and analysis time ------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces Table 1 of the paper: program size (KLoC), number of atomic
/// sections, and whole-program analysis time at k = 0 and k = 9. The
/// SPECint2000 rows are reproduced with deterministic synthetic programs
/// of the same size (see DESIGN.md); the STAMP-like and micro rows use
/// the toy-language benchmark implementations.
///
/// Each program is parsed/lowered once; the timed region is the analysis
/// proper (call graph + points-to + SCC-scheduled inference), measured at
/// --jobs 1/2/4/8 to show the parallel schedule. A final column times the
/// concurrency checker (check-mhp .. check-report) at k=9 on top of a
/// precomputed inference — the incremental cost of --check.
///
/// Environment:
///   LOCKIN_TABLE1_SCALE  shrink the synthetic programs (e.g. 0.2)
///   LOCKIN_TABLE1_JSON   also write the measurements as JSON to this path
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "check/Check.h"
#include "driver/Compiler.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "support/Json.h"
#include "workloads/ToyPrograms.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace lockin;
using namespace lockin::workloads;

namespace {

constexpr unsigned JobCounts[] = {1, 2, 4, 8};
constexpr unsigned KValues[] = {0, 9};

double kloc(const std::string &Source) {
  size_t Lines = 1;
  for (char C : Source)
    if (C == '\n')
      ++Lines;
  return static_cast<double>(Lines) / 1000.0;
}

struct Prepared {
  std::unique_ptr<Program> Ast;
  std::unique_ptr<ir::IrModule> Module;
};

/// Parse+sema+lower once per row; the timed analysis runs on the module.
Prepared prepare(const std::string &Source) {
  Prepared Out;
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  Out.Ast = P.parseProgram();
  if (!Out.Ast || !runSema(*Out.Ast, Diags)) {
    std::fprintf(stderr, "internal error: benchmark program invalid:\n%s\n",
                 Diags.str().c_str());
    std::exit(1);
  }
  Out.Module = lowerProgram(*Out.Ast, Diags);
  if (!Out.Module || Diags.hasErrors()) {
    std::fprintf(stderr, "internal error: lowering failed:\n%s\n",
                 Diags.str().c_str());
    std::exit(1);
  }
  return Out;
}

/// The paper's "analysis time": everything after parsing — call graph,
/// points-to, and the lock inference itself. Best of three runs, to damp
/// scheduler noise.
double analysisSeconds(const ir::IrModule &Module, unsigned K,
                       unsigned Jobs) {
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    analysis::CallGraph CG(Module);
    PointsToAnalysis PT(Module);
    InferenceOptions Options;
    Options.K = K;
    Options.Jobs = Jobs;
    LockInference Inference(Module, PT, CG, Options);
    InferenceResult Result = Inference.run();
    auto End = std::chrono::steady_clock::now();
    (void)Result;
    double Seconds = std::chrono::duration<double>(End - Start).count();
    if (Rep == 0 || Seconds < Best)
      Best = Seconds;
  }
  return Best;
}

struct Measurement {
  std::string Name;
  double Kloc = 0;
  unsigned Sections = 0;
  // Seconds[k index][jobs index].
  double Seconds[2][4] = {};
  // The concurrency checker (check-mhp .. check-report) at k=9, on top
  // of an already-computed inference; best of three.
  double CheckSeconds = 0;
  unsigned CheckFindings = 0;
  uint64_t CheckMhpPairs = 0;
};

/// Checker wall time: the analyses it consumes (call graph, points-to,
/// inference) are computed once outside the clock, so this measures the
/// four check passes themselves — the incremental cost of --check.
void checkerSeconds(const ir::IrModule &Module, unsigned K,
                    Measurement &M) {
  analysis::CallGraph CG(Module);
  PointsToAnalysis PT(Module);
  InferenceOptions Options;
  Options.K = K;
  Options.Jobs = 1;
  LockInference Inference(Module, PT, CG, Options);
  InferenceResult Result = Inference.run();
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    check::CheckReport Report =
        check::Checker::runAll(Module, CG, PT, Result, K);
    auto End = std::chrono::steady_clock::now();
    double Seconds = std::chrono::duration<double>(End - Start).count();
    if (Rep == 0 || Seconds < M.CheckSeconds)
      M.CheckSeconds = Seconds;
    M.CheckFindings = Report.Stats.Findings;
    M.CheckMhpPairs = Report.Stats.MhpPairs;
  }
}

struct ObsOverhead {
  bool Measured = false;
  std::string Program;
  double SecondsOff = 0;
  double SecondsOn = 0;
  double OverheadPct = 0;
};

void writeJson(const char *Path, double Scale,
               const std::vector<Measurement> &Rows,
               const ObsOverhead &Obs) {
  using support::Json;
  Json Doc = Json::object({{"scale", Json::number(Scale)}});
  Json &List = Doc.set("rows", Json::array());
  for (const Measurement &R : Rows) {
    Json &Row =
        List.push(Json::object({{"name", Json::string(R.Name)},
                                {"kloc", Json::number(R.Kloc)},
                                {"sections", Json::integer(R.Sections)}}));
    for (size_t KI = 0; KI < 2; ++KI) {
      Json &ByJobs =
          Row.set('k' + std::to_string(KValues[KI]), Json::object());
      for (size_t JI = 0; JI < 4; ++JI)
        ByJobs.set("jobs" + std::to_string(JobCounts[JI]),
                   Json::number(R.Seconds[KI][JI]));
    }
    Row.set("check",
            Json::object({{"seconds", Json::number(R.CheckSeconds)},
                          {"findings", Json::integer(R.CheckFindings)},
                          {"mhp_pairs", Json::uinteger(R.CheckMhpPairs)}}));
  }
  if (Obs.Measured)
    Doc.set("obs_overhead",
            Json::object({{"program", Json::string(Obs.Program)},
                          {"seconds_off", Json::number(Obs.SecondsOff)},
                          {"seconds_on", Json::number(Obs.SecondsOn)},
                          {"overhead_pct", Json::number(Obs.OverheadPct)}}));
  support::writeJsonFile(Path, Doc);
}

struct Row {
  std::string Name;
  std::string Source;
};

/// Whole-pipeline (parse..inference) wall time with the event tracer
/// armed or dormant; best of three. Used by --with-obs to report the
/// observability layer's overhead on the compile path.
double compileSeconds(const std::string &Source, bool ObsOn) {
  obs::tracer().setEnabled(ObsOn);
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    std::unique_ptr<Compilation> C = compile(Source, CompileOptions());
    auto End = std::chrono::steady_clock::now();
    if (!C->ok()) {
      std::fprintf(stderr, "internal error: benchmark program invalid\n");
      std::exit(1);
    }
    double Seconds = std::chrono::duration<double>(End - Start).count();
    if (Rep == 0 || Seconds < Best)
      Best = Seconds;
  }
  obs::tracer().setEnabled(false);
  obs::tracer().clear();
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  bool WithObs = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--with-obs") == 0) {
      WithObs = true;
    } else {
      std::fprintf(stderr, "bench_table1: unknown option '%s'\n", Argv[I]);
      std::fprintf(stderr, "usage: bench_table1 [--with-obs]\n");
      return 2;
    }
  }

  double Scale = 1.0;
  if (const char *Env = std::getenv("LOCKIN_TABLE1_SCALE"))
    Scale = std::atof(Env);
  if (Scale <= 0)
    Scale = 1.0;

  // The SPEC rows: paper sizes in KLoC.
  struct SpecRow {
    const char *Name;
    double Kloc;
  };
  const SpecRow SpecRows[] = {
      {"gzip", 10.3},   {"parser", 14.2}, {"vpr", 20.4}, {"crafty", 21.2},
      {"twolf", 23.1},  {"gap", 71.4},    {"vortex", 71.5},
  };

  std::vector<Row> Rows;
  uint64_t Seed = 1;
  for (const SpecRow &S : SpecRows) {
    unsigned Target =
        static_cast<unsigned>(S.Kloc * Scale + 0.5);
    if (Target == 0)
      Target = 1;
    Rows.push_back({S.Name, generateSyntheticSpec(Target, Seed++)});
  }
  for (const ToyProgram &P : concurrentToyPrograms())
    Rows.push_back({P.Name, P.Source});

  std::printf("Table 1: program size and analysis time (seconds)\n");
  std::printf("(SPEC rows are synthetic stand-ins at %.0f%% scale; see "
              "DESIGN.md)\n\n",
              Scale * 100.0);
  std::printf("%-12s %8s %8s | %10s %10s %10s | %10s %10s %10s | %10s\n",
              "Program", "Size", "Atomic", "k=0 j=1", "k=0 j=4",
              "k=0 j=8", "k=9 j=1", "k=9 j=4", "k=9 j=8", "check k=9");
  std::printf("%-12s %8s %8s |\n", "", "(Kloc)", "sections");

  std::vector<Measurement> Results;
  for (const Row &R : Rows) {
    Prepared P = prepare(R.Source);
    Measurement M;
    M.Name = R.Name;
    M.Kloc = kloc(R.Source);
    M.Sections = P.Module->numAtomicSections();
    for (size_t KI = 0; KI < 2; ++KI)
      for (size_t JI = 0; JI < 4; ++JI)
        M.Seconds[KI][JI] =
            analysisSeconds(*P.Module, KValues[KI], JobCounts[JI]);
    checkerSeconds(*P.Module, KValues[1], M);
    std::printf("%-12s %8.1f %8u | %10.3f %10.3f %10.3f | %10.3f %10.3f "
                "%10.3f | %10.4f\n",
                M.Name.c_str(), M.Kloc, M.Sections, M.Seconds[0][0],
                M.Seconds[0][2], M.Seconds[0][3], M.Seconds[1][0],
                M.Seconds[1][2], M.Seconds[1][3], M.CheckSeconds);
    std::fflush(stdout);
    Results.push_back(std::move(M));
  }

  ObsOverhead Obs;
  if (WithObs) {
    // Pipeline overhead of the tracer: the largest toy program through
    // the full compile (parse..inference) with the tracer armed vs off.
    const Row &Target = Rows.back();
    Obs.Measured = true;
    Obs.Program = Target.Name;
    Obs.SecondsOff = compileSeconds(Target.Source, false);
    Obs.SecondsOn = compileSeconds(Target.Source, true);
    Obs.OverheadPct = (Obs.SecondsOn / Obs.SecondsOff - 1.0) * 100.0;
    std::printf("\nobs overhead (%s, full compile): off %.4fs, on %.4fs "
                "(%+.2f%%)%s\n",
                Obs.Program.c_str(), Obs.SecondsOff, Obs.SecondsOn,
                Obs.OverheadPct,
                obs::kEnabled ? "" : " [built with LOCKIN_OBS=OFF]");
  }

  if (const char *JsonPath = std::getenv("LOCKIN_TABLE1_JSON"))
    writeJson(JsonPath, Scale, Results, Obs);
  return 0;
}
