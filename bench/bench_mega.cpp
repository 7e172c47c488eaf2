//===--- bench_mega.cpp - Megaprogram interning/dedup benchmark ----------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the interned-lock-path representation buys on
/// megaprograms. Generates the fuzzer's `mega` family (a layered call
/// DAG over global hubs with one atomic section per function) at 1e5
/// and 1e6 source lines and runs two configurations, each in its own
/// subprocess so peak RSS is honest:
///
///   baseline — front end only (parse → points-to), no lock inference;
///              subtracted from the interned leg so analysis_rss_kb
///              measures the analysis-attributable cost, not the shared
///              AST/IR.
///   interned — the full analysis.
///
/// Emits BENCH_mega.json: per size, each configuration's analysis wall
/// time, peak RSS (VmHWM), interner counters and dedup counters, plus the
/// interner hit rate. `--quick` runs the 1e5-line size only (the CI
/// mega-smoke step, which gates on the interned leg's deterministic
/// counters).
///
/// Usage: bench_mega [--quick] [--out PATH]
///        bench_mega --child CONFIG --lines N   (internal)
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "fuzz/Generator.h"
#include "infer/Inference.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pointsto/Steensgaard.h"
#include "support/Diagnostics.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace lockin;

namespace {

/// Peak resident set (VmHWM) of this process in KiB, from
/// /proc/self/status; 0 if unavailable.
uint64_t peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    uint64_t Kb = 0;
    std::sscanf(Line.c_str(), "VmHWM: %llu",
                reinterpret_cast<unsigned long long *>(&Kb));
    return Kb;
  }
  return 0;
}

struct ChildResult {
  bool Ok = false;
  uint64_t Lines = 0;
  uint64_t Sections = 0;
  double AnalyzeSeconds = 0;
  double TotalSeconds = 0;
  uint64_t PeakRssKb = 0;
  uint64_t InternerNodes = 0;
  uint64_t InternerHits = 0;
  uint64_t Deduped = 0;
  uint64_t ArenaBytes = 0;
};

/// Child mode: one configuration at one size, results as key=value
/// lines on stdout (the parent parses them; errors go to stderr).
int runChild(const std::string &Config, unsigned Lines) {
  if (Config != "baseline" && Config != "interned") {
    std::fprintf(stderr, "bench_mega: unknown config '%s'\n", Config.c_str());
    return 2;
  }
  fuzz::GenOptions Gen;
  Gen.F = fuzz::Family::Mega;
  Gen.Seed = 42;
  Gen.MegaLines = Lines;
  std::string Source = fuzz::generateProgram(Gen);

  auto T0 = std::chrono::steady_clock::now();
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  auto Ast = P.parseProgram();
  if (!Ast || Diags.hasErrors() || !runSema(*Ast, Diags)) {
    std::fprintf(stderr, "bench_mega: generated program failed sema\n");
    return 1;
  }
  auto Module = lowerProgram(*Ast, Diags);
  if (!Module || Diags.hasErrors()) {
    std::fprintf(stderr, "bench_mega: generated program failed lowering\n");
    return 1;
  }
  analysis::CallGraph CG(*Module);
  PointsToAnalysis PT(*Module);

  double AnalyzeSeconds = 0;
  uint64_t Sections = 0;
  InferenceStats Stats;
  if (Config != "baseline") {
    InferenceOptions Opts;
    Opts.Jobs = 1;
    // Megaprograms are where the higher-precision k settings matter, and
    // longer paths are exactly what the interned representation targets.
    Opts.K = 6;
    LockInference Inference(*Module, PT, CG, Opts);
    auto A0 = std::chrono::steady_clock::now();
    InferenceResult Result = Inference.run();
    AnalyzeSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - A0)
                         .count();
    Sections = Result.sections().size();
    Stats = Inference.stats();
  }
  double TotalSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - T0)
                            .count();

  size_t SrcLines = 0;
  for (char C : Source)
    SrcLines += C == '\n';
  std::printf("ok=1\n");
  std::printf("lines=%zu\n", SrcLines);
  std::printf("sections=%llu\n", static_cast<unsigned long long>(Sections));
  std::printf("analyze_seconds=%.6f\n", AnalyzeSeconds);
  std::printf("total_seconds=%.6f\n", TotalSeconds);
  std::printf("peak_rss_kb=%llu\n",
              static_cast<unsigned long long>(peakRssKb()));
  std::printf("interner_nodes=%llu\n",
              static_cast<unsigned long long>(Stats.InternerNodes));
  std::printf("interner_hits=%llu\n",
              static_cast<unsigned long long>(Stats.InternerHits));
  std::printf("summaries_deduped=%llu\n",
              static_cast<unsigned long long>(Stats.Summaries.Deduped));
  std::printf("arena_bytes=%llu\n",
              static_cast<unsigned long long>(Stats.ArenaBytes));
  return 0;
}

bool runConfig(const std::string &Config, unsigned Lines, ChildResult &Out) {
  // popen's shell would resolve /proc/self/exe to itself; resolve the
  // real binary path here instead.
  char Exe[4096];
  ssize_t N = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (N <= 0)
    return false;
  Exe[N] = '\0';
  std::string Cmd = std::string("'") + Exe + "' --child " + Config +
                    " --lines " + std::to_string(Lines);
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return false;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), Pipe)) {
    unsigned long long V = 0;
    double D = 0;
    if (std::sscanf(Line, "ok=%llu", &V) == 1)
      Out.Ok = V != 0;
    else if (std::sscanf(Line, "lines=%llu", &V) == 1)
      Out.Lines = V;
    else if (std::sscanf(Line, "sections=%llu", &V) == 1)
      Out.Sections = V;
    else if (std::sscanf(Line, "analyze_seconds=%lf", &D) == 1)
      Out.AnalyzeSeconds = D;
    else if (std::sscanf(Line, "total_seconds=%lf", &D) == 1)
      Out.TotalSeconds = D;
    else if (std::sscanf(Line, "peak_rss_kb=%llu", &V) == 1)
      Out.PeakRssKb = V;
    else if (std::sscanf(Line, "interner_nodes=%llu", &V) == 1)
      Out.InternerNodes = V;
    else if (std::sscanf(Line, "interner_hits=%llu", &V) == 1)
      Out.InternerHits = V;
    else if (std::sscanf(Line, "summaries_deduped=%llu", &V) == 1)
      Out.Deduped = V;
    else if (std::sscanf(Line, "arena_bytes=%llu", &V) == 1)
      Out.ArenaBytes = V;
  }
  int Status = pclose(Pipe);
  return Out.Ok && Status == 0;
}

support::Json configJson(const ChildResult &R, const ChildResult &Baseline) {
  using support::Json;
  uint64_t OverKb =
      R.PeakRssKb > Baseline.PeakRssKb ? R.PeakRssKb - Baseline.PeakRssKb : 0;
  return Json::object({{"sections", Json::uinteger(R.Sections)},
                       {"analyze_seconds", Json::number(R.AnalyzeSeconds)},
                       {"total_seconds", Json::number(R.TotalSeconds)},
                       {"peak_rss_kb", Json::uinteger(R.PeakRssKb)},
                       {"analysis_rss_kb", Json::uinteger(OverKb)},
                       {"interner_nodes", Json::uinteger(R.InternerNodes)},
                       {"interner_hits", Json::uinteger(R.InternerHits)},
                       {"summaries_deduped", Json::uinteger(R.Deduped)},
                       {"arena_bytes", Json::uinteger(R.ArenaBytes)}});
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string OutPath = "BENCH_mega.json";
  std::string ChildConfig;
  unsigned ChildLines = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0) {
      Quick = true;
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--child") == 0 && I + 1 < Argc) {
      ChildConfig = Argv[++I];
    } else if (std::strcmp(Argv[I], "--lines") == 0 && I + 1 < Argc) {
      ChildLines = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_mega [--quick] [--out PATH]\n");
      return 2;
    }
  }
  if (!ChildConfig.empty())
    return runChild(ChildConfig, ChildLines);

  std::vector<unsigned> Sizes = Quick ? std::vector<unsigned>{100000}
                                      : std::vector<unsigned>{100000, 1000000};
  support::Json SizeRows = support::Json::array();
  bool AllOk = true;
  for (unsigned Lines : Sizes) {
    std::printf("bench_mega: %u lines...\n", Lines);
    ChildResult Baseline, Interned;
    if (!runConfig("baseline", Lines, Baseline) ||
        !runConfig("interned", Lines, Interned)) {
      std::fprintf(stderr, "bench_mega: child failed at %u lines\n", Lines);
      AllOk = false;
      break;
    }
    double HitRate =
        Interned.InternerNodes + Interned.InternerHits > 0
            ? static_cast<double>(Interned.InternerHits) /
                  static_cast<double>(Interned.InternerNodes +
                                      Interned.InternerHits)
            : 0;
    std::printf("  interned: %7.2fs analyze, %8llu KiB peak "
                "(hit rate %.3f, deduped %llu, arena %llu bytes)\n",
                Interned.AnalyzeSeconds,
                static_cast<unsigned long long>(Interned.PeakRssKb), HitRate,
                static_cast<unsigned long long>(Interned.Deduped),
                static_cast<unsigned long long>(Interned.ArenaBytes));

    SizeRows.push(support::Json::object(
        {{"lines", support::Json::uinteger(Baseline.Lines)},
         {"baseline", configJson(Baseline, Baseline)},
         {"interned", configJson(Interned, Baseline)},
         {"interner_hit_rate", support::Json::number(HitRate)}}));
  }

  if (!AllOk)
    return 1;
  support::Json Doc =
      support::Json::object({{"bench", support::Json::string("mega")},
                             {"quick", support::Json::boolean(Quick)}});
  Doc.set("sizes", std::move(SizeRows));
  if (!support::writeJsonFile(OutPath, Doc))
    return 1;
  std::printf("bench_mega: wrote %s\n", OutPath.c_str());
  return 0;
}
