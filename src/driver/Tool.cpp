//===--- Tool.cpp - Re-entrant lockinfer tool runs ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// runAnalysis only; runServe lives in src/service/ServeTool.cpp so the
// driver library does not depend on the service library (which depends on
// the driver).
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"

#include "driver/Compiler.h"
#include "obs/LockProfiler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <cstdio>

using namespace lockin;
using namespace lockin::tool;

int tool::drainObsOutputs(const cli::CliOptions &Opts) {
  if (Opts.ProfileLocks)
    std::fputs(obs::lockProfiler().renderTable().c_str(), stdout);
  if (!Opts.MetricsOut.empty() &&
      !support::writeJsonFile(Opts.MetricsOut, obs::metrics().toJson()))
    return 1;
  if (!Opts.TraceOut.empty()) {
    if (!support::writeFileOrStdout(Opts.TraceOut, [](std::ostream &OS) {
          obs::tracer().writeChromeJson(OS);
        }))
      return 1;
    if (uint64_t Dropped = obs::tracer().totalDropped())
      std::fprintf(stderr,
                   "note: trace ring buffers dropped %llu oldest events\n",
                   static_cast<unsigned long long>(Dropped));
  }
  return 0;
}

int tool::runAnalysis(const cli::CliOptions &Opts, const std::string &Source,
                      ToolContext &Ctx) {
  CompileOptions Options;
  Options.K = Opts.K;
  Options.Jobs = Opts.Jobs;
  Options.Check = Opts.Check;
  Options.ElideNeverParallel = Opts.ElideNeverParallel;
  Options.Metrics = Ctx.Metrics;
  Options.Trace = Ctx.Trace;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  if (!C->ok()) {
    Ctx.Log += C->diagnostics().str();
    return 1;
  }

  if (!Opts.Quiet)
    Ctx.Out += C->report();
  if (Opts.Check && C->checkReport())
    Ctx.Out += C->checkReport()->json(Opts.Path) + "\n";
  if (Opts.TimePasses)
    Ctx.Log += C->pipelineStats().renderTimings();
  if (Opts.Stats)
    Ctx.Log += C->pipelineStats().renderStats();

  if (Opts.Run) {
    InterpOptions RunOptions;
    RunOptions.Mode = Opts.Adaptive  ? AtomicMode::Adaptive
                      : Opts.GlobalLock ? AtomicMode::GlobalLock
                                        : AtomicMode::Inferred;
    RunOptions.AdaptiveEpochMs = Opts.Adaptive ? Opts.AdaptiveEpochMs : 0;
    RunOptions.InjectYields = Opts.InjectYields;
    RunOptions.YieldSeed = Opts.YieldSeed;
    InterpResult Result = C->run(RunOptions);
    if (!Result.Ok) {
      Ctx.Log += "run failed: " + Result.Error + "\n";
      return 1;
    }
    char Line[96];
    std::snprintf(Line, sizeof(Line),
                  "; run ok, main returned %lld, %llu steps\n",
                  static_cast<long long>(Result.MainResult),
                  static_cast<unsigned long long>(Result.TotalSteps));
    Ctx.Out += Line;
  }
  return 0;
}
