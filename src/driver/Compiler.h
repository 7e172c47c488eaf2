//===--- Compiler.h - End-to-end pipeline facade ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call façade over the whole pipeline, run as named PassManager
/// passes: parse → sema → lower → callgraph → points-to → infer →
/// transform. This is the public entry point examples, tools, tests, and
/// benchmarks use; per-pass wall times and analysis counters are exposed
/// through pipelineStats().
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_DRIVER_COMPILER_H
#define LOCKIN_DRIVER_COMPILER_H

#include "analysis/CallGraph.h"
#include "check/BugReport.h"
#include "driver/PassManager.h"
#include "infer/Inference.h"
#include "interp/Interp.h"
#include "ir/Ir.h"
#include "lang/Ast.h"
#include "pointsto/Steensgaard.h"
#include "support/Diagnostics.h"

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lockin {

struct CompileOptions {
  /// k of the k-limited expression locks (paper: 0..9).
  unsigned K = 3;
  /// Skip the lock inference (parse/lower/points-to only).
  bool InferLocks = true;
  /// Worker threads for the inference; 0 = hardware concurrency, 1 =
  /// fully serial. Parallel and serial runs produce identical lock sets.
  unsigned Jobs = 0;
  /// Run the concurrency checker (check-mhp → check-lockset → check-order
  /// → check-report passes) after inference; the report is available via
  /// Compilation::checkReport().
  bool Check = false;
  /// MHP-driven lock elision: sections whose conflicts can never run in
  /// parallel keep their inferred lock sets but skip acquisition at run
  /// time. Default off; off is byte-identical to builds without the flag.
  bool ElideNeverParallel = false;
  /// Explicit observability context for the pipeline's pass counters and
  /// spans; null = the process-wide singletons. Concurrent compilations
  /// (the daemon's workers, the re-entrancy test) pass their own so runs
  /// never share mutable tool state.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::Tracer *Trace = nullptr;
};

/// The result of compiling one program. Owns every phase's output; check
/// ok() before using anything beyond diagnostics().
class Compilation {
public:
  bool ok() const { return Ok; }
  const DiagnosticEngine &diagnostics() const { return Diags; }

  Program &ast() { return *Ast; }
  ir::IrModule &module() { return *Module; }
  const analysis::CallGraph &callGraph() const { return *CG; }
  const PointsToAnalysis &pointsTo() const { return *PT; }
  const InferenceResult &inference() const { return *Inference; }

  /// The concurrency checker's report; null unless CompileOptions::Check.
  const check::CheckReport *checkReport() const { return Check.get(); }

  /// Per-pass wall times and analysis counters of this compilation.
  const PipelineStats &pipelineStats() const { return Stats; }

  /// The transformed output program: atomic sections shown as
  /// acquireAll({...}) / releaseAll() pairs.
  std::string transformedText() const;

  /// The tool's standard report: the transformed program followed by one
  /// "; section #N in F: {...}" line per atomic section and the census
  /// line. Golden-file tests compare against exactly this text.
  std::string report() const;

  /// Runs the program in the concurrent interpreter.
  InterpResult run(const InterpOptions &Options,
                   const std::string &MainFunction = "main") const;

private:
  friend std::unique_ptr<Compilation> compile(std::string_view,
                                              const CompileOptions &);
  bool Ok = false;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Ast;
  std::unique_ptr<ir::IrModule> Module;
  std::unique_ptr<analysis::CallGraph> CG;
  std::unique_ptr<PointsToAnalysis> PT;
  std::unique_ptr<InferenceResult> Inference;
  std::unique_ptr<check::CheckReport> Check;
  std::string Transformed;
  PipelineStats Stats;
};

/// Appends the lines a report prints after the transformed program: one
/// "; section #N in F: {...}" line per section (\p SectionFunctions[N]
/// names F; null prints "?"; \p AppendLocks(N, Out) appends the lock set)
/// and the "; locks:" census line. Compilation::report() and the daemon's
/// incremental report both print it, so the two stay byte-identical.
void appendReportTrailer(
    std::string &Out,
    const std::vector<const ir::IrFunction *> &SectionFunctions,
    const LockCensus &Census,
    const std::function<void(uint32_t, std::string &)> &AppendLocks);

/// Compiles \p Source; never returns null. On failure the result's
/// diagnostics explain why.
std::unique_ptr<Compilation> compile(std::string_view Source,
                                     const CompileOptions &Options = {});

} // namespace lockin

#endif // LOCKIN_DRIVER_COMPILER_H
