//===--- Compiler.cpp - End-to-end pipeline facade ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "check/Check.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"

#include <cstdio>

using namespace lockin;

std::string Compilation::transformedText() const {
  if (!Transformed.empty() || !Module)
    return Transformed;
  // Failure paths and compiles without inference skip the transform
  // pass; print on demand.
  const InferenceResult *Result = Inference.get();
  return ir::printIrModule(*Module, [Result](uint32_t SectionId) {
    return Result ? Result->annotate(SectionId) : std::string();
  });
}

void lockin::appendReportTrailer(
    std::string &Out,
    const std::vector<const ir::IrFunction *> &SectionFunctions,
    const LockCensus &Census,
    const std::function<void(uint32_t, std::string &)> &AppendLocks) {
  char Line[64];
  for (uint32_t Id = 0; Id < SectionFunctions.size(); ++Id) {
    std::snprintf(Line, sizeof(Line), "; section #%u in ", Id);
    Out += Line;
    Out += SectionFunctions[Id] ? SectionFunctions[Id]->name()
                                : std::string("?");
    Out += ": ";
    AppendLocks(Id, Out);
    Out += "\n";
  }
  std::snprintf(Line, sizeof(Line),
                "; locks: fine-ro=%u fine-rw=%u coarse-ro=%u coarse-rw=%u\n",
                Census.FineRO, Census.FineRW, Census.CoarseRO,
                Census.CoarseRW);
  Out += Line;
}

std::string Compilation::report() const {
  std::string Out = transformedText();
  if (!Inference)
    return Out;
  const auto &Sections = Inference->sections();
  std::vector<const ir::IrFunction *> Functions;
  for (const auto &Section : Sections)
    Functions.push_back(Section.Function);
  appendReportTrailer(Out, Functions, Inference->census(),
                      [&](uint32_t Id, std::string &Text) {
                        Text += Sections[Id].Locks.str();
                      });
  return Out;
}

InterpResult Compilation::run(const InterpOptions &Options,
                              const std::string &MainFunction) const {
  return interpret(*Module, *PT, Inference.get(), Options, MainFunction);
}

std::unique_ptr<Compilation> lockin::compile(std::string_view Source,
                                             const CompileOptions &Options) {
  auto C = std::make_unique<Compilation>();
  PassManager PM(Options.Metrics, Options.Trace);

  C->Ast = PM.run("parse", [&] {
    Parser P(Source, C->Diags);
    return P.parseProgram();
  });
  if (!C->Ast || C->Diags.hasErrors()) {
    C->Stats.Passes = PM.timings();
    return C;
  }

  bool SemaOk = PM.run("sema", [&] { return runSema(*C->Ast, C->Diags); });
  if (!SemaOk) {
    C->Stats.Passes = PM.timings();
    return C;
  }

  C->Module = PM.run("lower", [&] { return lowerProgram(*C->Ast, C->Diags); });
  if (!C->Module || C->Diags.hasErrors()) {
    C->Stats.Passes = PM.timings();
    return C;
  }

  C->CG = PM.run("callgraph", [&] {
    return std::make_unique<analysis::CallGraph>(*C->Module);
  });

  C->PT = PM.run("points-to", [&] {
    return std::make_unique<PointsToAnalysis>(*C->Module);
  });

  if (Options.InferLocks) {
    InferenceOptions InferOpts;
    InferOpts.K = Options.K;
    InferOpts.Jobs = Options.Jobs;
    InferOpts.ElideNeverParallel = Options.ElideNeverParallel;
    LockInference Inference(*C->Module, *C->PT, *C->CG, InferOpts);
    C->Inference = PM.run("infer", [&] {
      return std::make_unique<InferenceResult>(Inference.run());
    });
    C->Stats.Inference = Inference.stats();
    C->Stats.HasInference = true;
    if constexpr (obs::kEnabled) {
      const InferenceStats &S = C->Stats.Inference;
      obs::MetricsRegistry &Reg =
          Options.Metrics ? *Options.Metrics : obs::metrics();
      Reg.counter("interner.nodes").add(S.InternerNodes);
      Reg.counter("interner.hits").add(S.InternerHits);
      Reg.counter("summaries.deduped").add(S.Summaries.Deduped);
      Reg.counter("arena.bytes").add(S.ArenaBytes + C->Module->arenaBytes());
    }
  }

  if (Options.Check && C->Inference) {
    check::Checker Chk(*C->Module, *C->CG, *C->PT, *C->Inference, Options.K);
    PM.run("check-mhp", [&] { Chk.runMhp(); });
    PM.run("check-lockset", [&] { Chk.runLockSet(); });
    PM.run("check-order", [&] { Chk.runOrder(); });
    C->Check = PM.run("check-report", [&] {
      return std::make_unique<check::CheckReport>(Chk.finish());
    });
    C->Stats.Check = C->Check->Stats;
    C->Stats.HasCheck = true;
    if constexpr (obs::kEnabled) {
      obs::MetricsRegistry &Reg =
          Options.Metrics ? *Options.Metrics : obs::metrics();
      Reg.counter("check.reports").add(1);
      Reg.counter("check.mhp_pairs").add(C->Check->Stats.MhpPairs);
      Reg.counter("check.elided_sections").add(C->Check->Stats.ElidedSections);
    }
  }

  // Without inference there is nothing to annotate: the front-half caller
  // (the daemon) renders its own report from cached lock text.
  if (C->Inference)
    C->Transformed = PM.run("transform", [&] {
      const InferenceResult *Result = C->Inference.get();
      return ir::printIrModule(*C->Module, [Result](uint32_t SectionId) {
        return Result->annotate(SectionId);
      });
    });

  C->Ok = true;
  C->Stats.Passes = PM.timings();
  return C;
}
