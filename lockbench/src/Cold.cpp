//===--- Cold.cpp - The cold workload: repeated cold compiles -------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a user pays on every `lockinfer` run: cold compiles of a fixed,
/// checked corpus with the CLI defaults (k=3) and serial inference
/// (Jobs=1, which keeps the wall time steady on a shared host). The
/// corpus is the hand-checked golden programs, seeded megaprograms on
/// which inference, summaries and interning dominate, and long, shallow
/// programs on which parse, sema and lower dominate. The generated
/// programs are several mid-sized ones rather than one huge one: a
/// compile's working set then stays in the CPU's own caches, so its time
/// does not swing with neighbours' use of the shared cache and memory,
/// and the cost differences between seeded programs average out.
///
/// The untraced run times passes of compile() over the corpus and reports
/// the end-to-end metrics every workload reports, filled with compile
/// work: throughput_per_s is source lines compiled per second of a pass,
/// light_op_us the mean compile of a shallow program (front half) and
/// heavy_op_us that of a megaprogram (inference), each the median over
/// the passes. The traced run alternates those passes with passes
/// that call the seven layer entry points directly, one span per call,
/// and checks that the layered report equals compile()'s.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Programs.h"

#include "analysis/CallGraph.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "infer/Inference.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pointsto/Steensgaard.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lockbench;
using namespace lockin;

namespace {

/// Generated programs of each kind in the corpus, and their sizes.
constexpr unsigned GeneratedPerKind = 4;
constexpr unsigned MegaLines = 2000, ShallowFuncs = 500;

struct CorpusProgram {
  std::string Name;
  std::string Source;
  /// The hand-written .golden for golden programs; for generated programs
  /// the report of the first compile, which every later pass must repeat.
  std::string Expected;
  bool Golden = false;
};

bool readFile(const std::filesystem::path &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

std::vector<CorpusProgram> buildCorpus(const Config &C, Result &R) {
  std::vector<CorpusProgram> Corpus;
  std::filesystem::path Dir = std::filesystem::path(C.Root) / "tests" / "golden";
  std::vector<std::filesystem::path> Atoms;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.path().extension() == ".atom")
      Atoms.push_back(Entry.path());
  std::sort(Atoms.begin(), Atoms.end());
  for (const auto &Atom : Atoms) {
    std::filesystem::path Golden = Atom;
    Golden.replace_extension(".golden");
    CorpusProgram P;
    P.Name = Atom.filename().string();
    P.Golden = true;
    if (!readFile(Atom, P.Source) || !readFile(Golden, P.Expected)) {
      R.fail("cannot read " + Atom.string() + " or its .golden");
      continue;
    }
    Corpus.push_back(std::move(P));
  }
  if (Corpus.empty())
    R.fail("no golden programs under " + Dir.string());
  else if (C.Inject == Fault::WrongGolden)
    Corpus.front().Expected += "; injected difference\n";

  for (unsigned I = 0; I < GeneratedPerKind; ++I) {
    uint64_t Seed = C.Seed * GeneratedPerKind + I;
    fuzz::GenOptions Mega;
    Mega.F = fuzz::Family::Mega;
    Mega.Seed = Seed;
    Mega.MegaLines = C.Tiny ? 400 : MegaLines;
    Corpus.push_back({"mega" + std::to_string(I),
                      fuzz::generateProgram(Mega), "", false});
    Corpus.push_back({"shallow" + std::to_string(I),
                      shallowProgram(Seed, C.Tiny ? 64 : ShallowFuncs), "",
                      false});
  }
  return Corpus;
}

/// The seven layer entry points, in pipeline order.
constexpr unsigned NumLayers = 7;
const char *const LayerNames[NumLayers] = {
    "lang.parse_ms",    "lang.sema_ms",   "ir.lower_ms",
    "analysis.callgraph_ms", "pointsto.solve_ms", "infer.run_ms",
    "ir.render_ms"};

/// Per-layer times of one pass and the counts that must repeat exactly.
struct LayerPass {
  double Ms[NumLayers] = {};
  uint64_t SourceBytes = 0, Functions = 0, Sections = 0, Locks = 0;
  uint64_t InternerNodes = 0, InternerHits = 0, SummariesDeduped = 0,
           ArenaBytes = 0;

  /// Names of the counts that differ from \p O ("" when all repeat).
  std::string countsDiffer(const LayerPass &O) const {
    std::string Out;
    auto Check = [&](const char *Name, uint64_t A, uint64_t B) {
      if (A != B)
        Out += std::string(Out.empty() ? "" : ", ") + Name + " " +
               std::to_string(A) + " vs " + std::to_string(B);
    };
    Check("source_bytes", SourceBytes, O.SourceBytes);
    Check("functions", Functions, O.Functions);
    Check("sections", Sections, O.Sections);
    Check("locks", Locks, O.Locks);
    Check("interner_nodes", InternerNodes, O.InternerNodes);
    // Not interner hits: how many lock paths get re-built, and so re-hit,
    // depends on the pointer-keyed transfer memo and varies between runs.
    Check("summaries_deduped", SummariesDeduped, O.SummariesDeduped);
    Check("arena_bytes", ArenaBytes, O.ArenaBytes);
    return Out;
  }
};

/// Compiles \p Source by calling the layer entry points directly, timing
/// each; returns the report in Compilation::report()'s format, or "" when
/// the front end rejects the program.
std::string compileLayered(const std::string &Source, LayerPass &P,
                           std::vector<Span> *Spans, uint64_t PassId) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Ast;
  P.Ms[0] += timedCall(Spans, LayerNames[0], PassId, [&] {
    Parser Parse(Source, Diags);
    Ast = Parse.parseProgram();
  });
  if (!Ast || Diags.hasErrors())
    return {};
  bool SemaOk = false;
  P.Ms[1] += timedCall(Spans, LayerNames[1], PassId,
                       [&] { SemaOk = runSema(*Ast, Diags); });
  if (!SemaOk)
    return {};
  std::unique_ptr<ir::IrModule> Module;
  P.Ms[2] += timedCall(Spans, LayerNames[2], PassId,
                       [&] { Module = lowerProgram(*Ast, Diags); });
  if (!Module || Diags.hasErrors())
    return {};
  std::unique_ptr<analysis::CallGraph> CG;
  P.Ms[3] += timedCall(Spans, LayerNames[3], PassId, [&] {
    CG = std::make_unique<analysis::CallGraph>(*Module);
  });
  std::unique_ptr<PointsToAnalysis> PT;
  P.Ms[4] += timedCall(Spans, LayerNames[4], PassId, [&] {
    PT = std::make_unique<PointsToAnalysis>(*Module);
  });
  InferenceResult Inferred;
  InferenceStats Stats;
  P.Ms[5] += timedCall(Spans, LayerNames[5], PassId, [&] {
    InferenceOptions Options;
    Options.K = 3;
    Options.Jobs = 1;
    LockInference Inference(*Module, *PT, *CG, Options);
    Inferred = Inference.run();
    Stats = Inference.stats();
  });
  std::string Report;
  P.Ms[6] += timedCall(Spans, LayerNames[6], PassId, [&] {
    Report = ir::printIrModule(*Module, [&Inferred](uint32_t SectionId) {
      return Inferred.annotate(SectionId);
    });
  });

  char Line[96];
  for (const auto &Section : Inferred.sections()) {
    std::snprintf(Line, sizeof(Line), "; section #%u in ", Section.SectionId);
    Report += Line;
    Report += Section.Function ? Section.Function->name() : std::string("?");
    Report += ": ";
    Report += Section.Locks.str();
    Report += "\n";
  }
  LockCensus Census = Inferred.census();
  std::snprintf(Line, sizeof(Line),
                "; locks: fine-ro=%u fine-rw=%u coarse-ro=%u coarse-rw=%u\n",
                Census.FineRO, Census.FineRW, Census.CoarseRO,
                Census.CoarseRW);
  Report += Line;

  P.SourceBytes += Source.size();
  P.Functions += Module->functions().size();
  P.Sections += Module->numAtomicSections();
  P.Locks += Census.total();
  P.InternerNodes += Stats.InternerNodes;
  P.InternerHits += Stats.InternerHits;
  P.SummariesDeduped += Stats.Summaries.Deduped;
  P.ArenaBytes += Stats.ArenaBytes;
  return Report;
}

/// Wall times of one compile() pass: the whole corpus, and the mean
/// compile of a shallow program and of a megaprogram.
struct PassTimes {
  double Total = 0, Shallow = 0, Mega = 0;
};

/// One timed pass of compile() over the corpus; checks every report.
PassTimes compilePass(std::vector<CorpusProgram> &Corpus, Result &R) {
  CompileOptions Options;
  Options.K = 3;
  Options.Jobs = 1;
  PassTimes Times;
  for (CorpusProgram &P : Corpus) {
    std::string Report;
    Clock::time_point T0 = Clock::now();
    {
      std::unique_ptr<Compilation> Comp = compile(P.Source, Options);
      if (Comp->ok())
        Report = Comp->report();
    }
    double Seconds = secondsSince(T0);
    Times.Total += Seconds;
    if (P.Name.rfind("shallow", 0) == 0)
      Times.Shallow += Seconds / GeneratedPerKind;
    else if (P.Name.rfind("mega", 0) == 0)
      Times.Mega += Seconds / GeneratedPerKind;
    ++R.Attempted;
    if (Report.empty())
      R.fail(P.Name + ": compile failed");
    else if (P.Expected.empty())
      P.Expected = std::move(Report);
    else if (Report != P.Expected)
      R.fail(P.Name + (P.Golden ? ": report differs from its .golden"
                                : ": report differs from the first pass"));
  }
  return Times;
}

} // namespace

void lockbench::runCold(const Config &C, Result &R, SpanLog &Log) {
  std::vector<CorpusProgram> Corpus;
  Result SetupResult;
  double SetupS = medianSetupSeconds(
      51,
      [&] {
        Corpus.clear();
        SetupResult = Result();
      },
      [&] { Corpus = buildCorpus(C, SetupResult); });
  R.Failed += SetupResult.Failed;
  R.Failures = SetupResult.Failures;
  uint64_t Bytes = 0, Lines = 0;
  for (const CorpusProgram &P : Corpus) {
    Bytes += P.Source.size();
    Lines += static_cast<uint64_t>(
        std::count(P.Source.begin(), P.Source.end(), '\n'));
  }
  R.note("corpus_programs", static_cast<double>(Corpus.size()));
  R.note("corpus_bytes", static_cast<double>(Bytes));
  R.note("corpus_lines", static_cast<double>(Lines));

  // Warm-up pass: untimed; fixes the generated programs' expected reports.
  compilePass(Corpus, R);

  const double RssMb = peakRssMb();
  const size_t MinPasses = 3, MaxPasses = 200;
  std::vector<PassTimes> Passes;
  Clock::time_point Start = Clock::now();

  if (!C.Trace) {
    while (Passes.size() < MinPasses ||
           (secondsSince(Start) < C.Seconds && Passes.size() < MaxPasses))
      Passes.push_back(compilePass(Corpus, R));
    // The layer-by-layer pipeline must reproduce compile() exactly; checked
    // once, outside the timed passes.
    for (const CorpusProgram &P : Corpus) {
      LayerPass Unused;
      ++R.Attempted;
      if (compileLayered(P.Source, Unused, nullptr, 0) != P.Expected)
        R.fail(P.Name + ": layered report differs from compile()");
    }
    std::vector<double> Total, Shallow, Mega;
    for (const PassTimes &P : Passes) {
      Total.push_back(P.Total);
      Shallow.push_back(P.Shallow);
      Mega.push_back(P.Mega);
    }
    R.add("setup_s", SetupS, "s");
    R.add("throughput_per_s", static_cast<double>(Lines) / median(Total),
          "1/s");
    R.add("light_op_us", median(Shallow) * 1e6, "us");
    R.add("heavy_op_us", median(Mega) * 1e6, "us");
    R.add("peak_rss_mb", RssMb, "MiB");
    R.note("compile_s", median(Total));
    R.note("passes", static_cast<double>(Passes.size()));
    return;
  }

  // Traced run: untraced compile() passes and traced layered passes in
  // ABBA order, so drift on the host hits both sides alike.
  std::vector<Span> Spans;
  std::vector<LayerPass> Layered;
  std::vector<double> LayeredWall;
  for (size_t I = 0; Layered.size() < MinPasses || Passes.size() < MinPasses ||
                     (secondsSince(Start) < C.Seconds && I < MaxPasses);
       ++I) {
    bool Traced = (I % 4 == 1) || (I % 4 == 2);
    if (!Traced) {
      Passes.push_back(compilePass(Corpus, R));
      continue;
    }
    LayerPass P;
    Clock::time_point T0 = Clock::now();
    for (const CorpusProgram &Prog : Corpus) {
      ++R.Attempted;
      if (compileLayered(Prog.Source, P, &Spans, Layered.size()) !=
          Prog.Expected)
        R.fail(Prog.Name + ": layered report differs from compile()");
    }
    LayeredWall.push_back(secondsSince(T0));
    std::string Differ =
        Layered.empty() ? std::string() : P.countsDiffer(Layered.front());
    if (!Differ.empty())
      R.fail("layer counts differ between passes: " + Differ);
    Layered.push_back(P);
  }
  Log.merge(Spans);

  std::vector<double> Unaccounted;
  for (size_t I = 0; I < Layered.size(); ++I) {
    double Covered = 0;
    for (double Ms : Layered[I].Ms)
      Covered += Ms / 1e3;
    Unaccounted.push_back((LayeredWall[I] - Covered) / LayeredWall[I]);
  }
  for (unsigned L = 0; L < NumLayers; ++L) {
    std::vector<double> V;
    for (const LayerPass &P : Layered)
      V.push_back(P.Ms[L]);
    R.add(LayerNames[L], median(V), "ms");
  }
  R.add("pipeline.unaccounted_share", median(Unaccounted), "ratio");
  const LayerPass &First = Layered.front();
  R.add("lang.source_bytes", static_cast<double>(First.SourceBytes), "bytes");
  R.add("ir.functions", static_cast<double>(First.Functions), "count");
  R.add("ir.sections", static_cast<double>(First.Sections), "count");
  R.add("infer.locks", static_cast<double>(First.Locks), "count");
  R.add("infer.interner_nodes", static_cast<double>(First.InternerNodes),
        "count");
  std::vector<double> Hits;
  for (const LayerPass &P : Layered)
    Hits.push_back(static_cast<double>(P.InternerHits));
  R.add("infer.interner_hits", median(Hits), "count");
  R.add("infer.summaries_deduped",
        static_cast<double>(First.SummariesDeduped), "count");
  R.add("infer.arena_bytes", static_cast<double>(First.ArenaBytes), "bytes");
  std::vector<double> Total;
  for (const PassTimes &P : Passes)
    Total.push_back(P.Total);
  R.add("trace_overhead_pct",
        (median(LayeredWall) / median(Total) - 1.0) * 100.0, "%");
  R.note("passes", static_cast<double>(Passes.size()));
  R.note("traced_passes", static_cast<double>(Layered.size()));
}
