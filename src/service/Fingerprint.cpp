//===--- Fingerprint.cpp - Content hashes for incremental analysis --------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "service/Fingerprint.h"

#include "ir/IrPrinter.h"
#include "service/Hash.h"

#include <algorithm>
#include <string_view>

using namespace lockin;
using namespace lockin::service;

namespace {

/// Bump when the key derivation changes so stale daemon caches cannot
/// serve entries computed under an older scheme.
constexpr uint64_t KeyFormatVersion = 2;

} // namespace

ModuleFingerprint::ModuleFingerprint(const ir::IrModule &M,
                                     const analysis::CallGraph &CG,
                                     const PointsToAnalysis &PT)
    : M(M), CG(CG), PT(PT) {
  FnHash.resize(CG.numFunctions());
  FrameHash.resize(CG.numFunctions());
  BodyHash.resize(M.numAtomicSections());
  std::string Text; // one buffer, reused for every function
  std::vector<ir::SectionSpan> Spans;
  for (unsigned I = 0; I < CG.numFunctions(); ++I) {
    const ir::IrFunction *F = CG.function(I);
    // Normalized IR, not raw source: whitespace and comment edits keep
    // the hashes; temp numbering is deterministic per function body.
    Text.clear();
    Spans.clear();
    ir::printIrFunction(*F, Text, {}, &Spans);
    std::string_view View(Text);
    ContentHasher Frame, Whole;
    Frame.str(F->name());
    size_t Pos = 0;
    uint64_t Body = 0;
    for (const ir::SectionSpan &S : Spans) {
      if (S.Begin >= Pos) { // not inside the last top-level section
        // The frame keeps the `atomic #N {` line and resumes at the `}`.
        Frame.str(View.substr(Pos, S.Begin - Pos));
        ContentHasher B;
        B.str(View.substr(S.Begin, S.End - S.Begin));
        Body = B.get();
        Whole.u64(Body);
        Pos = S.End;
      }
      BodyHash[S.SectionId] = Body; // a nested section shares its root's
    }
    Frame.str(View.substr(Pos));
    FrameHash[I] = Frame.get();
    Whole.u64(FrameHash[I]);
    FnHash[I] = Whole.get();
  }
  // SCC ids ascend bottom-up, so every callee SCC's hash is final before
  // its callers combine it.
  SccHash.resize(CG.numSccs());
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc) {
    ContentHasher H;
    for (unsigned FnIdx : CG.sccMembers(Scc))
      H.u64(FnHash[FnIdx]);
    for (unsigned Callee : CG.sccCallees(Scc))
      H.u64(SccHash[Callee]);
    SccHash[Scc] = H.get();
  }
}

const std::vector<unsigned> &
ModuleFingerprint::closureFunctions(unsigned Scc) {
  auto It = ClosureMemo.find(Scc);
  if (It != ClosureMemo.end())
    return It->second;
  std::vector<char> SeenScc(CG.numSccs(), 0);
  std::vector<unsigned> Work{Scc};
  SeenScc[Scc] = 1;
  std::vector<unsigned> Fns;
  while (!Work.empty()) {
    unsigned Cur = Work.back();
    Work.pop_back();
    for (unsigned FnIdx : CG.sccMembers(Cur))
      Fns.push_back(FnIdx);
    for (unsigned Callee : CG.sccCallees(Cur)) {
      if (!SeenScc[Callee]) {
        SeenScc[Callee] = 1;
        Work.push_back(Callee);
      }
    }
  }
  std::sort(Fns.begin(), Fns.end());
  return ClosureMemo.emplace(Scc, std::move(Fns)).first->second;
}

uint64_t ModuleFingerprint::regionSignature(unsigned Scc) {
  auto It = RegionSigMemo.find(Scc);
  if (It != RegionSigMemo.end())
    return It->second;

  const std::vector<unsigned> &Fns = closureFunctions(Scc);
  ContentHasher H;
  std::vector<char> Chased(PT.numRegions(), 0);
  // Emit a region id and everything reachable from it by deref; the
  // deref chain stops at the first region already chased (its own chain
  // was emitted when it was first seen) or at InvalidRegion.
  auto Chase = [&](RegionId R) {
    while (true) {
      H.u32(R == InvalidRegion ? ~0u : R);
      if (R == InvalidRegion || Chased[R])
        return;
      Chased[R] = 1;
      R = PT.derefRegion(R);
    }
  };

  for (unsigned FnIdx : Fns) {
    const ir::IrFunction *F = CG.function(FnIdx);
    for (const auto &V : F->variables())
      Chase(PT.regionOfVarCell(V.get()));
  }
  // Globals are visible to every function; closure bodies may reach any
  // of them.
  for (const auto &G : M.globals())
    Chase(PT.regionOfVarCell(G.get()));
  // Allocation sites lexically inside closure functions.
  std::vector<std::string_view> ClosureNames;
  ClosureNames.reserve(Fns.size());
  for (unsigned FnIdx : Fns)
    ClosureNames.push_back(CG.function(FnIdx)->name());
  std::sort(ClosureNames.begin(), ClosureNames.end());
  for (const ir::AllocSite &Site : M.allocSites())
    if (std::binary_search(ClosureNames.begin(), ClosureNames.end(),
                           std::string_view(Site.InFunction)))
      Chase(PT.regionOfAllocSite(Site.Id));

  uint64_t Sig = H.get();
  RegionSigMemo.emplace(Scc, Sig);
  return Sig;
}

uint64_t ModuleFingerprint::sectionKey(const ir::IrFunction *F,
                                       unsigned Ordinal, unsigned K) {
  unsigned FnIdx = CG.indexOf(F);
  unsigned Scc = CG.sccOf(FnIdx);
  ContentHasher H;
  H.u64(KeyFormatVersion);
  H.u32(K);
  H.str(F->name());
  H.u64(FrameHash[FnIdx]);
  H.u64(BodyHash[F->atomicSections()[Ordinal]->sectionId()]);
  H.u32(Ordinal);
  // The section reads its callees' summaries; inside a recursive SCC
  // those depend on F's own body, outside the section too.
  for (unsigned Callee : CG.sccCallees(Scc))
    H.u64(SccHash[Callee]);
  if (CG.isRecursive(Scc))
    H.u64(SccHash[Scc]);
  H.u64(regionSignature(Scc));
  return H.get();
}
