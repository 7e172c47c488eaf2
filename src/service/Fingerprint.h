//===--- Fingerprint.h - Content hashes for incremental analysis -*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the content-hash components of a summary-cache key for one
/// compiled module. Each function is printed once as normalized IR (the
/// same canonical form the golden tests compare), so formatting-only
/// source edits hash identically and any semantic edit does not. From
/// that one text:
///
///  - bodyHash: per top-level atomic section, the hash of its body text.
///    A nested section shares the hash of the top-level section around
///    it.
///  - frameHash: per function, the text outside every top-level section
///    body (each `atomic #N {` line stays as the section's placeholder).
///    Names are not identities: a nested scope may shadow a local, so one
///    body text can bind different variables. The frame pins where each
///    section sits among the statements around it, and the region
///    signature below pins every variable's cell, in declaration order,
///    with the pointers into it (an uninitialized local prints no IR).
///  - functionHash: the frame and body hashes combined.
///  - sccClosureHash: per condensation SCC, the hash of every member's
///    functionHash combined with the closure hashes of all callee SCCs —
///    i.e. a digest of the normalized bodies of *every function the SCC
///    can transitively call*.
///  - regionSignature: per SCC, a digest of the points-to environment
///    the closure observes: the raw region id of every variable cell in
///    closure functions and of every global and closure allocation site,
///    plus the deref-edge structure between those regions. Raw ids (not
///    an isomorphism-canonical renaming) are deliberate: the rendered
///    lock text embeds region numbers ("region#1:rw"), so a cache hit is
///    only byte-identical to a cold run when the numbering also matches.
///    Renumbering caused by unrelated edits therefore (conservatively)
///    misses instead of serving stale text.
///
/// A section's inference starts from the empty set at its end and reads
/// only its body, its callees' summaries and the points-to partition, so
/// sectionKey() combines k, the function's name and frame, the body hash
/// of the section's top-level section, its lexical ordinal, the closure
/// hash of every callee SCC (and of the function's own SCC when that is
/// recursive) and the region signature. An edit inside one top-level
/// section moves only the keys of that section and the ones nested in it.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_FINGERPRINT_H
#define LOCKIN_SERVICE_FINGERPRINT_H

#include "analysis/CallGraph.h"
#include "ir/Ir.h"
#include "pointsto/Steensgaard.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace service {

class ModuleFingerprint {
public:
  /// Frame, body, function and SCC closure hashes are computed eagerly
  /// (one print of each function); region signatures lazily per queried
  /// SCC.
  ModuleFingerprint(const ir::IrModule &M, const analysis::CallGraph &CG,
                    const PointsToAnalysis &PT);

  uint64_t functionHash(unsigned FnIdx) const { return FnHash[FnIdx]; }
  uint64_t sccClosureHash(unsigned Scc) const { return SccHash[Scc]; }

  /// Memoized; see file comment for what the signature covers.
  uint64_t regionSignature(unsigned Scc);

  /// The summary-cache key for the \p Ordinal-th atomic section of \p F
  /// at expression-lock depth \p K.
  uint64_t sectionKey(const ir::IrFunction *F, unsigned Ordinal,
                      unsigned K);

private:
  /// Function indices transitively callable from \p Scc (including its
  /// own members), ascending; memoized.
  const std::vector<unsigned> &closureFunctions(unsigned Scc);

  const ir::IrModule &M;
  const analysis::CallGraph &CG;
  const PointsToAnalysis &PT;

  std::vector<uint64_t> FnHash;    // by CG function index
  std::vector<uint64_t> FrameHash; // by CG function index
  std::vector<uint64_t> BodyHash;  // by section id
  std::vector<uint64_t> SccHash;   // by SCC id
  std::unordered_map<unsigned, std::vector<unsigned>> ClosureMemo;
  std::unordered_map<unsigned, uint64_t> RegionSigMemo;
};

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_FINGERPRINT_H
