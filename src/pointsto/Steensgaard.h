//===--- Steensgaard.h - Unification-based points-to analysis ---*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steensgaard's flow-insensitive, context-insensitive, unification-based
/// pointer analysis [Steensgaard, POPL'96], the instance the paper uses for
/// both the coarse lock scheme Σ_≡ and the mayAlias oracle (§4.3).
///
/// The abstraction is field-insensitive: every variable has one cell (the
/// location &x), every allocation site has one cell covering the whole
/// object, and each equivalence class of cells (ECR) has at most one
/// pointee class. Pointed-to equivalence classes are the *regions* used as
/// coarse-grain locks; two expressions may alias iff their locations fall
/// in the same region.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_POINTSTO_STEENSGAARD_H
#define LOCKIN_POINTSTO_STEENSGAARD_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lockin {

/// Identifies one points-to region (one pointed-to ECR). Region ids are
/// dense, deterministic across runs, and shared with the lock runtime.
using RegionId = uint32_t;
constexpr RegionId InvalidRegion = ~0u;

/// Runs on construction; region queries afterwards are array reads.
class PointsToAnalysis {
public:
  explicit PointsToAnalysis(const ir::IrModule &M);

  /// Region containing the location &V (the cell that stores V's value).
  RegionId regionOfVarCell(const ir::Variable *V) const;

  /// Region containing every location of objects allocated at \p SiteId.
  RegionId regionOfAllocSite(uint32_t SiteId) const;

  /// Region reached by dereferencing a value stored in \p R, or
  /// InvalidRegion if nothing in R was ever assigned a pointer.
  RegionId derefRegion(RegionId R) const;

  /// Field/array offsets stay within the same (field-insensitive) region.
  RegionId offsetRegion(RegionId R) const { return R; }

  /// Number of region ids handed out; ids are in [0, numRegions()).
  unsigned numRegions() const {
    return static_cast<unsigned>(RegionPointee.size());
  }

  /// Two locations may alias iff they are in the same region.
  bool mayAlias(RegionId A, RegionId B) const {
    return A != InvalidRegion && A == B;
  }

  /// Debug rendering: the variables, allocation sites and regions whose
  /// deref lands in \p R. Built on demand from the cell table; the
  /// member list stops after about 80 characters.
  std::string describeRegion(RegionId R) const;

private:
  using Cell = uint32_t;

  Cell find(Cell C);
  void unify(Cell A, Cell B);
  Cell pointeeCell(Cell C);
  /// The cell of &V, or ~0u when \p V is not a variable of this module.
  Cell cellOfVar(const ir::Variable *V) const;

  /// Adds the unification constraints of statement \p S of \p Owner
  /// (structured statements add none of their own).
  void processStmt(const ir::IrStmt *S, const ir::IrFunction *Owner);

  // Union-find state, used while solving. Parent/pointee are indexed by
  // cell. Location cells come first, in a fixed order: globals (cell =
  // global id), allocation sites, then each function's variables (cell =
  // FunctionBase[function index] + variable id). Pointee-only cells
  // follow.
  std::vector<Cell> Parent;
  std::vector<Cell> Pointee; // ~0u when absent; valid only at roots.
  Cell FirstSiteCell = 0;
  std::vector<Cell> FunctionBase; // by function index, plus one end cell

  // Answers, final once the constructor returns.
  std::vector<RegionId> CellRegion;    // location cell -> region
  std::vector<RegionId> RegionPointee; // region -> deref region

  const ir::IrModule &Module;
};

} // namespace lockin

#endif // LOCKIN_POINTSTO_STEENSGAARD_H
