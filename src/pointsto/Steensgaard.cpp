//===--- Steensgaard.cpp - Unification-based points-to analysis ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Steensgaard.h"

#include <string_view>

using namespace lockin;
using namespace lockin::ir;

static constexpr uint32_t NoCell = ~0u;

PointsToAnalysis::Cell PointsToAnalysis::find(Cell C) {
  while (Parent[C] != C) {
    Parent[C] = Parent[Parent[C]];
    C = Parent[C];
  }
  return C;
}

void PointsToAnalysis::unify(Cell A, Cell B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return;
  // Deterministic root choice: the smaller index wins. Cells are created in
  // a fixed order, so region numbering is reproducible.
  if (B < A)
    std::swap(A, B);
  Cell PointeeA = Pointee[A];
  Cell PointeeB = Pointee[B];
  Parent[B] = A;
  if (PointeeB == NoCell)
    return;
  if (PointeeA == NoCell) {
    Pointee[A] = PointeeB;
    return;
  }
  // Both classes point somewhere: their targets collapse too. This is the
  // recursive step that makes Steensgaard's analysis almost linear.
  unify(PointeeA, PointeeB);
}

PointsToAnalysis::Cell PointsToAnalysis::pointeeCell(Cell C) {
  C = find(C);
  if (Pointee[C] == NoCell) {
    Cell Fresh = static_cast<Cell>(Parent.size());
    Parent.push_back(Fresh);
    Pointee.push_back(NoCell);
    Pointee[C] = Fresh;
  }
  return find(Pointee[C]);
}

PointsToAnalysis::Cell
PointsToAnalysis::cellOfVar(const ir::Variable *V) const {
  if (V->isGlobal()) {
    const auto &Globals = Module.globals();
    return V->id() < Globals.size() && Globals[V->id()].get() == V ? V->id()
                                                                   : NoCell;
  }
  const IrFunction *F = V->owner();
  if (!F || F->index() + 1 >= FunctionBase.size() ||
      Module.functions()[F->index()].get() != F)
    return NoCell;
  Cell C = FunctionBase[F->index()] + V->id();
  return C < FunctionBase[F->index() + 1] ? C : NoCell;
}

void PointsToAnalysis::processStmt(const IrStmt *S,
                                   const IrFunction *Owner) {
  switch (S->kind()) {
  case IrStmt::Kind::Copy: {
    const auto *C = cast<CopyStmt>(S);
    unify(pointeeCell(cellOfVar(C->def())), pointeeCell(cellOfVar(C->src())));
    return;
  }
  case IrStmt::Kind::AddrOf: {
    const auto *A = cast<AddrOfStmt>(S);
    unify(pointeeCell(cellOfVar(A->def())), cellOfVar(A->target()));
    return;
  }
  case IrStmt::Kind::FieldAddr: {
    const auto *F = cast<FieldAddrStmt>(S);
    unify(pointeeCell(cellOfVar(F->def())), pointeeCell(cellOfVar(F->base())));
    return;
  }
  case IrStmt::Kind::IndexAddr: {
    const auto *Ix = cast<IndexAddrStmt>(S);
    unify(pointeeCell(cellOfVar(Ix->def())),
          pointeeCell(cellOfVar(Ix->base())));
    return;
  }
  case IrStmt::Kind::Load: {
    const auto *L = cast<LoadStmt>(S);
    unify(pointeeCell(cellOfVar(L->def())),
          pointeeCell(pointeeCell(cellOfVar(L->addr()))));
    return;
  }
  case IrStmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    unify(pointeeCell(pointeeCell(cellOfVar(St->addr()))),
          pointeeCell(cellOfVar(St->value())));
    return;
  }
  case IrStmt::Kind::Alloc: {
    const auto *A = cast<AllocStmt>(S);
    unify(pointeeCell(cellOfVar(A->def())), FirstSiteCell + A->siteId());
    return;
  }
  case IrStmt::Kind::Call: {
    const auto *C = cast<CallStmt>(S);
    const IrFunction *Callee = C->callee();
    for (size_t I = 0; I < C->args().size(); ++I)
      unify(pointeeCell(cellOfVar(Callee->param(static_cast<unsigned>(I)))),
            pointeeCell(cellOfVar(C->args()[I])));
    if (C->def() && Callee->retVar())
      unify(pointeeCell(cellOfVar(C->def())),
            pointeeCell(cellOfVar(Callee->retVar())));
    return;
  }
  case IrStmt::Kind::Spawn: {
    const auto *Sp = cast<SpawnIrStmt>(S);
    for (size_t I = 0; I < Sp->args().size(); ++I)
      unify(pointeeCell(
                cellOfVar(Sp->callee()->param(static_cast<unsigned>(I)))),
            pointeeCell(cellOfVar(Sp->args()[I])));
    return;
  }
  case IrStmt::Kind::Return: {
    const auto *R = cast<ReturnIrStmt>(S);
    if (Owner->retVar() && R->value())
      unify(pointeeCell(cellOfVar(Owner->retVar())),
            pointeeCell(cellOfVar(R->value())));
    return;
  }
  case IrStmt::Kind::ConstInt:
  case IrStmt::Kind::ConstNull:
  case IrStmt::Kind::IntBin:
  case IrStmt::Kind::Cmp:
  case IrStmt::Kind::Assert:
  case IrStmt::Kind::Seq:
  case IrStmt::Kind::If:
  case IrStmt::Kind::While:
  case IrStmt::Kind::Atomic:
    return;
  }
}

PointsToAnalysis::PointsToAnalysis(const IrModule &M) : Module(M) {
  // Create the location cells in their canonical order (see the header).
  FirstSiteCell = static_cast<Cell>(M.globals().size());
  Cell NumCells = FirstSiteCell + static_cast<Cell>(M.allocSites().size());
  FunctionBase.reserve(M.functions().size() + 1);
  for (const auto &F : M.functions()) {
    FunctionBase.push_back(NumCells);
    NumCells += static_cast<Cell>(F->variables().size());
  }
  FunctionBase.push_back(NumCells);
  Parent.resize(NumCells);
  for (Cell C = 0; C < NumCells; ++C)
    Parent[C] = C;
  Pointee.assign(NumCells, NoCell);

  // One pass over every statement; unification is order-insensitive.
  for (const auto &F : M.functions())
    walkStmts(F->body(), [&](const IrStmt *S, WalkContext) {
      processStmt(S, F.get());
      return true;
    });

  // Number the regions: walk location cells in creation order; each root
  // gets an id the first time it is seen.
  std::vector<RegionId> RegionOfRoot(Parent.size(), InvalidRegion);
  std::vector<Cell> RegionRoot; // region -> root cell
  auto RegionOf = [&](Cell Root) {
    if (RegionOfRoot[Root] == InvalidRegion) {
      RegionOfRoot[Root] = static_cast<RegionId>(RegionRoot.size());
      RegionRoot.push_back(Root);
      RegionPointee.push_back(InvalidRegion);
    }
    return RegionOfRoot[Root];
  };
  CellRegion.resize(NumCells);
  for (Cell C = 0; C < NumCells; ++C)
    CellRegion[C] = RegionOf(find(C));

  // A pointee class that contains no variable or allocation site can still
  // be dereferenced through (e.g. chains built only from other pointees):
  // every reachable pointee gets a region too. Regions are visited in id
  // order while new ones are appended, which reaches the closure.
  for (RegionId R = 0; R < RegionRoot.size(); ++R) {
    Cell P = Pointee[RegionRoot[R]];
    if (P == NoCell)
      continue;
    RegionId Target = RegionOf(find(P));
    RegionPointee[R] = Target;
  }
}

RegionId PointsToAnalysis::regionOfVarCell(const ir::Variable *V) const {
  Cell C = cellOfVar(V);
  return C == NoCell ? InvalidRegion : CellRegion[C];
}

RegionId PointsToAnalysis::regionOfAllocSite(uint32_t SiteId) const {
  if (SiteId >= Module.allocSites().size())
    return InvalidRegion;
  return CellRegion[FirstSiteCell + SiteId];
}

RegionId PointsToAnalysis::derefRegion(RegionId R) const {
  if (R == InvalidRegion || R >= RegionPointee.size())
    return InvalidRegion;
  return RegionPointee[R];
}

std::string PointsToAnalysis::describeRegion(RegionId R) const {
  if (R == InvalidRegion)
    return "<invalid>";
  if (R >= numRegions())
    return "<out-of-range>";
  std::string Members;
  auto Add = [&](std::string_view Prefix, std::string_view Name) {
    if (Members.size() >= 80)
      return;
    if (!Members.empty())
      Members += ",";
    Members.append(Prefix).append(Name);
  };
  for (const auto &G : Module.globals())
    if (regionOfVarCell(G.get()) == R)
      Add("&", G->name());
  for (const AllocSite &Site : Module.allocSites())
    if (regionOfAllocSite(Site.Id) == R)
      Add("new#", std::to_string(Site.Id));
  for (const auto &F : Module.functions())
    for (const auto &V : F->variables())
      if (regionOfVarCell(V.get()) == R)
        Add("&" + F->name() + "::", V->name());
  for (RegionId From = 0; From < numRegions(); ++From)
    if (RegionPointee[From] == R)
      Add("*region", std::to_string(From));
  return "{" + Members + "}";
}
