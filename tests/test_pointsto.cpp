//===--- test_pointsto.cpp - Steensgaard analysis tests ------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pointsto/Steensgaard.h"

using namespace lockin;
using namespace lockin::ir;
using namespace lockin::test;

namespace {

const Variable *findVar(Compilation &C, const char *Fn, const char *Name) {
  const IrFunction *F = C.module().findFunction(Fn);
  EXPECT_NE(F, nullptr);
  for (const auto &V : F->variables())
    if (V->name() == Name)
      return V.get();
  ADD_FAILURE() << "no variable " << Name << " in " << Fn;
  return nullptr;
}

TEST(PointsTo, CopyUnifiesPointees) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void f() { s* a = new s; s* b = new s; a = b; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  const Variable *B = findVar(*C, "f", "b");
  // a = b merges what a and b can point to, so both allocation sites land
  // in one region.
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(A)),
            PT.derefRegion(PT.regionOfVarCell(B)));
  EXPECT_EQ(PT.regionOfAllocSite(0), PT.regionOfAllocSite(1));
}

TEST(PointsTo, UnrelatedAllocationsStayDisjoint) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void f() { s* a = new s; s* b = new s; a->x = 1; b->x = 2; }");
  const PointsToAnalysis &PT = C->pointsTo();
  EXPECT_NE(PT.regionOfAllocSite(0), PT.regionOfAllocSite(1));
}

TEST(PointsTo, AddressOfPointsAtVariableCell) {
  std::unique_ptr<Compilation> C =
      compileOk("void f() { int a; int* p = &a; *p = 3; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  const Variable *P = findVar(*C, "f", "p");
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(P)), PT.regionOfVarCell(A));
}

TEST(PointsTo, StoreUnifiesThroughHeap) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct cell { int* v; };\n"
      "void f() { cell* c = new cell; int* p = new int[1];\n"
      "  c->v = p; int* q = c->v; *q = 1; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *P = findVar(*C, "f", "p");
  const Variable *Q = findVar(*C, "f", "q");
  // q reads back what p stored, so their pointees collapse.
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(P)),
            PT.derefRegion(PT.regionOfVarCell(Q)));
}

TEST(PointsTo, ListExampleSeparatesContainersAndElements) {
  // The regions of the paper's Fig. 1: list headers (L) and elements (E)
  // must be distinct regions, with E the deref of the head field.
  std::unique_ptr<Compilation> C = compileOk(
      "struct elem { elem* next; int* data; };\n"
      "struct list { elem* head; };\n"
      "void push(list* l) { elem* e = new elem; e->next = l->head; "
      "l->head = e; }\n"
      "int main() { list* l = new list; push(l); return 0; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *L = findVar(*C, "push", "l");
  const Variable *E = findVar(*C, "push", "e");
  RegionId Lists = PT.derefRegion(PT.regionOfVarCell(L));
  RegionId Elems = PT.derefRegion(PT.regionOfVarCell(E));
  ASSERT_NE(Lists, InvalidRegion);
  ASSERT_NE(Elems, InvalidRegion);
  EXPECT_NE(Lists, Elems);
  // Dereferencing a list cell (reading head) reaches the element region.
  EXPECT_EQ(PT.derefRegion(Lists), Elems);
  // elem.next points back into the element region (recursive type).
  EXPECT_EQ(PT.derefRegion(Elems), Elems)
      << "next-field self-loop should collapse into the element region";
}

TEST(PointsTo, CallUnifiesArgsWithParams) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void touch(s* p) { p->x = 1; }\n"
      "void f() { s* a = new s; touch(a); }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  const Variable *P = findVar(*C, "touch", "p");
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(A)),
            PT.derefRegion(PT.regionOfVarCell(P)));
}

TEST(PointsTo, ReturnUnifiesWithCallResult) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "s* make() { return new s; }\n"
      "void f() { s* a = make(); a->x = 2; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(A)), PT.regionOfAllocSite(0));
}

TEST(PointsTo, SpawnUnifiesArgsWithParams) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void w(s* p) { p->x = 1; }\n"
      "void f() { s* a = new s; spawn w(a); }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  const Variable *P = findVar(*C, "w", "p");
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(A)),
            PT.derefRegion(PT.regionOfVarCell(P)));
}

TEST(PointsTo, MayAliasIsRegionEquality) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void f(s* a, s* b) { if (a == b) { } a->x = 1; }\n"
      "void g() { s* p = new s; s* q = new s; f(p, p); q->x = 2; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *A = findVar(*C, "f", "a");
  const Variable *B = findVar(*C, "f", "b");
  RegionId RA = PT.derefRegion(PT.regionOfVarCell(A));
  RegionId RB = PT.derefRegion(PT.regionOfVarCell(B));
  // Both params flow from p: one region.
  EXPECT_TRUE(PT.mayAlias(RA, RB));
  const Variable *Q = findVar(*C, "g", "q");
  EXPECT_FALSE(PT.mayAlias(RA, PT.derefRegion(PT.regionOfVarCell(Q))));
  EXPECT_FALSE(PT.mayAlias(InvalidRegion, InvalidRegion));
}

TEST(PointsTo, RegionIdsAreDenseAndStable) {
  const char *Source = "struct s { int x; };\n"
                       "void f() { s* a = new s; a->x = 1; }";
  std::unique_ptr<Compilation> C1 = compileOk(Source);
  std::unique_ptr<Compilation> C2 = compileOk(Source);
  EXPECT_EQ(C1->pointsTo().numRegions(), C2->pointsTo().numRegions());
  EXPECT_EQ(C1->pointsTo().regionOfAllocSite(0),
            C2->pointsTo().regionOfAllocSite(0));
  EXPECT_LT(C1->pointsTo().regionOfAllocSite(0),
            C1->pointsTo().numRegions());
}

TEST(PointsTo, DescribeRegionListsMembersThenDerefSources) {
  // Members in cell order (globals, sites, each function's variables),
  // then every region whose deref lands here, each named once.
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\nvoid f() { int* p = &g; *p = 1; }");
  const PointsToAnalysis &PT = C->pointsTo();
  RegionId G = PT.regionOfVarCell(C->module().findGlobal("g"));
  RegionId P = PT.regionOfVarCell(findVar(*C, "f", "p"));
  // p and the temp holding &g (regions 1 and 2) both point at g.
  EXPECT_EQ(P, 1u);
  EXPECT_EQ(PT.describeRegion(G), "{&g,*region1,*region2}");
  EXPECT_EQ(PT.describeRegion(P), "{&f::p}");
  EXPECT_EQ(PT.describeRegion(InvalidRegion), "<invalid>");
  EXPECT_EQ(PT.describeRegion(PT.numRegions()), "<out-of-range>");
}

/// Every points-to answer for \p C's module as text: the region of each
/// variable (globals, then each function's variables in id order), of each
/// allocation site, and the deref region of each region ("-" for
/// InvalidRegion).
std::string pointsToTables(Compilation &C) {
  const PointsToAnalysis &PT = C.pointsTo();
  auto Id = [](RegionId R) {
    return R == InvalidRegion ? std::string("-") : std::to_string(R);
  };
  std::string Out = "globals:";
  for (const auto &G : C.module().globals())
    Out += ' ' + Id(PT.regionOfVarCell(G.get()));
  for (const auto &F : C.module().functions()) {
    Out += '\n' + F->name() + ":";
    for (const auto &V : F->variables())
      Out += ' ' + Id(PT.regionOfVarCell(V.get()));
  }
  Out += "\nsites:";
  for (const AllocSite &Site : C.module().allocSites())
    Out += ' ' + Id(PT.regionOfAllocSite(Site.Id));
  Out += "\nderef:";
  for (RegionId R = 0; R < PT.numRegions(); ++R)
    Out += ' ' + Id(PT.derefRegion(R));
  return Out + "\n";
}

TEST(PointsTo, GoldenAnswersArePinned) {
  // Region ids are embedded in every golden report and in the daemon's
  // cache keys, so the numbering must not move.
  std::unique_ptr<Compilation> Mutual3 =
      compileOk(readFile(goldenDir() + "mutual3.atom"));
  EXPECT_EQ(pointsToTables(*Mutual3),
            "globals: 0\n"
            "phaseA: 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"
            "phaseB: 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32\n"
            "phaseC: 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48\n"
            "main: 49 50 51 52 53 54 55 56 57 58 59 60 61\n"
            "sites: 1 1 1\n"
            "deref: 1 1 1 1 1 - - 1 1 - - 1 1 - 1 1 1 1 1 - - 1 - 1 1 - 1 1 "
            "- - - 62 1 1 62 1 - - 1 1 1 1 - - 1 1 - 1 1 1 1 1 1 1 - 1 1 1 1 "
            "62 1 1 -\n");
  std::unique_ptr<Compilation> PtrChain =
      compileOk(readFile(goldenDir() + "ptrchain.atom"));
  EXPECT_EQ(pointsToTables(*PtrChain),
            "globals: 0 1\n"
            "pickSlot: 3 4 5 6 7 8\n"
            "readThrough: 9 10 11 12 13 14 15 16\n"
            "writeThrough: 17 18 19 20 21 22 23 24\n"
            "main: 25 26 27 28 29 30 31 32 33 34 35 36 37\n"
            "sites: 2 2 2 2\n"
            "deref: 2 2 2 2 2 - - 2 2 2 2 2 2 - - 2 2 2 2 2 2 2 2 - - 2 2 2 2 "
            "2 - 2 - 2 2 2 - 2\n");
}

TEST(PointsTo, VariableOfAnotherModuleHasNoRegion) {
  std::unique_ptr<Compilation> A = compileOk("int g;\nvoid f() { int x; }");
  std::unique_ptr<Compilation> B = compileOk("int g;\nvoid f() { int x; }");
  const PointsToAnalysis &PT = A->pointsTo();
  EXPECT_NE(PT.regionOfVarCell(A->module().findGlobal("g")), InvalidRegion);
  EXPECT_EQ(PT.regionOfVarCell(B->module().findGlobal("g")), InvalidRegion);
  EXPECT_EQ(PT.regionOfVarCell(findVar(*B, "f", "x")), InvalidRegion);
}

TEST(PointsTo, DerefOfNeverAssignedPointerIsInvalid) {
  std::unique_ptr<Compilation> C = compileOk("void f() { int* p; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *P = findVar(*C, "f", "p");
  EXPECT_EQ(PT.derefRegion(PT.regionOfVarCell(P)), InvalidRegion);
}

TEST(PointsTo, NullAssignedPointerGetsEmptyRegion) {
  // p = null lowers through a Copy, which eagerly creates (empty) pointee
  // classes; dereferencing reaches a valid region with no members.
  std::unique_ptr<Compilation> C = compileOk("void f() { int* p = null; }");
  const PointsToAnalysis &PT = C->pointsTo();
  const Variable *P = findVar(*C, "f", "p");
  EXPECT_NE(PT.regionOfVarCell(P), InvalidRegion);
}

} // namespace
