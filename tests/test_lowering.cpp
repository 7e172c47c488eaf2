//===--- test_lowering.cpp - AST-to-IR lowering tests --------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/IrPrinter.h"

#include <algorithm>
#include <tuple>

using namespace lockin;
using namespace lockin::ir;
using namespace lockin::test;

namespace {

/// Collects the kinds of all statements but Seq in execution order.
void collectInsts(const IrStmt *S, std::vector<IrStmt::Kind> &Out) {
  walkStmts(S, [&](const IrStmt *St, WalkContext) {
    if (St->kind() != IrStmt::Kind::Seq)
      Out.push_back(St->kind());
    return true;
  });
}

std::vector<IrStmt::Kind> instKinds(Compilation &C, const char *Fn) {
  std::vector<IrStmt::Kind> Kinds;
  collectInsts(C.module().findFunction(Fn)->body(), Kinds);
  return Kinds;
}

TEST(Lowering, FieldReadNormalizesToAddrPlusLoad) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\nint f(s* p) { return p->x; }");
  std::vector<IrStmt::Kind> Kinds = instKinds(*C, "f");
  ASSERT_EQ(Kinds.size(), 3u);
  EXPECT_EQ(Kinds[0], IrStmt::Kind::FieldAddr);
  EXPECT_EQ(Kinds[1], IrStmt::Kind::Load);
  EXPECT_EQ(Kinds[2], IrStmt::Kind::Return);
}

TEST(Lowering, FieldWriteNormalizesToAddrPlusStore) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\nvoid f(s* p, int v) { p->x = v; }");
  std::vector<IrStmt::Kind> Kinds = instKinds(*C, "f");
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[0], IrStmt::Kind::FieldAddr);
  EXPECT_EQ(Kinds[1], IrStmt::Kind::Store);
}

TEST(Lowering, IndexedAccessUsesIndexAddr) {
  std::unique_ptr<Compilation> C =
      compileOk("void f(int* a, int i, int v) { a[i] = v; }");
  std::vector<IrStmt::Kind> Kinds = instKinds(*C, "f");
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[0], IrStmt::Kind::IndexAddr);
  EXPECT_EQ(Kinds[1], IrStmt::Kind::Store);
}

TEST(Lowering, ShortCircuitAndBecomesNestedIf) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { s* n; };\n"
      "void f(s* p) { if (p != null && p->n != null) { } }");
  // The right operand's evaluation (FieldAddr+Load+Cmp) must be guarded by
  // an If on the left operand's result.
  std::vector<IrStmt::Kind> Kinds = instKinds(*C, "f");
  unsigned IfCount = 0;
  for (IrStmt::Kind K : Kinds)
    if (K == IrStmt::Kind::If)
      ++IfCount;
  EXPECT_EQ(IfCount, 2u) << "one guard if + the statement if";
}

TEST(Lowering, WhileConditionInPrelude) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { s* n; };\n"
      "void f(s* p) { while (p != null) p = p->n; }");
  const IrFunction *F = C->module().findFunction("f");
  std::vector<IrStmt::Kind> Kinds;
  collectInsts(F->body(), Kinds);
  ASSERT_FALSE(Kinds.empty());
  EXPECT_EQ(Kinds[0], IrStmt::Kind::While);
  // Prelude re-evaluates the condition: it must contain the Cmp.
  EXPECT_EQ(Kinds[1], IrStmt::Kind::ConstNull);
  EXPECT_EQ(Kinds[2], IrStmt::Kind::Cmp);
}

TEST(Lowering, AddressTakenMarking) {
  std::unique_ptr<Compilation> C = compileOk(
      "void f() { int a; int b; int* p = &a; *p = 1; b = 2; }");
  const IrFunction *F = C->module().findFunction("f");
  bool FoundA = false, FoundB = false;
  for (const auto &V : F->variables()) {
    if (V->name() == "a") {
      EXPECT_TRUE(V->isAddressTaken());
      FoundA = true;
    }
    if (V->name() == "b") {
      EXPECT_FALSE(V->isAddressTaken());
      FoundB = true;
    }
  }
  EXPECT_TRUE(FoundA && FoundB);
}

TEST(Lowering, AtomicSectionsNumbered) {
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\n"
      "void f() { atomic { g = 1; } atomic { g = 2; } }\n"
      "void h() { atomic { g = 3; } }");
  EXPECT_EQ(C->module().numAtomicSections(), 3u);
  EXPECT_EQ(C->module().findFunction("f")->atomicSections().size(), 2u);
  EXPECT_EQ(C->module().findFunction("h")->atomicSections().size(), 1u);
}

TEST(Lowering, AllocSitesRecorded) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void f(int n) { s* a = new s; int* b = new int[n]; }");
  const auto &Sites = C->module().allocSites();
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_FALSE(Sites[0].IsArray);
  EXPECT_NE(Sites[0].Elem, nullptr);
  EXPECT_TRUE(Sites[1].IsArray);
  EXPECT_EQ(Sites[1].Elem, nullptr);
}

TEST(Lowering, RetVarOnlyForNonVoid) {
  std::unique_ptr<Compilation> C =
      compileOk("int f() { return 1; }\nvoid g() { }");
  EXPECT_NE(C->module().findFunction("f")->retVar(), nullptr);
  EXPECT_EQ(C->module().findFunction("g")->retVar(), nullptr);
}

TEST(Lowering, GlobalInitsRecorded) {
  std::unique_ptr<Compilation> C = compileOk("int a = 7;\nint* b;\nint c;");
  const IrModule &M = C->module();
  ASSERT_EQ(M.GlobalInits.size(), 3u);
  EXPECT_FALSE(M.GlobalInits[0].IsNull);
  EXPECT_EQ(M.GlobalInits[0].IntValue, 7);
  EXPECT_TRUE(M.GlobalInits[1].IsNull);
}

TEST(Lowering, VariableOwnership) {
  std::unique_ptr<Compilation> C =
      compileOk("int g;\nvoid f(int a) { int b = a; }");
  const IrFunction *F = C->module().findFunction("f");
  for (const auto &V : F->variables())
    EXPECT_EQ(V->owner(), F);
  EXPECT_EQ(C->module().findGlobal("g")->owner(), nullptr);
}

TEST(Lowering, PrinterShowsUntransformedAtomic) {
  std::unique_ptr<Compilation> C =
      compileOk("int g;\nvoid f() { atomic { g = 1; } }");
  std::string Text = printIrModule(C->module());
  EXPECT_NE(Text.find("atomic #0"), std::string::npos);
}

TEST(Lowering, NegationLowersToSubtraction) {
  std::unique_ptr<Compilation> C = compileOk("int f(int a) { return -a; }");
  std::vector<IrStmt::Kind> Kinds = instKinds(*C, "f");
  EXPECT_EQ(Kinds[0], IrStmt::Kind::ConstInt);
  EXPECT_EQ(Kinds[1], IrStmt::Kind::IntBin);
}

/// An if/else, a loop whose prelude and body both hold statements, an
/// atomic inside that loop, and a loop inside an atomic.
const char *const WalkerSource =
    "int g;\n"
    "void f(int n) {\n"
    "  if (n == 0) { g = 1; } else { g = 2; }\n"
    "  while (n > 0) { atomic { g = n; } n = n - 1; }\n"
    "  atomic { while (g > 0) { g = g - 1; } }\n"
    "}";

using Visit = std::tuple<IrStmt::Kind, bool, bool>; // kind, InLoop, InAtomic

std::vector<Visit> walkVisits(const IrStmt *Root, bool EnterAtomics) {
  std::vector<Visit> Seen;
  walkStmts(Root, [&](const IrStmt *S, WalkContext Ctx) {
    Seen.emplace_back(S->kind(), Ctx.InLoop, Ctx.InAtomic);
    return EnterAtomics || S->kind() != IrStmt::Kind::Atomic;
  });
  return Seen;
}

TEST(Walker, PreOrderWithLoopAndAtomicContext) {
  std::unique_ptr<Compilation> C = compileOk(WalkerSource);
  using K = IrStmt::Kind;
  const bool T = true, F = false;
  std::vector<Visit> Expected = {
      // Function body; if (n == 0) { g = 1; } else { g = 2; }
      {K::Seq, F, F}, {K::ConstInt, F, F}, {K::Cmp, F, F}, {K::If, F, F},
      {K::Seq, F, F}, {K::ConstInt, F, F}, {K::Copy, F, F},
      {K::Seq, F, F}, {K::ConstInt, F, F}, {K::Copy, F, F},
      // while: prelude n > 0, then the body
      {K::While, F, F},
      {K::Seq, T, F}, {K::ConstInt, T, F}, {K::Cmp, T, F},
      {K::Seq, T, F},
      // atomic { g = n; } inside the loop
      {K::Atomic, T, F}, {K::Seq, T, T}, {K::Copy, T, T},
      // n = n - 1
      {K::ConstInt, T, F}, {K::IntBin, T, F}, {K::Copy, T, F},
      // atomic { while (g > 0) { g = g - 1; } }
      {K::Atomic, F, F}, {K::Seq, F, T}, {K::While, F, T},
      {K::Seq, T, T}, {K::ConstInt, T, T}, {K::Cmp, T, T},
      {K::Seq, T, T}, {K::ConstInt, T, T}, {K::IntBin, T, T},
      {K::Copy, T, T},
  };
  EXPECT_EQ(walkVisits(C->module().findFunction("f")->body(), true),
            Expected);
}

TEST(Walker, FalseSkipsExactlyTheAtomicBodies) {
  std::unique_ptr<Compilation> C = compileOk(WalkerSource);
  const IrStmt *Body = C->module().findFunction("f")->body();
  std::vector<Visit> Outside;
  for (const Visit &V : walkVisits(Body, true))
    if (!std::get<2>(V))
      Outside.push_back(V);
  std::vector<Visit> Skipped = walkVisits(Body, false);
  EXPECT_EQ(Skipped, Outside);
  EXPECT_EQ(std::count_if(Skipped.begin(), Skipped.end(),
                          [](const Visit &V) {
                            return std::get<0>(V) == IrStmt::Kind::Atomic;
                          }),
            2);
}

} // namespace
