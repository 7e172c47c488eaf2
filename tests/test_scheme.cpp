//===--- test_scheme.cpp - Abstract lock scheme tests --------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// Property-style checks of the §3.3 scheme laws on every instance: the
/// semilattice axioms, ⊤-greatest, and the join being an upper bound, over
/// a pool of locks generated with the scheme's own operators.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "locks/Scheme.h"

using namespace lockin;
using namespace lockin::ir;
using namespace lockin::test;

namespace {

class SchemeTest : public ::testing::Test {
protected:
  void SetUp() override {
    C = compileOk("struct s { s* n; int* d; };\n"
                  "void f(s* a, s* b, int i) {\n"
                  "  s* t = a->n; int* u = t->d; b->n = t; u[i] = 1;\n"
                  "}");
    F = C->module().findFunction("f");
  }

  /// Generates a pool of locks by applying the scheme operators to the
  /// test module's variables.
  std::vector<AbstractLockScheme::Lock> pool(AbstractLockScheme &S) {
    std::vector<AbstractLockScheme::Lock> Locks;
    Locks.push_back(S.top());
    for (const auto &V : F->variables()) {
      auto L0 = S.varLock(V.get(), Effect::RO);
      auto L1 = S.varLock(V.get(), Effect::RW);
      Locks.push_back(L0);
      Locks.push_back(L1);
      Locks.push_back(S.starDeref(L0, Effect::RW));
      Locks.push_back(S.plusField(L0, 0, Effect::RO));
      Locks.push_back(S.plusField(S.starDeref(L1, Effect::RO), 1,
                                  Effect::RW));
      Locks.push_back(S.starDeref(S.plusField(S.starDeref(L0, Effect::RO),
                                              0, Effect::RO),
                                  Effect::RW));
    }
    return Locks;
  }

  void checkLatticeLaws(AbstractLockScheme &S) {
    std::vector<AbstractLockScheme::Lock> Locks = pool(S);
    for (auto A : Locks) {
      EXPECT_TRUE(S.leq(A, A)) << "reflexivity: " << S.str(A);
      EXPECT_TRUE(S.leq(A, S.top())) << "top greatest: " << S.str(A);
      EXPECT_EQ(S.join(A, A), A) << "idempotent join: " << S.str(A);
    }
    for (auto A : Locks) {
      for (auto B : Locks) {
        auto J = S.join(A, B);
        EXPECT_TRUE(S.leq(A, J)) << "join upper bound: " << S.str(A)
                                 << " vs " << S.str(B);
        EXPECT_TRUE(S.leq(B, J));
        EXPECT_EQ(S.join(A, B), S.join(B, A)) << "commutativity";
        if (S.leq(A, B) && S.leq(B, A)) {
          EXPECT_EQ(S.join(A, B), S.join(B, B)) << "antisymmetry-ish";
        }
      }
    }
    // Transitivity on sampled triples.
    for (auto A : Locks)
      for (auto B : Locks)
        for (auto D : Locks)
          if (S.leq(A, B) && S.leq(B, D)) {
            EXPECT_TRUE(S.leq(A, D)) << "transitivity";
          }
  }

  std::unique_ptr<Compilation> C;
  const IrFunction *F = nullptr;
};

TEST_F(SchemeTest, EffectSchemeLaws) {
  auto S = makeEffectScheme();
  checkLatticeLaws(*S);
}

TEST_F(SchemeTest, EffectSchemeSemantics) {
  auto S = makeEffectScheme();
  const Variable *A = F->variables()[0].get();
  auto RO = S->varLock(A, Effect::RO);
  auto RW = S->varLock(A, Effect::RW);
  EXPECT_TRUE(S->leq(RO, RW));
  EXPECT_FALSE(S->leq(RW, RO));
  EXPECT_EQ(RW, S->top());
  EXPECT_EQ(S->str(RO), "ro");
}

TEST_F(SchemeTest, FieldSchemeLaws) {
  auto S = makeFieldScheme();
  checkLatticeLaws(*S);
}

TEST_F(SchemeTest, FieldSchemeSemantics) {
  auto S = makeFieldScheme();
  const Variable *A = F->variables()[0].get();
  // x̄ = ⊤; l + i = {i}; *l = ⊤.
  EXPECT_EQ(S->varLock(A, Effect::RW), S->top());
  auto F0 = S->plusField(S->top(), 0, Effect::RW);
  auto F1 = S->plusField(S->top(), 1, Effect::RW);
  EXPECT_NE(F0, F1);
  EXPECT_EQ(S->starDeref(F0, Effect::RW), S->top());
  auto J = S->join(F0, F1);
  EXPECT_TRUE(S->leq(F0, J));
  EXPECT_TRUE(S->leq(F1, J));
  EXPECT_NE(J, S->top()) << "join of {0} and {1} is {0,1}, not F";
}

TEST_F(SchemeTest, KLimitSchemeLaws) {
  auto S = makeKLimitScheme(3);
  checkLatticeLaws(*S);
}

TEST_F(SchemeTest, KLimitCollapsesLongExpressions) {
  auto S = makeKLimitScheme(2);
  const Variable *A = F->variables()[0].get();
  auto L = S->varLock(A, Effect::RW);
  auto L1 = S->starDeref(L, Effect::RW);
  auto L2 = S->plusField(L1, 0, Effect::RW);
  EXPECT_NE(L2, S->top()) << "length 2 still precise";
  auto L3 = S->starDeref(L2, Effect::RW);
  EXPECT_EQ(L3, S->top()) << "length 3 exceeds k=2";
  // Distinct short expressions join to top.
  EXPECT_EQ(S->join(L1, L2), S->top());
}

TEST_F(SchemeTest, RegionSchemeLaws) {
  auto S = makeRegionScheme(C->pointsTo());
  checkLatticeLaws(*S);
}

TEST_F(SchemeTest, RegionSchemeTracksPointsTo) {
  auto S = makeRegionScheme(C->pointsTo());
  const Variable *A = nullptr;
  for (const auto &V : F->variables())
    if (V->name() == "a")
      A = V.get();
  ASSERT_NE(A, nullptr);
  auto CellLock = S->varLock(A, Effect::RW);
  auto ObjLock = S->starDeref(CellLock, Effect::RW);
  EXPECT_NE(CellLock, ObjLock);
  // Field offsets stay in the same region lock.
  EXPECT_EQ(S->plusField(ObjLock, 0, Effect::RW), ObjLock);
}

TEST_F(SchemeTest, ProductSchemeLaws) {
  auto S1 = makeKLimitScheme(3);
  auto S2 = makeEffectScheme();
  auto P = makeProductScheme(*S1, *S2);
  checkLatticeLaws(*P);
}

TEST_F(SchemeTest, ProductIsComponentwise) {
  auto S1 = makeKLimitScheme(9);
  auto S2 = makeEffectScheme();
  auto P = makeProductScheme(*S1, *S2);
  const Variable *A = F->variables()[0].get();
  auto RO = P->varLock(A, Effect::RO);
  auto RW = P->varLock(A, Effect::RW);
  // Same expression, different effects: ordered by the effect component.
  EXPECT_TRUE(P->leq(RO, RW));
  EXPECT_FALSE(P->leq(RW, RO));
  EXPECT_NE(P->join(RO, RO), P->top());
  // The paper's compiler scheme: Σ_k × Σ_≡ × Σ_ε as a nested product.
  auto S3 = makeRegionScheme(C->pointsTo());
  auto Inner = makeProductScheme(*S1, *S3);
  auto Full = makeProductScheme(*Inner, *S2);
  checkLatticeLaws(*Full);
}

TEST_F(SchemeTest, ExprLockConstruction) {
  // ê for e = *(a->n): §3.3's inductive construction with ro
  // subexpressions.
  auto S = makeEffectScheme();
  const Variable *A = nullptr;
  for (const auto &V : F->variables())
    if (V->name() == "a")
      A = V.get();
  StructDecl *SD = C->ast().findStruct("s");
  LockExpr Path = LockExpr(A).plusDeref().plusField(SD, 0).plusDeref();
  // Under Σ_ε the final effect decides the lock.
  EXPECT_EQ(S->exprLock(Path, Effect::RO), S->varLock(A, Effect::RO));
  EXPECT_EQ(S->exprLock(Path, Effect::RW), S->top());
}

} // namespace
