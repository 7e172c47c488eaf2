//===--- test_interning.cpp - Interner and flyweight-representation tests ------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "infer/LockSet.h"
#include "locks/Interner.h"
#include "locks/LockName.h"

#include <set>
#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::ir;
using namespace lockin::test;

namespace {

/// Fixture providing variables and a struct to build paths from.
class InterningTest : public ::testing::Test {
protected:
  void SetUp() override {
    C = compileOk("struct s { s* n; int* d; };\n"
                  "void f(s* a, s* b, int i) { a->n = b; a->d[i] = 0; }");
    F = C->module().findFunction("f");
    SD = C->ast().findStruct("s");
  }

  const Variable *var(const char *Name) {
    for (const auto &V : F->variables())
      if (V->name() == Name)
        return V.get();
    return nullptr;
  }

  /// (*a).n — a representative two-op path.
  LockExpr pathAN() {
    return LockExpr(var("a")).plusDeref().plusField(SD, 0);
  }

  std::unique_ptr<Compilation> C;
  const IrFunction *F = nullptr;
  StructDecl *SD = nullptr;
};

TEST_F(InterningTest, SameStructureSameNodeAndId) {
  LockInterner IN;
  const LockPathNode *N1 = IN.intern(pathAN());
  const LockPathNode *N2 = IN.intern(pathAN());
  EXPECT_EQ(N1, N2) << "hash-consing must canonicalize equal structures";
  EXPECT_EQ(N1->Id, N2->Id);
  EXPECT_EQ(IN.stats().PathNodes, 1u);
  EXPECT_EQ(IN.stats().PathHits, 1u);

  const LockPathNode *Other = IN.intern(pathAN().plusDeref());
  EXPECT_NE(Other, N1);
  EXPECT_NE(Other->Id, N1->Id) << "distinct paths get distinct LockIds";
}

TEST_F(InterningTest, IdxExprHashConsing) {
  LockInterner IN;
  IdxExpr::Ptr A = IN.idxBin(IntBinOp::Rem, IN.idxVar(var("i")),
                             IN.idxConst(16));
  IdxExpr::Ptr B = IN.idxBin(IntBinOp::Rem, IN.idxVar(var("i")),
                             IN.idxConst(16));
  EXPECT_EQ(A, B) << "structurally equal index trees are one node";
  EXPECT_EQ(IN.stats().IdxHits, 3u) << "leaf, leaf, bin";
}

TEST_F(InterningTest, SeparateInternersCompareStructurally) {
  // Two interners (e.g. a cached summary's and a fresh run's) each build
  // their own canonical node for one path, index expression included.
  LockInterner IN1, IN2;
  auto Build = [&](LockInterner &IN) {
    return pathAN().plusDeref().plusIndex(
        IN.idxBin(IntBinOp::Rem, IN.idxVar(var("i")), IN.idxConst(16)));
  };
  LockExpr P1 = Build(IN1), P2 = Build(IN2);
  const LockPathNode *N1 = IN1.intern(P1);
  const LockPathNode *N2 = IN2.intern(P2);
  EXPECT_NE(N1, N2) << "each interner owns its nodes";
  EXPECT_TRUE(samePath(N1, N2)) << "structural equality crosses interners";
  EXPECT_EQ(N1->hash(), P1.hash());
  EXPECT_EQ(N2->hash(), P2.hash());
  EXPECT_EQ(N1->hash(), N2->hash());
  EXPECT_FALSE(samePath(N1, IN2.intern(pathAN())));
}

TEST_F(InterningTest, CrossThreadInterningIsCanonical) {
  // Hammer one interner from several threads with a small pool of
  // structures; every thread must get the same canonical pointer per
  // structure. Run under TSan (the CI thread-sanitizer job) this also
  // proves the mutex discipline.
  LockInterner IN;
  constexpr int Threads = 8, Rounds = 200;
  std::vector<std::vector<const LockPathNode *>> Seen(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R) {
        LockExpr P = LockExpr(var(R % 2 ? "a" : "b")).plusDeref();
        for (int D = 0; D < (R / 2) % 4; ++D)
          P = P.plusField(SD, 0);
        Seen[T].push_back(IN.intern(P));
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 1; T < Threads; ++T)
    EXPECT_EQ(Seen[T], Seen[0])
        << "same construction order must observe the same canonical nodes";
  EXPECT_EQ(IN.stats().PathNodes, 8u) << "2 bases x 4 depths";
}

TEST_F(InterningTest, LockSetMergeAndCoversOverInternedNames) {
  LockInterner IN;
  LockName FineRO = LockName::fine(pathAN(), 1, Effect::RO, IN);
  LockName FineRW = LockName::fine(pathAN(), 1, Effect::RW, IN);
  LockName OtherFine =
      LockName::fine(LockExpr(var("b")).plusDeref(), 2, Effect::RW, IN);
  LockName Coarse1 = LockName::coarse(1, Effect::RW);

  LockSet A;
  EXPECT_TRUE(A.insert(FineRO));
  EXPECT_TRUE(A.insert(OtherFine));
  LockSet B;
  EXPECT_TRUE(B.insert(FineRW));

  // Merge joins effects on the same interned path instead of duplicating.
  EXPECT_TRUE(A.merge(B));
  EXPECT_EQ(A.size(), 2u) << A.str();
  EXPECT_TRUE(A.covers(FineRO)) << "rw entry covers the ro demand";
  EXPECT_TRUE(A.contains(FineRW));

  // The coarse region lock subsumes the fine lock of its region.
  EXPECT_TRUE(A.insert(Coarse1));
  EXPECT_EQ(A.size(), 2u) << A.str();
  EXPECT_TRUE(A.covers(FineRW));
  EXPECT_FALSE(A.contains(FineRW));
}

TEST_F(InterningTest, VarMaskHasNoFalseNegatives) {
  LockInterner IN;
  LockExpr P = LockExpr(var("a")).plusDeref().plusField(SD, 1).plusIndex(
      IN.idxBin(IntBinOp::Rem, IN.idxVar(var("i")), IN.idxConst(16)));
  LockName L = LockName::fine(P, 1, Effect::RW, IN);
  // Every variable the path reads must be flagged; false positives are
  // allowed (bloom), false negatives never.
  EXPECT_TRUE(L.pathMayMention(var("a")));
  EXPECT_TRUE(L.pathMayMention(var("i")));
}

TEST(InterningStats, InferenceCountsHitsAndDedup) {
  // Four structurally identical helpers reachable from one section: their
  // final summaries carry identical lock sets, so the dedup layer shares
  // one storage copy, and path interning answers most constructions from
  // the table.
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\n"
      "void h0() { g = g + 1; }\n"
      "void h1() { g = g + 1; }\n"
      "void h2() { g = g + 1; }\n"
      "void h3() { g = g + 1; }\n"
      "void f() { atomic { h0(); h1(); h2(); h3(); } }");
  const InferenceStats &S = C->pipelineStats().Inference;
  EXPECT_GE(S.Summaries.Deduped, 3u)
      << "h1..h3 share h0's summary storage";
  EXPECT_GT(S.InternerHits, 0u);
  EXPECT_GT(S.InternerNodes, 0u);
  EXPECT_GT(S.ArenaBytes, 0u);
}

} // namespace
