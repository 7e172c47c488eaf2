//===--- test_locks.cpp - Lock domain unit tests -------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "infer/LockSet.h"
#include "locks/ConcreteLock.h"
#include "locks/Interner.h"
#include "locks/LockName.h"

using namespace lockin;
using namespace lockin::ir;
using namespace lockin::test;

namespace {

/// Fixture providing a small module with variables/structs for paths.
class LockDomainTest : public ::testing::Test {
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

  std::unique_ptr<Compilation> C;
  const IrFunction *F = nullptr;
  StructDecl *SD = nullptr;
  LockInterner IN;
};

TEST_F(LockDomainTest, IdxExprBasics) {
  IdxExpr::Ptr I1 = IN.idxVar(var("i"));
  IdxExpr::Ptr I2 = IN.idxConst(16);
  IdxExpr::Ptr Rem = IN.idxBin(IntBinOp::Rem, I1, I2);
  EXPECT_EQ(Rem->size(), 3u);
  EXPECT_TRUE(Rem->mentionsVar(var("i")));
  EXPECT_FALSE(Rem->mentionsVar(var("a")));
  EXPECT_EQ(Rem->str(), "(i % 16)");
  IdxExpr::Ptr Same = IN.idxBin(IntBinOp::Rem, IN.idxVar(
      var("i")), IN.idxConst(16));
  EXPECT_TRUE(Rem->equals(*Same));
  EXPECT_EQ(Rem->hash(), Same->hash());
  EXPECT_FALSE(Rem->equals(*I1));
}

TEST_F(LockDomainTest, LockExprSizeAndEquality) {
  LockExpr Base(var("a"));
  EXPECT_EQ(Base.size(), 0u);
  LockExpr P = Base.plusDeref().plusField(SD, 0).plusDeref();
  EXPECT_EQ(P.size(), 3u);
  LockExpr Q = LockExpr(var("a")).plusDeref().plusField(SD, 0).plusDeref();
  EXPECT_TRUE(P == Q);
  EXPECT_EQ(P.hash(), Q.hash());
  LockExpr R = LockExpr(var("b")).plusDeref();
  EXPECT_FALSE(P == R);
  EXPECT_TRUE(P.startsWithDeref());
  EXPECT_FALSE(Base.startsWithDeref());
}

TEST_F(LockDomainTest, LockExprWithPrefix) {
  // [a, D, F(n), D] with prefix [a, D] (1 op) replaced by [b, D].
  LockExpr P = LockExpr(var("a")).plusDeref().plusField(SD, 0).plusDeref();
  LockExpr NewHead = LockExpr(var("b")).plusDeref();
  LockExpr Q = P.withPrefix(NewHead, 1);
  EXPECT_EQ(Q.base(), var("b"));
  ASSERT_EQ(Q.ops().size(), 3u);
  EXPECT_EQ(Q.ops()[1].K, LockOp::Kind::Field);
}

TEST_F(LockDomainTest, LockExprIndexSizeCountsIdxNodes) {
  IdxExpr::Ptr Idx = IN.idxBin(IntBinOp::Rem,
                                      IN.idxVar(var("i")),
                                      IN.idxConst(16));
  LockExpr P = LockExpr(var("a")).plusDeref().plusIndex(Idx);
  EXPECT_EQ(P.size(), 4u); // 1 deref + 3 idx nodes
}

TEST_F(LockDomainTest, LockNameOrder) {
  const PointsToAnalysis &PT = C->pointsTo();
  LockExpr PathA = LockExpr(var("a")).plusDeref();
  RegionId R = evalPathRegion(PathA, PT);
  ASSERT_NE(R, InvalidRegion);

  LockName FineRO = LockName::fine(PathA, R, Effect::RO, IN);
  LockName FineRW = LockName::fine(PathA, R, Effect::RW, IN);
  LockName CoarseRO = LockName::coarse(R, Effect::RO);
  LockName CoarseRW = LockName::coarse(R, Effect::RW);
  LockName Top = LockName::top();

  // Effects: ro ≤ rw on the same lock.
  EXPECT_TRUE(FineRO.leq(FineRW));
  EXPECT_FALSE(FineRW.leq(FineRO));
  // Fine ≤ coarse of the same region with compatible effect.
  EXPECT_TRUE(FineRO.leq(CoarseRO));
  EXPECT_TRUE(FineRW.leq(CoarseRW));
  EXPECT_FALSE(FineRW.leq(CoarseRO));
  // Everything ≤ Top.
  EXPECT_TRUE(FineRW.leq(Top));
  EXPECT_TRUE(CoarseRW.leq(Top));
  EXPECT_TRUE(Top.leq(Top));
  EXPECT_FALSE(Top.leq(CoarseRW));
  // Different regions are incomparable.
  LockName OtherRegion = LockName::coarse(R + 1, Effect::RW);
  EXPECT_FALSE(CoarseRW.leq(OtherRegion));
  EXPECT_FALSE(OtherRegion.leq(CoarseRW));
}

TEST_F(LockDomainTest, EvalPathRegionFollowsDerefs) {
  const PointsToAnalysis &PT = C->pointsTo();
  // &a is the cell of a; *&a is the s-object region; field offsets stay.
  LockExpr AddrA(var("a"));
  RegionId CellRegion = evalPathRegion(AddrA, PT);
  RegionId ObjRegion = evalPathRegion(AddrA.plusDeref(), PT);
  EXPECT_EQ(PT.derefRegion(CellRegion), ObjRegion);
  EXPECT_EQ(evalPathRegion(AddrA.plusDeref().plusField(SD, 0), PT),
            ObjRegion);
}

TEST_F(LockDomainTest, LockSetInsertSubsumption) {
  const PointsToAnalysis &PT = C->pointsTo();
  LockExpr PathA = LockExpr(var("a")).plusDeref();
  RegionId R = evalPathRegion(PathA, PT);

  LockSet Set;
  EXPECT_TRUE(Set.insert(LockName::fine(PathA, R, Effect::RO, IN)));
  // Re-inserting the same lock changes nothing.
  EXPECT_FALSE(Set.insert(LockName::fine(PathA, R, Effect::RO, IN)));
  EXPECT_EQ(Set.size(), 1u);
  // Upgrading the effect replaces, not duplicates.
  EXPECT_TRUE(Set.insert(LockName::fine(PathA, R, Effect::RW, IN)));
  EXPECT_EQ(Set.size(), 1u);
  EXPECT_TRUE(Set.covers(LockName::fine(PathA, R, Effect::RO, IN)));
  // A coarse lock over the region swallows the fine lock.
  EXPECT_TRUE(Set.insert(LockName::coarse(R, Effect::RW)));
  EXPECT_EQ(Set.size(), 1u);
  EXPECT_TRUE(Set.covers(LockName::fine(PathA, R, Effect::RW, IN)));
  // Inserting the now-covered fine lock is a no-op.
  EXPECT_FALSE(Set.insert(LockName::fine(PathA, R, Effect::RW, IN)));
  // Top swallows everything.
  EXPECT_TRUE(Set.insert(LockName::top()));
  EXPECT_EQ(Set.size(), 1u);
  EXPECT_TRUE(Set.covers(LockName::coarse(R + 1, Effect::RW)));
}

TEST_F(LockDomainTest, LockSetMergeIsPaperJoin) {
  const PointsToAnalysis &PT = C->pointsTo();
  LockExpr PathA = LockExpr(var("a")).plusDeref();
  LockExpr PathB = LockExpr(var("b")).plusDeref();
  RegionId R = evalPathRegion(PathA, PT);

  LockSet N1, N2;
  N1.insert(LockName::fine(PathA, R, Effect::RO, IN));
  N2.insert(LockName::fine(PathB, R, Effect::RW, IN));
  N2.insert(LockName::coarse(R, Effect::RO));
  // coarse(R, ro) does NOT subsume fine(B, rw) (effect), nor vice versa.
  EXPECT_EQ(N2.size(), 2u);

  LockSet Merged = N1;
  Merged.merge(N2);
  // fine(A, ro) ≤ coarse(R, ro): dropped.
  EXPECT_FALSE(Merged.contains(LockName::fine(PathA, R, Effect::RO, IN)));
  EXPECT_TRUE(Merged.contains(LockName::coarse(R, Effect::RO)));
  EXPECT_TRUE(Merged.contains(LockName::fine(PathB, R, Effect::RW, IN)));
  EXPECT_EQ(Merged.size(), 2u);
  // Merge is idempotent.
  LockSet Again = Merged;
  EXPECT_FALSE(Again.merge(Merged));
  EXPECT_TRUE(Again == Merged);
}

TEST_F(LockDomainTest, LockSetEqualityIsOrderInsensitive) {
  const PointsToAnalysis &PT = C->pointsTo();
  LockExpr PathA = LockExpr(var("a")).plusDeref();
  LockExpr PathB = LockExpr(var("b")).plusDeref();
  RegionId R = evalPathRegion(PathA, PT);
  LockSet S1, S2;
  S1.insert(LockName::fine(PathA, R, Effect::RO, IN));
  S1.insert(LockName::fine(PathB, R, Effect::RW, IN));
  S2.insert(LockName::fine(PathB, R, Effect::RW, IN));
  S2.insert(LockName::fine(PathA, R, Effect::RO, IN));
  EXPECT_TRUE(S1 == S2);
}

TEST_F(LockDomainTest, LockSetStorageOrderPastFortyLocks) {
  // Storage order is output (the checker reads locks() as discovery
  // order), so large sets must keep the exact sequence of the scans.
  const PointsToAnalysis &PT = C->pointsTo();
  RegionId R = evalPathRegion(LockExpr(var("a")).plusDeref(), PT);
  ASSERT_NE(R, InvalidRegion);
  const unsigned N = 42, Regions = 3;
  // Lock I < N guards (*a)[I] in region R + I % 3, ro for even I; lock N
  // (ro, region R + 1) is kept back for step 3.
  std::vector<LockName> Fine;
  for (unsigned I = 0; I <= N; ++I)
    Fine.push_back(LockName::fine(
        LockExpr(var("a")).plusDeref().plusIndex(IN.idxConst(I)),
        R + (I == N ? 1 : I % Regions), I % 2 ? Effect::RW : Effect::RO,
        IN));
  // "7r" is lock 7 with ro, "C1w" the rw coarse lock of region R + 1,
  // "T" is ⊤.
  auto Order = [&](const LockSet &S) {
    std::string Out;
    for (const LockName &L : S.locks()) {
      if (!Out.empty())
        Out += ' ';
      if (L.isTop()) {
        Out += 'T';
        continue;
      }
      if (L.isCoarse())
        Out += 'C' + std::to_string(L.region() - R);
      for (unsigned I = 0; I <= N && L.isFine(); ++I)
        if (L.sameLockIgnoringEffect(Fine[I]))
          Out += std::to_string(I);
      Out += L.effect() == Effect::RW ? 'w' : 'r';
    }
    return Out;
  };

  LockSet Set;
  for (unsigned I = 0; I < N; ++I)
    ASSERT_TRUE(Set.insert(Fine[I]));
  ASSERT_EQ(Set.size(), N);

  // ro -> rw upgrade of a middle lock: it moves to the end.
  EXPECT_TRUE(Set.insert(Fine[20].withEffect(Effect::RW)));
  EXPECT_EQ(Order(Set),
            "0r 1w 2r 3w 4r 5w 6r 7w 8r 9w 10r 11w 12r 13w 14r 15w 16r 17w "
            "18r 19w 21w 22r 23w 24r 25w 26r 27w 28r 29w 30r 31w 32r 33w "
            "34r 35w 36r 37w 38r 39w 40r 41w 20w");
  // The coarse lock purges the fine locks of its region.
  const char *AfterCoarse =
      "0r 2r 3w 5w 6r 8r 9w 11w 12r 14r 15w 17w 18r 21w 23w 24r 26r 27w "
      "29w 30r 32r 33w 35w 36r 38r 39w 41w 20w C1w";
  EXPECT_TRUE(Set.insert(LockName::coarse(R + 1, Effect::RW)));
  EXPECT_EQ(Order(Set), AfterCoarse);
  // A fine lock it covers changes nothing.
  EXPECT_FALSE(Set.insert(Fine[N]));
  EXPECT_EQ(Order(Set), AfterCoarse);
  // ⊤ swallows everything.
  EXPECT_TRUE(Set.insert(LockName::top()));
  EXPECT_EQ(Order(Set), "T");
}

//===----------------------------------------------------------------------===//
// Concrete lock semantics (§3.2)
//===----------------------------------------------------------------------===//

TEST(ConcreteLocks, ConflictDefinition) {
  ConcreteLock A = ConcreteLock::of({1, 2}, Effect::RW);
  ConcreteLock B = ConcreteLock::of({2, 3}, Effect::RO);
  ConcreteLock D = ConcreteLock::of({4}, Effect::RW);
  // Common location + a writer: conflict.
  EXPECT_TRUE(locksConflict(A, B));
  // Disjoint: no conflict regardless of effects.
  EXPECT_FALSE(locksConflict(A, D));
  // Two readers never conflict, even on the same locations.
  ConcreteLock R1 = ConcreteLock::of({1, 2}, Effect::RO);
  ConcreteLock R2 = ConcreteLock::of({2}, Effect::RO);
  EXPECT_FALSE(locksConflict(R1, R2));
  // The global lock conflicts with any writer and any reader it overlaps.
  EXPECT_TRUE(locksConflict(ConcreteLock::global(), B));
  EXPECT_FALSE(locksConflict(ConcreteLock::globalRead(), R2));
  EXPECT_TRUE(locksConflict(ConcreteLock::globalRead(), A));
}

TEST(ConcreteLocks, CoarserThanIsLatticeOrder) {
  ConcreteLock Fine = ConcreteLock::fine(7, Effect::RO);
  ConcreteLock Region = ConcreteLock::of({5, 6, 7}, Effect::RW);
  ConcreteLock Global = ConcreteLock::global();
  EXPECT_TRUE(lockCoarserThan(Region, Fine));
  EXPECT_FALSE(lockCoarserThan(Fine, Region));
  EXPECT_TRUE(lockCoarserThan(Global, Region));
  EXPECT_TRUE(lockCoarserThan(Global, Global));
  // Effect ordering matters: rw set is not below an ro superset.
  ConcreteLock FineRW = ConcreteLock::fine(7, Effect::RW);
  ConcreteLock RegionRO = ConcreteLock::of({5, 6, 7}, Effect::RO);
  EXPECT_FALSE(lockCoarserThan(RegionRO, FineRW));
}

TEST(ConcreteLocks, LockPairsAreMeet) {
  // §3.2: [[(l1,l2)]] = [[l1]] ⊓ [[l2]].
  ConcreteLock L1 = ConcreteLock::of({1, 2, 3}, Effect::RW);
  ConcreteLock L2 = ConcreteLock::of({2, 3, 4}, Effect::RO);
  ConcreteLock Pair = L1.meet(L2);
  EXPECT_EQ(Pair.locations(), (std::set<uint64_t>{2, 3}));
  EXPECT_EQ(Pair.effect(), Effect::RO);
  // Pairing with the global lock is the identity on locations.
  ConcreteLock WithGlobal = L1.meet(ConcreteLock::global());
  EXPECT_EQ(WithGlobal.locations(), L1.locations());
}

TEST(ConcreteLocks, FineGrainPredicate) {
  EXPECT_TRUE(ConcreteLock::fine(9, Effect::RW).isFineGrain());
  EXPECT_FALSE(ConcreteLock::of({1, 2}, Effect::RW).isFineGrain());
  EXPECT_FALSE(ConcreteLock::global().isFineGrain());
}

} // namespace
