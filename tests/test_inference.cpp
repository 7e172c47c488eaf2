//===--- test_inference.cpp - Lock inference tests -----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Generator.h"

#include <algorithm>
#include <filesystem>

using namespace lockin;
using namespace lockin::test;

namespace {

TEST(Inference, EmptySectionNeedsNoLocks) {
  std::unique_ptr<Compilation> C =
      compileOk("void f() { atomic { int a = 1; a = a + 1; } }");
  EXPECT_TRUE(C->inference().sectionLocks(0).empty())
      << sectionLocks(*C, 0);
}

TEST(Inference, GlobalScalarAccess) {
  std::unique_ptr<Compilation> C =
      compileOk("int g;\nvoid f() { atomic { g = g + 1; } }");
  const LockSet &Locks = C->inference().sectionLocks(0);
  ASSERT_EQ(Locks.size(), 1u) << Locks.str();
  const LockName &L = *Locks.begin();
  EXPECT_TRUE(L.isFine());
  EXPECT_EQ(L.effect(), Effect::RW);
  EXPECT_EQ(L.path().base()->name(), "g");
  EXPECT_EQ(L.path().ops().size(), 0u) << "the address lock ḡ";
}

TEST(Inference, ReadOnlySectionGetsReadLocks) {
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\nint f() { int r; atomic { r = g; } return r; }");
  const LockSet &Locks = C->inference().sectionLocks(0);
  ASSERT_EQ(Locks.size(), 1u) << Locks.str();
  EXPECT_EQ(Locks.begin()->effect(), Effect::RO);
}

TEST(Inference, ThreadLocalVariablesNotLocked) {
  // r is a local whose address is never taken: no lock for it, even
  // though it is written inside the section.
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\nint f() { int r; atomic { r = g; r = r + 1; } return r; }");
  EXPECT_EQ(C->inference().sectionLocks(0).size(), 1u)
      << sectionLocks(*C, 0);
}

TEST(Inference, AddressTakenLocalIsLocked) {
  std::unique_ptr<Compilation> C = compileOk(
      "int* p;\n"
      "void f() { int a; p = &a; atomic { a = 1; } }");
  const LockSet &Locks = C->inference().sectionLocks(0);
  ASSERT_EQ(Locks.size(), 1u) << Locks.str();
  EXPECT_EQ(Locks.begin()->path().base()->name(), "a");
}

TEST(Inference, HeapFieldAccessTracedToEntry) {
  // The paper's backward tracing: the access *t (t = p->d computed inside
  // the section) is protected by the entry expression p->d.
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "void f(s* p) { atomic { int* t = p->d; *t = 1; } }");
  std::string Locks = sectionLocks(*C, 0);
  EXPECT_NE(Locks.find("*((p).d)"), std::string::npos) << Locks;
  EXPECT_NE(Locks.find("(p).d"), std::string::npos) << Locks;
}

TEST(Inference, Figure2Example) {
  // Fig. 2 of the paper with pointer-typed data, matching the original
  // `*z = null` exactly.
  std::unique_ptr<Compilation> C = compileOk(
      "struct cell { int* v; };\n"
      "struct s { cell* data; };\n"
      "cell* w;\n"
      "void f(s* x, s* y, int cond) {\n"
      "  if (cond == 1) { x = y; }\n"
      "  atomic {\n"
      "    x->data = w;\n"
      "    cell* z = y->data;\n"
      "    z->v = null;\n"
      "  }\n"
      "}\n",
      /*K=*/9);
  std::string Locks = sectionLocks(*C, 0);
  // Both entry expressions protect the final write (weak update through
  // the may-aliased store): the v-cell of y->data's target and of w's.
  EXPECT_NE(Locks.find("(*((y).data)).v"), std::string::npos) << Locks;
  EXPECT_NE(Locks.find("(w).v"), std::string::npos) << Locks;
}

TEST(Inference, Figure2IntVariant) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* data; };\n"
      "int* w;\n"
      "void f(s* x, s* y, int cond) {\n"
      "  if (cond == 1) { x = y; }\n"
      "  atomic {\n"
      "    x->data = w;\n"
      "    int* z = y->data;\n"
      "    *z = 0;\n"
      "  }\n"
      "}\n");
  std::string Locks = sectionLocks(*C, 0);
  // The write *z needs BOTH entry expressions: *(y->data) and *w
  // (weak update through the may-aliased store). *w̄ prints as "w".
  EXPECT_NE(Locks.find("*((y).data)"), std::string::npos) << Locks;
  EXPECT_NE(Locks.find(" w@"), std::string::npos) << Locks;
  // Plus the store target x->data (rw) and the reads.
  EXPECT_NE(Locks.find("(x).data"), std::string::npos) << Locks;
}

TEST(Inference, MoveExampleMatchesFigure1) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct elem { elem* next; int* data; };\n"
      "struct list { elem* head; };\n"
      "void move(list* from, list* to) {\n"
      "  atomic {\n"
      "    elem* x = to->head;\n"
      "    elem* y = from->head;\n"
      "    from->head = null;\n"
      "    if (x == null) { to->head = y; }\n"
      "    else { while (x->next != null) x = x->next; x->next = y; }\n"
      "  }\n"
      "}\n");
  const LockSet &Locks = C->inference().sectionLocks(0);
  std::string Text = Locks.str();
  // Fig. 1(c): fine locks on to->head and from->head, coarse lock E on
  // the elements.
  EXPECT_NE(Text.find("(to).head"), std::string::npos) << Text;
  EXPECT_NE(Text.find("(from).head"), std::string::npos) << Text;
  unsigned Coarse = 0;
  for (const LockName &L : Locks)
    if (L.isCoarse())
      ++Coarse;
  EXPECT_EQ(Coarse, 1u) << "one coarse element lock: " << Text;
  EXPECT_EQ(Locks.size(), 3u) << Text;
}

TEST(Inference, AllocationInsideSectionDropsLocks) {
  // Fresh objects are unreachable at entry (the k=3 effect in Fig. 7).
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\n"
      "void f() { atomic { s* p = new s; p->x = 1; } }");
  EXPECT_TRUE(C->inference().sectionLocks(0).empty())
      << sectionLocks(*C, 0);
}

TEST(Inference, PublishedAllocationNeedsContainerLockOnly) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int x; };\nstruct box { s* v; };\n"
      "void f(box* b) { atomic { s* p = new s; p->x = 1; b->v = p; } }");
  const LockSet &Locks = C->inference().sectionLocks(0);
  std::string Text = Locks.str();
  EXPECT_NE(Text.find("(b).v"), std::string::npos) << Text;
  // No lock mentions the fresh object's region beyond the container cell.
  EXPECT_EQ(Locks.size(), 1u) << Text;
}

TEST(Inference, KZeroMakesEverythingCoarse) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "void f(s* p) { atomic { *(p->d) = 1; } }",
      /*K=*/0);
  for (const LockName &L : C->inference().sectionLocks(0))
    EXPECT_FALSE(L.isFine()) << L.str();
  LockCensus Census = C->inference().census();
  EXPECT_EQ(Census.FineRO + Census.FineRW, 0u);
  EXPECT_GT(Census.CoarseRW, 0u);
}

TEST(Inference, LoopTraversalCoarsensAtKLimit) {
  const char *Source =
      "struct n { n* next; };\n"
      "void f(n* p) { atomic { while (p->next != null) p = p->next; } }";
  // Small k: the chain of p->next->next... exceeds k and coarsens.
  std::unique_ptr<Compilation> Small = compileOk(Source, /*K=*/2);
  bool SawCoarse = false;
  for (const LockName &L : Small->inference().sectionLocks(0))
    SawCoarse |= L.isCoarse();
  EXPECT_TRUE(SawCoarse) << sectionLocks(*Small, 0);
  // Same result at k=9: recursive structures coarsen at any bounded k.
  std::unique_ptr<Compilation> Large = compileOk(Source, /*K=*/9);
  SawCoarse = false;
  for (const LockName &L : Large->inference().sectionLocks(0))
    SawCoarse |= L.isCoarse();
  EXPECT_TRUE(SawCoarse);
}

TEST(Inference, InterproceduralSummaryTracesCallee) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "void set(s* q, int v) { *(q->d) = v; }\n"
      "void f(s* p) { atomic { set(p, 3); } }");
  std::string Locks = sectionLocks(*C, 0);
  // The callee's access q->d must be unmapped to the caller's p->d.
  EXPECT_NE(Locks.find("*((p).d)"), std::string::npos) << Locks;
  EXPECT_EQ(Locks.find("(q)"), std::string::npos)
      << "callee-rooted lock leaked: " << Locks;
}

TEST(Inference, CalleeReturnValueTraced) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "int* getd(s* q) { return q->d; }\n"
      "void f(s* p) { atomic { int* t = getd(p); *t = 1; } }");
  std::string Locks = sectionLocks(*C, 0);
  EXPECT_NE(Locks.find("*((p).d)"), std::string::npos) << Locks;
}

TEST(Inference, RecursionTerminatesAndIsSound) {
  std::unique_ptr<Compilation> C = compileOk(
      "struct n { n* next; };\n"
      "void walk(n* p) { if (p != null) walk(p->next); }\n"
      "void f(n* h) { atomic { walk(h); } }");
  // Must terminate and protect the traversal with a coarse lock.
  bool SawLock = !C->inference().sectionLocks(0).empty();
  EXPECT_TRUE(SawLock) << sectionLocks(*C, 0);
}

TEST(Inference, MutualRecursionTerminates) {
  // Name resolution is two-pass, so mutually recursive functions work
  // without forward declarations.
  std::unique_ptr<Compilation> C = compileOk(
      "struct n { n* next; int v; };\n"
      "void odd(n* p) { if (p != null) even(p->next); }\n"
      "void even(n* p) { if (p != null) { p->v = 1; odd(p->next); } }\n"
      "void f(n* h) { atomic { even(h); } }");
  EXPECT_FALSE(C->inference().sectionLocks(0).empty())
      << sectionLocks(*C, 0);
}


TEST(Inference, BranchesMerge) {
  std::unique_ptr<Compilation> C = compileOk(
      "int a;\nint b;\n"
      "void f(int c) { atomic { if (c == 1) { a = 1; } else { b = 2; } } }");
  std::string Locks = sectionLocks(*C, 0);
  EXPECT_NE(Locks.find("&a"), std::string::npos) << Locks;
  EXPECT_NE(Locks.find("&b"), std::string::npos) << Locks;
}

TEST(Inference, NestedAtomicFlowsThroughOuter) {
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\n"
      "void f() { atomic { atomic { g = 1; } g = 2; } }");
  // The outer section (id 0) must cover the inner access too.
  std::string Outer = sectionLocks(*C, 0);
  EXPECT_NE(Outer.find("&g"), std::string::npos) << Outer;
  // The inner section also gets its own set (used when it is outermost
  // for some other caller).
  std::string Inner = sectionLocks(*C, 1);
  EXPECT_NE(Inner.find("&g"), std::string::npos) << Inner;
}

TEST(Inference, IndexedBucketGetsFineLock) {
  // The hashtable-2 pattern: a single bucket write with a computed index
  // stays fine-grain at large k.
  std::unique_ptr<Compilation> C = compileOk(
      "struct node { node* next; };\nstruct tab { node** buckets; };\n"
      "void put(tab* h, int key) {\n"
      "  atomic {\n"
      "    node* n = new node;\n"
      "    int slot = key % 16;\n"
      "    n->next = h->buckets[slot];\n"
      "    h->buckets[slot] = n;\n"
      "  }\n"
      "}",
      /*K=*/9);
  std::string Locks = sectionLocks(*C, 0);
  EXPECT_NE(Locks.find("[(key % 16)]"), std::string::npos) << Locks;
  // And the bucket lock must be rw.
  bool FoundFineRW = false;
  for (const LockName &L : C->inference().sectionLocks(0))
    if (L.isFine() && L.effect() == Effect::RW &&
        !L.path().ops().empty())
      FoundFineRW = true;
  EXPECT_TRUE(FoundFineRW) << Locks;
}

TEST(Inference, StoreInvalidatesTracedIndexVariable) {
  // If the index variable's cell may be overwritten through a pointer,
  // the fine lock must coarsen.
  std::unique_ptr<Compilation> C = compileOk(
      "int* q;\n"
      "void f(int* a, int i) {\n"
      "  q = &i;\n"
      "  atomic { *q = 2; a[i] = 1; }\n"
      "}",
      /*K=*/9);
  const LockSet &Locks = C->inference().sectionLocks(0);
  // No fine lock may mention the stale index i for the a[i] write.
  for (const LockName &L : Locks) {
    if (!L.isFine())
      continue;
    if (L.path().base()->name() == "a" && !L.path().ops().empty())
      ADD_FAILURE() << "fine lock survived aliased index store: "
                    << L.str();
  }
}

TEST(Inference, SectionAfterStoreStillProtected) {
  // Store rule: the identity path survives unless Q-excluded, and the
  // stored value path is added for aliased prefixes.
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "void f(s* x, s* y) {\n"
      "  atomic {\n"
      "    x->d = y->d;\n"
      "    *(x->d) = 5;\n"
      "  }\n"
      "}");
  std::string Locks = sectionLocks(*C, 0);
  // *(x->d) after the store is *(y->d) before it.
  EXPECT_NE(Locks.find("*((y).d)"), std::string::npos) << Locks;
}

TEST(Inference, CensusCountsCategories) {
  std::unique_ptr<Compilation> C = compileOk(
      "int g;\nint h;\n"
      "int f() { int r; atomic { r = g; h = 1; } return r; }");
  LockCensus Census = C->inference().census();
  EXPECT_EQ(Census.FineRO, 1u);
  EXPECT_EQ(Census.FineRW, 1u);
  EXPECT_EQ(Census.total(), 2u);
}

TEST(Inference, MultipleSectionsIndependent) {
  std::unique_ptr<Compilation> C = compileOk(
      "int a;\nint b;\n"
      "void f() { atomic { a = 1; } atomic { b = 2; } }");
  EXPECT_NE(sectionLocks(*C, 0).find("&a"), std::string::npos);
  EXPECT_EQ(sectionLocks(*C, 0).find("&b"), std::string::npos);
  EXPECT_NE(sectionLocks(*C, 1).find("&b"), std::string::npos);
}

TEST(Inference, CallUnaffectedLockPassesThrough) {
  // noop() writes nothing: the traced lock must survive the call without
  // coarsening (the write-regions filter).
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "int noop(int v) { return v + 1; }\n"
      "void f(s* p) { atomic { int t = noop(1); *(p->d) = t; } }");
  std::string Locks = sectionLocks(*C, 0);
  EXPECT_NE(Locks.find("*((p).d)"), std::string::npos) << Locks;
}

TEST(Inference, CalleeStoreForcesRetrace) {
  // The callee redirects p->d before the access; the lock for *t must
  // trace through the callee's store to the fresh value's source.
  std::unique_ptr<Compilation> C = compileOk(
      "struct s { int* d; };\n"
      "int* w;\n"
      "void redirect(s* q) { q->d = w; }\n"
      "void f(s* p) { atomic { redirect(p); int* t = p->d; *t = 1; } }");
  std::string Locks = sectionLocks(*C, 0);
  // Both the old chain and *w̄ (printed "w") must be protected.
  EXPECT_NE(Locks.find(" w@"), std::string::npos) << Locks;
}

//===----------------------------------------------------------------------===//
// Storage order
//===----------------------------------------------------------------------===//

/// Every section's locks() in storage order, one lock per line under a
/// section header. LockSet::str() sorts, so it cannot see the order; the
/// checker's lock-order pass reads locks() as discovery order, which makes
/// the order part of the output.
std::string lockOrder(Compilation &C) {
  std::string Out;
  for (const InferenceResult::Section &S : C.inference().sections()) {
    Out += "section " + std::to_string(S.SectionId) + "\n";
    for (const LockName &L : S.Locks.locks())
      Out += "  " + L.str() + "\n";
  }
  return Out;
}

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char Ch : Bytes) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  return H;
}

TEST(StorageOrder, GoldenSectionsKeepLockOrder) {
  std::vector<std::string> Inputs;
  for (const auto &Entry : std::filesystem::directory_iterator(goldenDir()))
    if (Entry.path().extension() == ".atom")
      Inputs.push_back(Entry.path().filename().string());
  std::sort(Inputs.begin(), Inputs.end());
  ASSERT_FALSE(Inputs.empty());
  std::string Actual;
  for (const std::string &Name : Inputs) {
    std::unique_ptr<Compilation> C = compileOk(readFile(goldenDir() + Name));
    ASSERT_TRUE(C->ok()) << Name;
    Actual += "== " + Name + "\n" + lockOrder(*C);
  }
  EXPECT_EQ(Actual, readFile(goldenDir() + "lock_order.txt"));
}

TEST(StorageOrder, MegaprogramLockOrderDigest) {
  fuzz::GenOptions Gen;
  Gen.F = fuzz::Family::Mega;
  Gen.Seed = 29;
  Gen.MegaLines = 2000;
  std::unique_ptr<Compilation> C = compileOk(fuzz::generateProgram(Gen));
  ASSERT_TRUE(C->ok());
  size_t Largest = 0;
  for (const InferenceResult::Section &S : C->inference().sections())
    Largest = std::max(Largest, S.Locks.size());
  // Sets this large are where an insert shortcut would most likely
  // reorder the storage.
  EXPECT_GE(Largest, 30u);
  EXPECT_EQ(fnv1a(lockOrder(*C)), 0x99832e8b6603ca90ull);
}

} // namespace
