//===--- test_analysis.cpp - Call graph and SCC condensation tests -------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace lockin;
using namespace lockin::test;

namespace {

const ir::IrFunction *fn(Compilation &C, const std::string &Name) {
  for (const auto &F : C.module().functions())
    if (F->name() == Name)
      return F.get();
  ADD_FAILURE() << "no function named " << Name;
  return nullptr;
}

/// main -> a -> b -> c, d unreachable.
const char *ChainProgram = R"(
int c(int n) { return n + 1; }
int b(int n) { return c(n) + 1; }
int a(int n) { return b(n) + 1; }
int d(int n) { return n; }
int main() { return a(1); }
)";

/// even/odd 2-cycle plus a self-recursive fact.
const char *RecursiveProgram = R"(
int fact(int n) {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
int even(int n) {
  if (n == 0) { return 1; }
  return odd(n - 1);
}
int odd(int n) {
  if (n == 0) { return 0; }
  return even(n - 1);
}
int main() { return even(4) + fact(3); }
)";

TEST(CallGraph, ChainEdges) {
  auto C = compileOk(ChainProgram);
  const analysis::CallGraph &CG = C->callGraph();
  EXPECT_EQ(CG.numFunctions(), 5u);

  unsigned Main = CG.indexOf(fn(*C, "main"));
  unsigned A = CG.indexOf(fn(*C, "a"));
  unsigned B = CG.indexOf(fn(*C, "b"));
  unsigned D = CG.indexOf(fn(*C, "d"));
  ASSERT_EQ(CG.callees(Main).size(), 1u);
  EXPECT_EQ(CG.callees(Main)[0], A);
  ASSERT_EQ(CG.callers(B).size(), 1u);
  EXPECT_EQ(CG.callers(B)[0], A);
  EXPECT_TRUE(CG.callees(D).empty());
  EXPECT_TRUE(CG.callers(D).empty());
}

TEST(CallGraph, ChainSccsAreSingletonsInReverseTopologicalOrder) {
  auto C = compileOk(ChainProgram);
  const analysis::CallGraph &CG = C->callGraph();
  EXPECT_EQ(CG.numSccs(), 5u);
  for (unsigned Scc = 0; Scc < CG.numSccs(); ++Scc) {
    EXPECT_EQ(CG.sccMembers(Scc).size(), 1u);
    EXPECT_FALSE(CG.isRecursive(Scc));
  }
  // The defining property: every cross-SCC call edge goes to a lower id.
  for (unsigned F = 0; F < CG.numFunctions(); ++F)
    for (unsigned Callee : CG.callees(F))
      if (CG.sccOf(F) != CG.sccOf(Callee)) {
        EXPECT_LT(CG.sccOf(Callee), CG.sccOf(F));
      }
  // Concretely: c before b before a before main.
  EXPECT_LT(CG.sccOfFunction(fn(*C, "c")), CG.sccOfFunction(fn(*C, "b")));
  EXPECT_LT(CG.sccOfFunction(fn(*C, "b")), CG.sccOfFunction(fn(*C, "a")));
  EXPECT_LT(CG.sccOfFunction(fn(*C, "a")),
            CG.sccOfFunction(fn(*C, "main")));
}

TEST(CallGraph, ChainDepths) {
  auto C = compileOk(ChainProgram);
  const analysis::CallGraph &CG = C->callGraph();
  EXPECT_EQ(CG.sccDepth(CG.sccOfFunction(fn(*C, "c"))), 0u);
  EXPECT_EQ(CG.sccDepth(CG.sccOfFunction(fn(*C, "b"))), 1u);
  EXPECT_EQ(CG.sccDepth(CG.sccOfFunction(fn(*C, "a"))), 2u);
  EXPECT_EQ(CG.sccDepth(CG.sccOfFunction(fn(*C, "main"))), 3u);
  EXPECT_EQ(CG.sccDepth(CG.sccOfFunction(fn(*C, "d"))), 0u);
  EXPECT_EQ(CG.maxDepth(), 3u);
}

TEST(CallGraph, MutualRecursionFormsOneScc) {
  auto C = compileOk(RecursiveProgram);
  const analysis::CallGraph &CG = C->callGraph();
  unsigned EvenScc = CG.sccOfFunction(fn(*C, "even"));
  unsigned OddScc = CG.sccOfFunction(fn(*C, "odd"));
  EXPECT_EQ(EvenScc, OddScc);
  EXPECT_EQ(CG.sccMembers(EvenScc).size(), 2u);
  EXPECT_TRUE(CG.isRecursive(EvenScc));
  EXPECT_TRUE(CG.isRecursiveFunction(fn(*C, "even")));

  // fact is a singleton SCC, but recursive via its self edge.
  unsigned FactScc = CG.sccOfFunction(fn(*C, "fact"));
  EXPECT_NE(FactScc, EvenScc);
  EXPECT_EQ(CG.sccMembers(FactScc).size(), 1u);
  EXPECT_TRUE(CG.isRecursive(FactScc));

  // main is not recursive.
  EXPECT_FALSE(CG.isRecursiveFunction(fn(*C, "main")));
}

TEST(CallGraph, MayCall) {
  auto C = compileOk(ChainProgram);
  const analysis::CallGraph &CG = C->callGraph();
  EXPECT_TRUE(CG.mayCall(fn(*C, "main"), fn(*C, "c")));
  EXPECT_TRUE(CG.mayCall(fn(*C, "a"), fn(*C, "b")));
  EXPECT_FALSE(CG.mayCall(fn(*C, "c"), fn(*C, "main")));
  EXPECT_FALSE(CG.mayCall(fn(*C, "main"), fn(*C, "d")));
  // A non-recursive function does not reach itself.
  EXPECT_FALSE(CG.mayCall(fn(*C, "a"), fn(*C, "a")));
}

TEST(CallGraph, MayCallWithRecursion) {
  auto C = compileOk(RecursiveProgram);
  const analysis::CallGraph &CG = C->callGraph();
  EXPECT_TRUE(CG.mayCall(fn(*C, "even"), fn(*C, "odd")));
  EXPECT_TRUE(CG.mayCall(fn(*C, "odd"), fn(*C, "even")));
  EXPECT_TRUE(CG.mayCall(fn(*C, "even"), fn(*C, "even")));
  EXPECT_TRUE(CG.mayCall(fn(*C, "fact"), fn(*C, "fact")));
  EXPECT_TRUE(CG.mayCall(fn(*C, "main"), fn(*C, "odd")));
  EXPECT_FALSE(CG.mayCall(fn(*C, "fact"), fn(*C, "even")));
  EXPECT_FALSE(CG.mayCall(fn(*C, "main"), fn(*C, "main")));
}

TEST(CallGraph, ReachableClosure) {
  auto C = compileOk(ChainProgram);
  const analysis::CallGraph &CG = C->callGraph();
  std::vector<bool> Reach = CG.reachableClosure({fn(*C, "b")});
  EXPECT_TRUE(Reach[CG.indexOf(fn(*C, "b"))]);
  EXPECT_TRUE(Reach[CG.indexOf(fn(*C, "c"))]);
  EXPECT_FALSE(Reach[CG.indexOf(fn(*C, "a"))]);
  EXPECT_FALSE(Reach[CG.indexOf(fn(*C, "main"))]);
  EXPECT_FALSE(Reach[CG.indexOf(fn(*C, "d"))]);
}

TEST(CallGraph, EqualDepthSccsArePairwiseUnreachable) {
  auto C = compileOk(RecursiveProgram);
  const analysis::CallGraph &CG = C->callGraph();
  for (unsigned S1 = 0; S1 < CG.numSccs(); ++S1) {
    for (unsigned S2 = S1 + 1; S2 < CG.numSccs(); ++S2) {
      if (CG.sccDepth(S1) != CG.sccDepth(S2))
        continue;
      const ir::IrFunction *F1 = CG.function(CG.sccMembers(S1).front());
      const ir::IrFunction *F2 = CG.function(CG.sccMembers(S2).front());
      EXPECT_FALSE(CG.mayCall(F1, F2));
      EXPECT_FALSE(CG.mayCall(F2, F1));
    }
  }
}

TEST(CallGraph, DirectCalleesOfSectionBody) {
  auto C = compileOk(R"(
int g;
int bump(int n) { g = g + n; return g; }
int main() {
  int r;
  atomic { r = bump(1) + bump(2); }
  return r;
}
)");
  const ir::IrFunction *Main = fn(*C, "main");
  ASSERT_EQ(Main->atomicSections().size(), 1u);
  std::vector<const ir::IrFunction *> Callees =
      analysis::CallGraph::directCallees(
          Main->atomicSections()[0]->body());
  ASSERT_EQ(Callees.size(), 2u);
  EXPECT_EQ(Callees[0]->name(), "bump");
  EXPECT_EQ(Callees[1]->name(), "bump");
}

} // namespace
