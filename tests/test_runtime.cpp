//===--- test_runtime.cpp - Multi-granularity lock runtime tests ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockRuntime.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::rt;

/// Global allocations made by the calling thread so far (AllocCounter.cpp
/// replaces operator new to count them).
uint64_t threadAllocations();

namespace {

//===----------------------------------------------------------------------===//
// Mode algebra (Fig. 6)
//===----------------------------------------------------------------------===//

TEST(Modes, CompatibilityMatrixMatchesFigure6) {
  // Row by row, exactly the paper's table.
  EXPECT_TRUE(modesCompatible(Mode::IS, Mode::IS));
  EXPECT_TRUE(modesCompatible(Mode::IS, Mode::IX));
  EXPECT_TRUE(modesCompatible(Mode::IS, Mode::S));
  EXPECT_TRUE(modesCompatible(Mode::IS, Mode::SIX));
  EXPECT_FALSE(modesCompatible(Mode::IS, Mode::X));

  EXPECT_TRUE(modesCompatible(Mode::IX, Mode::IX));
  EXPECT_FALSE(modesCompatible(Mode::IX, Mode::S));
  EXPECT_FALSE(modesCompatible(Mode::IX, Mode::SIX));
  EXPECT_FALSE(modesCompatible(Mode::IX, Mode::X));

  EXPECT_TRUE(modesCompatible(Mode::S, Mode::S));
  EXPECT_FALSE(modesCompatible(Mode::S, Mode::SIX));
  EXPECT_FALSE(modesCompatible(Mode::S, Mode::X));

  EXPECT_FALSE(modesCompatible(Mode::SIX, Mode::SIX));
  EXPECT_FALSE(modesCompatible(Mode::SIX, Mode::X));
  EXPECT_FALSE(modesCompatible(Mode::X, Mode::X));
}

TEST(Modes, CompatibilityIsSymmetric) {
  for (unsigned A = 0; A < NumModes; ++A)
    for (unsigned B = 0; B < NumModes; ++B)
      EXPECT_EQ(modesCompatible(static_cast<Mode>(A), static_cast<Mode>(B)),
                modesCompatible(static_cast<Mode>(B), static_cast<Mode>(A)));
}

TEST(Modes, CombineIsJoin) {
  // combine(a,b) must grant both: everything incompatible with a or with
  // b must be incompatible with the combination.
  for (unsigned A = 0; A < NumModes; ++A) {
    for (unsigned B = 0; B < NumModes; ++B) {
      Mode C = combineModes(static_cast<Mode>(A), static_cast<Mode>(B));
      for (unsigned O = 0; O < NumModes; ++O) {
        Mode Other = static_cast<Mode>(O);
        if (!modesCompatible(static_cast<Mode>(A), Other) ||
            !modesCompatible(static_cast<Mode>(B), Other)) {
          EXPECT_FALSE(modesCompatible(C, Other))
              << modeName(static_cast<Mode>(A)) << "+"
              << modeName(static_cast<Mode>(B)) << "="
              << modeName(C) << " vs " << modeName(Other);
        }
      }
      // Commutative and idempotent.
      EXPECT_EQ(C, combineModes(static_cast<Mode>(B), static_cast<Mode>(A)));
    }
    EXPECT_EQ(combineModes(static_cast<Mode>(A), static_cast<Mode>(A)),
              static_cast<Mode>(A));
  }
  // The classic case: shared + intention-exclusive = SIX.
  EXPECT_EQ(combineModes(Mode::S, Mode::IX), Mode::SIX);
}

//===----------------------------------------------------------------------===//
// LockNode
//===----------------------------------------------------------------------===//

/// Every LockNode test runs on both node kinds: a leaf keeps all grants
/// in its word, an interior node (root, region) keeps IS/IX in
/// per-thread intention slots.
class LockNodeKinds : public ::testing::TestWithParam<LockNode::Kind> {};

TEST_P(LockNodeKinds, SharedHoldersOverlap) {
  LockNode Node(GetParam());
  Node.acquire(Mode::S);
  EXPECT_TRUE(Node.tryAcquire(Mode::S));
  EXPECT_TRUE(Node.tryAcquire(Mode::IS));
  EXPECT_FALSE(Node.tryAcquire(Mode::X));
  EXPECT_FALSE(Node.tryAcquire(Mode::IX));
  Node.release(Mode::S);
  Node.release(Mode::S);
  Node.release(Mode::IS);
  EXPECT_TRUE(Node.tryAcquire(Mode::X));
  Node.release(Mode::X);
}

TEST_P(LockNodeKinds, ExclusiveBlocksUntilReleased) {
  LockNode Node(GetParam());
  Node.acquire(Mode::X);
  std::atomic<bool> Acquired{false};
  std::thread T([&] {
    Node.acquire(Mode::S);
    Acquired.store(true);
    Node.release(Mode::S);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load());
  Node.release(Mode::X);
  T.join();
  EXPECT_TRUE(Acquired.load());
}

TEST_P(LockNodeKinds, WriterNotStarvedByReaders) {
  // FIFO granting: once a writer queues, later readers wait behind it.
  LockNode Node(GetParam());
  Node.acquire(Mode::S);
  std::atomic<bool> WriterDone{false};
  std::thread Writer([&] {
    Node.acquire(Mode::X);
    WriterDone.store(true);
    Node.release(Mode::X);
  });
  // Wait until the writer has queued. Its waiter bit stays up until it
  // is granted, which cannot happen while S is held here. (Polling
  // tryAcquire(S) instead could stop early on the writer's brief
  // optimistic X grant, before it backs off and parks.)
  while (!Node.hasWaiters())
    std::this_thread::yield();
  // A new reader must now queue behind the writer.
  EXPECT_FALSE(Node.tryAcquire(Mode::S));
  Node.release(Mode::S);
  Writer.join();
  EXPECT_TRUE(WriterDone.load());
  EXPECT_TRUE(Node.tryAcquire(Mode::S));
  Node.release(Mode::S);
}

TEST_P(LockNodeKinds, MixedModeStressCompatibilityInvariant) {
  // 8 threads hammer one node with all five modes. Each thread bumps its
  // mode's holder count after acquiring and drops it before releasing, so
  // while any thread holds the node every incompatible count must read
  // zero — any overlap the compatibility matrix forbids is caught in the
  // window where both holders have their counts up.
  LockNode Node(GetParam());
  std::array<std::atomic<unsigned>, NumModes> Held{};
  std::atomic<bool> Bad{false};
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Rounds = 3000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(77 + T);
      for (unsigned I = 0; I < Rounds; ++I) {
        Mode M = static_cast<Mode>(R.below(NumModes));
        Node.acquire(M);
        Held[static_cast<unsigned>(M)].fetch_add(1);
        for (unsigned O = 0; O < NumModes; ++O) {
          // For a self-incompatible mode (X, SIX) the holder sees its own
          // count: one grant is this thread, a second is a violation.
          unsigned Self = O == static_cast<unsigned>(M) ? 1u : 0u;
          if (!modesCompatible(M, static_cast<Mode>(O)) &&
              Held[O].load() > Self)
            Bad.store(true);
        }
        Held[static_cast<unsigned>(M)].fetch_sub(1);
        Node.release(M);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Bad.load()) << "incompatible modes held concurrently";
  for (unsigned M = 0; M < NumModes; ++M)
    EXPECT_EQ(Node.grantedCount(static_cast<Mode>(M)), 0u);
}

TEST_P(LockNodeKinds, WriterBoundedWaitUnderReaderChurn) {
  // FIFO anti-starvation: with readers continuously cycling S, a writer
  // that queues must still be granted in bounded time — arrivals after it
  // queue behind it instead of barging.
  LockNode Node(GetParam());
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (unsigned I = 0; I < 4; ++I) {
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        Node.acquire(Mode::S);
        for (unsigned Spin = 0; Spin < 16; ++Spin)
          detail::cpuRelax();
        Node.release(Mode::S);
      }
    });
  }
  // Let the reader churn establish itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto T0 = std::chrono::steady_clock::now();
  Node.acquire(Mode::X);
  auto Waited = std::chrono::steady_clock::now() - T0;
  Stop.store(true);
  Node.release(Mode::X);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Waited)
                .count(),
            2000)
      << "writer starved by reader churn";
}

INSTANTIATE_TEST_SUITE_P(
    LockNode, LockNodeKinds,
    ::testing::Values(LockNode::Kind::Leaf, LockNode::Kind::Interior),
    [](const ::testing::TestParamInfo<LockNode::Kind> &Info) {
      return Info.param == LockNode::Kind::Leaf ? "Leaf" : "Interior";
    });

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, FineLocksInDifferentRegionsOverlap) {
  LockRuntime RT(4);
  ThreadLockContext T1(RT), T2(RT);
  T1.toAcquire(LockDescriptor::fine(0, 100, true));
  T1.acquireAll();
  std::atomic<bool> Acquired{false};
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::fine(1, 200, true));
    T2.acquireAll();
    Acquired.store(true);
    T2.releaseAll();
  });
  Other.join();
  EXPECT_TRUE(Acquired.load());
  T1.releaseAll();
}

TEST(Protocol, FineWritersOnDifferentAddressesOverlap) {
  LockRuntime RT(2);
  ThreadLockContext T1(RT), T2(RT);
  T1.toAcquire(LockDescriptor::fine(0, 100, true));
  T1.acquireAll();
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::fine(0, 101, true));
    T2.acquireAll(); // IX + IX at the region: compatible
    T2.releaseAll();
  });
  Other.join();
  T1.releaseAll();
}

TEST(Protocol, CoarseWriteExcludesFineInSameRegion) {
  LockRuntime RT(2);
  ThreadLockContext T1(RT), T2(RT);
  T1.toAcquire(LockDescriptor::coarse(0, true)); // region X
  T1.acquireAll();
  std::atomic<bool> Acquired{false};
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::fine(0, 100, false)); // region IS
    T2.acquireAll();
    Acquired.store(true);
    T2.releaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load()) << "IS must wait for X";
  T1.releaseAll();
  Other.join();
  EXPECT_TRUE(Acquired.load());
}

TEST(Protocol, CoarseReadersShareARegion) {
  LockRuntime RT(2);
  ThreadLockContext T1(RT), T2(RT);
  T1.toAcquire(LockDescriptor::coarse(0, false));
  T1.acquireAll();
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::coarse(0, false));
    T2.acquireAll(); // S + S
    T2.releaseAll();
  });
  Other.join();
  T1.releaseAll();
}

TEST(Protocol, CoarseReadPlusFineWriteCombinesToSIX) {
  LockRuntime RT(2);
  ThreadLockContext T1(RT), T2(RT);
  // Same thread: coarse ro + fine rw in one region => region SIX.
  T1.toAcquire(LockDescriptor::coarse(0, false));
  T1.toAcquire(LockDescriptor::fine(0, 77, true));
  T1.acquireAll();
  EXPECT_EQ(RT.regionNode(0).grantedCount(Mode::SIX), 1u);
  // Another coarse reader (S) is incompatible with SIX.
  std::atomic<bool> Acquired{false};
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::coarse(0, false));
    T2.acquireAll();
    Acquired.store(true);
    T2.releaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load());
  T1.releaseAll();
  Other.join();
}

TEST(Protocol, GlobalLockExcludesEverything) {
  LockRuntime RT(2);
  ThreadLockContext T1(RT), T2(RT);
  T1.toAcquire(LockDescriptor::global());
  T1.acquireAll();
  std::atomic<bool> Acquired{false};
  std::thread Other([&] {
    T2.toAcquire(LockDescriptor::fine(1, 5, false));
    T2.acquireAll();
    Acquired.store(true);
    T2.releaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load()) << "IS on root must wait for X";
  T1.releaseAll();
  Other.join();
}

TEST(Protocol, NestedSectionsAcquireNothing) {
  // A private registry isolates the counter assertions below from every
  // other runtime in the process.
  lockin::obs::MetricsRegistry Reg;
  LockRuntime RT(2, &Reg);
  ThreadLockContext T(RT);
  T.toAcquire(LockDescriptor::coarse(0, true));
  T.acquireAll();
  EXPECT_EQ(T.nestingLevel(), 1);
  T.toAcquire(LockDescriptor::coarse(1, true)); // ignored: nested
  T.acquireAll();
  EXPECT_EQ(T.nestingLevel(), 2);
  // The inner section took no lock: region 1 is untouched.
  EXPECT_EQ(RT.regionNode(1).grantedCount(Mode::X), 0u);
  EXPECT_TRUE(RT.regionNode(1).tryAcquire(Mode::X));
  RT.regionNode(1).release(Mode::X);
  if constexpr (lockin::obs::kEnabled) {
    // Stats are buffered per context; flush before reading the aggregate.
    T.flushStats();
    EXPECT_EQ(RT.stats().AcquireAllCalls, 1u);
    EXPECT_EQ(RT.stats().NestedSkips, 1u);
    EXPECT_EQ(RT.stats().NodeAcquisitions, 2u); // root IX + region X
  }
  T.releaseAll();
  EXPECT_EQ(T.nestingLevel(), 1);
  // Still holding the outer locks.
  EXPECT_TRUE(T.coversAccess(0, 0, true));
  T.releaseAll();
  EXPECT_EQ(T.nestingLevel(), 0);
  EXPECT_FALSE(T.coversAccess(0, 0, true));
}

TEST(Protocol, CoversAccessSemantics) {
  LockRuntime RT(3);
  ThreadLockContext T(RT);
  T.toAcquire(LockDescriptor::fine(0, 50, false));
  T.toAcquire(LockDescriptor::coarse(1, true));
  T.acquireAll();
  // Fine ro: covers reads of that address only.
  EXPECT_TRUE(T.coversAccess(50, 0, false));
  EXPECT_FALSE(T.coversAccess(50, 0, true)) << "ro lock can't cover write";
  EXPECT_FALSE(T.coversAccess(51, 0, false));
  // Coarse rw: covers everything in region 1.
  EXPECT_TRUE(T.coversAccess(999, 1, true));
  EXPECT_FALSE(T.coversAccess(999, 2, false));
  T.releaseAll();
}

TEST(Protocol, DeadlockFreedomStress) {
  // Many threads acquiring random mixed-granularity lock sets; with the
  // ordered top-down protocol this must always make progress.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Rounds = 300;
  LockRuntime RT(6);
  std::atomic<uint64_t> Done{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(1000 + T);
      ThreadLockContext Ctx(RT);
      for (unsigned I = 0; I < Rounds; ++I) {
        unsigned N = 1 + static_cast<unsigned>(R.below(4));
        for (unsigned J = 0; J < N; ++J) {
          uint32_t Region = static_cast<uint32_t>(R.below(6));
          bool Write = R.chance(1, 2);
          if (R.chance(1, 4))
            Ctx.toAcquire(LockDescriptor::coarse(Region, Write));
          else
            Ctx.toAcquire(LockDescriptor::fine(Region, R.below(20), Write));
        }
        if (R.chance(1, 40))
          Ctx.toAcquire(LockDescriptor::global());
        Ctx.acquireAll();
        Ctx.releaseAll();
        Done.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Done.load(), NumThreads * Rounds);
}

TEST(Protocol, MutualExclusionProtectsCounter) {
  // Two writers on the same fine address must serialize.
  LockRuntime RT(1);
  int64_t Counter = 0;
  constexpr unsigned PerThread = 20000;
  auto Work = [&] {
    ThreadLockContext Ctx(RT);
    for (unsigned I = 0; I < PerThread; ++I) {
      Ctx.toAcquire(LockDescriptor::fine(0, 42, true));
      Ctx.acquireAll();
      Counter = Counter + 1;
      Ctx.releaseAll();
    }
  };
  std::thread A(Work), B(Work);
  A.join();
  B.join();
  EXPECT_EQ(Counter, 2 * PerThread);
}

TEST(Protocol, ReadersWritersCounterWithCoarseLocks) {
  LockRuntime RT(1);
  int64_t Value = 0;
  std::atomic<bool> Bad{false};
  auto Writer = [&] {
    ThreadLockContext Ctx(RT);
    for (unsigned I = 0; I < 5000; ++I) {
      Ctx.toAcquire(LockDescriptor::coarse(0, true));
      Ctx.acquireAll();
      Value = Value + 1; // torn only if exclusion fails
      Value = Value + 1;
      Ctx.releaseAll();
    }
  };
  auto Reader = [&] {
    ThreadLockContext Ctx(RT);
    for (unsigned I = 0; I < 5000; ++I) {
      Ctx.toAcquire(LockDescriptor::coarse(0, false));
      Ctx.acquireAll();
      if (Value % 2 != 0)
        Bad.store(true);
      Ctx.releaseAll();
    }
  };
  std::thread W1(Writer), W2(Writer), R1(Reader), R2(Reader);
  W1.join();
  W2.join();
  R1.join();
  R2.join();
  EXPECT_FALSE(Bad.load()) << "reader saw a torn update";
  EXPECT_EQ(Value, 2 * 2 * 5000);
}

TEST(Protocol, SteadyStateAcquireAllIsAllocationFree) {
  // After a warm-up that grows the context's scratch buffers and creates
  // the leaf nodes, repeated sections must not touch the heap at all —
  // single- and multi-descriptor paths alike.
  LockRuntime RT(4);
  ThreadLockContext Ctx(RT);
  auto Section = [&](unsigned I) {
    uint32_t Region = I % 4;
    Ctx.toAcquire(LockDescriptor::fine(Region, 0x1000 + (I % 8) * 8, true));
    if (I % 3 == 0)
      Ctx.toAcquire(LockDescriptor::fine(Region, 0x2000 + (I % 4) * 8, false));
    if (I % 5 == 0)
      Ctx.toAcquire(LockDescriptor::coarse((Region + 1) % 4, false));
    Ctx.acquireAll();
    Ctx.releaseAll();
  };
  for (unsigned I = 0; I < 64; ++I)
    Section(I);
  uint64_t Before = threadAllocations();
  for (unsigned I = 0; I < 2048; ++I)
    Section(I);
  EXPECT_EQ(threadAllocations(), Before)
      << "steady-state acquireAll/releaseAll allocated";
}

//===----------------------------------------------------------------------===//
// Intention slots (root and region nodes)
//===----------------------------------------------------------------------===//

TEST(IntentionSlots, CoarseWriterDrainsFineHolder) {
  // A fine writer holds region IX in its slot. A coarse writer must
  // publish region X in the word and then wait for the slot to drain.
  LockRuntime RT(1);
  ThreadLockContext Fine(RT);
  Fine.toAcquire(LockDescriptor::fine(0, 0x40, true));
  Fine.acquireAll();
  ASSERT_EQ(RT.regionNode(0).grantedCount(Mode::IX), 1u);
  std::atomic<bool> Entered{false};
  std::thread Coarse([&] {
    ThreadLockContext Ctx(RT);
    Ctx.toAcquire(LockDescriptor::coarse(0, true));
    Ctx.acquireAll();
    Entered.store(true);
    Ctx.releaseAll();
  });
  // Nothing in the word conflicts with X, so X == 1 means the coarse
  // writer kept its grant and is draining the fine holder's slot. It
  // must stay there, however long this thread watches.
  while (RT.regionNode(0).grantedCount(Mode::X) != 1)
    std::this_thread::yield();
  for (unsigned I = 0; I < 10000 && !Entered.load(); ++I)
    std::this_thread::yield();
  EXPECT_FALSE(Entered.load());
  Fine.releaseAll();
  Coarse.join();
  EXPECT_TRUE(Entered.load());
  for (unsigned M = 0; M < NumModes; ++M) {
    EXPECT_EQ(RT.root().grantedCount(static_cast<Mode>(M)), 0u);
    EXPECT_EQ(RT.regionNode(0).grantedCount(static_cast<Mode>(M)), 0u);
  }
}

TEST(IntentionSlots, FineAndCoarseWritersShareOneWord) {
  // Fine rw on address A (region IX in a slot, leaf X) and coarse rw on
  // its region (region X in the word) both cover the same word. A broken
  // slot/word handshake lets the two overlap and lose increments.
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 20000;
  LockRuntime RT(1);
  uint64_t Shared = 0;
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      ThreadLockContext Ctx(RT);
      // Start together so the two kinds of section really interleave.
      Ready.fetch_add(1);
      while (Ready.load() < NumThreads)
        std::this_thread::yield();
      for (unsigned I = 0; I < Rounds; ++I) {
        if ((I + T) % 2)
          Ctx.toAcquire(LockDescriptor::fine(0, 0x40, true));
        else
          Ctx.toAcquire(LockDescriptor::coarse(0, true));
        Ctx.acquireAll();
        // A plain read-modify-write with a window between the two.
        uint64_t V = Shared;
        for (unsigned Spin = 0; Spin < 8; ++Spin)
          detail::cpuRelax();
        Shared = V + 1;
        Ctx.releaseAll();
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Shared, uint64_t(NumThreads) * Rounds);
}

TEST(IntentionSlots, GrantedCountSumsSlotsAcrossThreads) {
  LockRuntime RT(2);
  LockNode &Root = RT.root();
  LockNode &Region = RT.regionNode(1);
  Root.acquire(Mode::IS);
  Region.acquire(Mode::IX);
  std::thread Other([&] {
    Root.acquire(Mode::IS);
    Root.acquire(Mode::IX);
    Region.acquire(Mode::IX);
  });
  Other.join();
  EXPECT_EQ(Root.grantedCount(Mode::IS), 2u);
  EXPECT_EQ(Root.grantedCount(Mode::IX), 1u);
  EXPECT_EQ(Region.grantedCount(Mode::IX), 2u);
  EXPECT_EQ(Region.grantedCount(Mode::IS), 0u);
  // Slot grants conflict with strong modes like word grants do.
  EXPECT_FALSE(Root.tryAcquire(Mode::X));
  EXPECT_FALSE(Region.tryAcquire(Mode::S));
  EXPECT_TRUE(Root.tryAcquire(Mode::IS));
  Root.release(Mode::IS);
  // Release from a different thread than the acquire: the acquiring
  // slots stay up, the releasing ones go negative, the sums are exact.
  std::thread Releaser([&] {
    Root.release(Mode::IS);
    Region.release(Mode::IX);
  });
  Releaser.join();
  EXPECT_EQ(Root.grantedCount(Mode::IS), 1u);
  EXPECT_EQ(Region.grantedCount(Mode::IX), 1u);
  Root.release(Mode::IS);
  Root.release(Mode::IX);
  Region.release(Mode::IX);
  for (unsigned M = 0; M < NumModes; ++M) {
    EXPECT_EQ(Root.grantedCount(static_cast<Mode>(M)), 0u);
    EXPECT_EQ(Region.grantedCount(static_cast<Mode>(M)), 0u);
  }
  EXPECT_TRUE(Root.tryAcquire(Mode::X));
  Root.release(Mode::X);
  EXPECT_TRUE(Region.tryAcquire(Mode::X));
  Region.release(Mode::X);
}

TEST(IntentionSlots, ReleasesFromThreadsThatNeverAcquiredAreCounted) {
  // A thread's first slot access may release another thread's grant,
  // leaving its own slot at -1. Sums read only the slots marked in use,
  // so that slot must be marked too, or the sum stays above zero and a
  // strong request never drains. 64 fresh threads take slot indices
  // round-robin, so they cover slots this thread never touched.
  LockNode Node(LockNode::Kind::Interior);
  constexpr unsigned N = 64;
  for (unsigned I = 0; I < N; ++I)
    Node.acquire(Mode::IX);
  EXPECT_EQ(Node.grantedCount(Mode::IX), N);
  for (unsigned I = 0; I < N; ++I)
    std::thread([&] { Node.release(Mode::IX); }).join();
  EXPECT_EQ(Node.grantedCount(Mode::IX), 0u);
  EXPECT_TRUE(Node.tryAcquire(Mode::X));
  Node.release(Mode::X);
}

TEST(IntentionSlots, EscalationDrainsRunningFineSections) {
  // escalateRegion's region X must drain fine holders out of the slots
  // and hold new ones back across the layout swap: two threads sharing
  // one address on the old leaf and on the new stripe would lose
  // increments.
  constexpr unsigned NumThreads = 3;
  constexpr unsigned Rounds = 6000;
  LockRuntime RT(1);
  uint64_t Shared = 0;
  std::atomic<uint64_t> Progress{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      ThreadLockContext Ctx(RT);
      for (unsigned I = 0; I < Rounds; ++I) {
        Ctx.toAcquire(LockDescriptor::fine(0, 0x40, true));
        Ctx.acquireAll();
        Shared = Shared + 1;
        Ctx.releaseAll();
        Progress.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned Swap = 0; Swap < 8; ++Swap) {
    uint64_t Seen = Progress.load();
    while (Progress.load() == Seen && Seen < NumThreads * Rounds)
      std::this_thread::yield();
    EXPECT_TRUE(RT.escalateRegion(0, 4));
    EXPECT_NE(RT.regionLayout(0), nullptr);
    EXPECT_TRUE(RT.deescalateRegion(0));
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Shared, uint64_t(NumThreads) * Rounds);
  EXPECT_EQ(RT.regionNode(0).grantedCount(Mode::IX), 0u);
}

} // namespace
