//===--- test_adaptive.cpp - Contention-adaptive runtime tests -----------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// Deterministic policy-ladder tests: the profiler slots are pumped by
// hand and the engine is ticked manually (EveryNSections = 0, no epoch
// thread, ArmDutyTicks = 1 so every tick reads a full epoch delta), so
// each transition fires on an exact tick. The stress tests at the bottom
// exercise the drain gate and live layout swaps under real threads.
//
//===----------------------------------------------------------------------===//

#include "runtime/Adaptive.h"
#include "stm/Tl2.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::rt;
using namespace lockin::rt::adaptive;

namespace {

// Mode indices into NodeSlot::ModeCounts (the Mode enum order).
constexpr unsigned kIS = 0, kIX = 1, kS = 2, kX = 4;

/// Test fixture state: a fresh runtime with injected registry/profiler
/// so counter asserts are exact, plus an engine configured for manual
/// single-tick epochs.
struct Rig {
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  LockRuntime RT;
  AdaptiveEngine Eng;

  explicit Rig(AdaptiveConfig C, unsigned NumRegions = 1)
      : RT(NumRegions, &Reg, &Prof), Eng(RT, C) {}

  obs::NodeSlot &slot(LockNode &N) { return Prof.nodeSlot(N.ObsId); }
};

AdaptiveConfig manualConfig() {
  AdaptiveConfig C;
  C.ArmDutyTicks = 1; // always armed: tick N+1 sees tick N..N+1 deltas
  C.BiasEpochs = 2;
  C.BiasMinContentions = 4;
  C.EscalateEpochs = 2;
  C.DeescalateEpochs = 2;
  C.StmEpochs = 2;
  C.StmFallbackEpochs = 2;
  C.TransitionCooldownTicks = 1;
  return C;
}

//===----------------------------------------------------------------------===//
// Rung 1: reader bias
//===----------------------------------------------------------------------===//

// Tests that pump per-node profiler slots by hand need registered nodes;
// with LOCKIN_OBS=OFF nothing registers (ObsId stays 0) and the policy
// ladder is deliberately inert, so those tests skip.
#define SKIP_WITHOUT_OBS()                                                     \
  do {                                                                         \
    if constexpr (!obs::kEnabled)                                              \
      GTEST_SKIP() << "built with LOCKIN_OBS=OFF";                             \
  } while (0)

TEST(AdaptiveBias, SetAfterHysteresisClearAfterShift) {
  SKIP_WITHOUT_OBS();
  Rig R(manualConfig());
  LockNode &Leaf = R.RT.leafNode(0, 0x1000);
  ASSERT_NE(Leaf.ObsId, 0u);

  R.Eng.tick(); // first armed tick only snapshots

  // Two consecutive read-mostly contended epochs set the bias — but not
  // one.
  auto PumpReads = [&] {
    R.slot(Leaf).ModeCounts[kS].add(95);
    R.slot(Leaf).ModeCounts[kX].add(5);
    R.slot(Leaf).Contentions.add(8);
  };
  PumpReads();
  R.Eng.tick();
  EXPECT_FALSE(Leaf.readerBias()); // HiStreak = 1 < BiasEpochs
  PumpReads();
  R.Eng.tick();
  EXPECT_TRUE(Leaf.readerBias());
  EXPECT_EQ(R.Reg.counter("adaptive.reader_bias_set").value(), 1u);

  // One cooldown tick sits out, then two write-heavy epochs clear it.
  auto PumpWrites = [&] { R.slot(Leaf).ModeCounts[kX].add(100); };
  PumpWrites();
  R.Eng.tick(); // cooldown
  EXPECT_TRUE(Leaf.readerBias());
  PumpWrites();
  R.Eng.tick(); // LoStreak = 1
  EXPECT_TRUE(Leaf.readerBias());
  PumpWrites();
  R.Eng.tick(); // LoStreak = 2: clear
  EXPECT_FALSE(Leaf.readerBias());
  EXPECT_EQ(R.Reg.counter("adaptive.reader_bias_cleared").value(), 1u);
}

TEST(AdaptiveBias, DeadBandNeverPingPongs) {
  SKIP_WITHOUT_OBS();
  Rig R(manualConfig());
  LockNode &Leaf = R.RT.leafNode(0, 0x1000);
  R.Eng.tick();

  // 80% reads sits between BiasReadLo (70%) and BiasReadHi (90%): no
  // matter how long it persists, neither transition may fire.
  for (int E = 0; E < 8; ++E) {
    R.slot(Leaf).ModeCounts[kS].add(80);
    R.slot(Leaf).ModeCounts[kX].add(20);
    R.slot(Leaf).Contentions.add(10);
    R.Eng.tick();
    EXPECT_FALSE(Leaf.readerBias());
  }
  EXPECT_EQ(R.Reg.counter("adaptive.reader_bias_set").value(), 0u);
  EXPECT_EQ(R.Reg.counter("adaptive.reader_bias_cleared").value(), 0u);
}

TEST(AdaptiveBias, UncontendedReadsNeverBias) {
  SKIP_WITHOUT_OBS();
  Rig R(manualConfig());
  LockNode &Leaf = R.RT.leafNode(0, 0x1000);
  R.Eng.tick();
  // Pure reads but below BiasMinContentions: bias would only add
  // bookkeeping on a lock nobody waits for.
  for (int E = 0; E < 4; ++E) {
    R.slot(Leaf).ModeCounts[kS].add(100);
    R.slot(Leaf).Contentions.add(1);
    R.Eng.tick();
  }
  EXPECT_FALSE(Leaf.readerBias());
}

/// Bias tests that drive one node directly run on both node kinds: a
/// leaf, and an interior node whose IS grants live in intention slots.
class AdaptiveBiasKinds : public ::testing::TestWithParam<LockNode::Kind> {};

TEST_P(AdaptiveBiasKinds, WriterMakesProgressUnderReaderBias) {
  // The barge valve admits BargeCredit readers past a parked writer,
  // then the FIFO queue must win: the writer completes while readers
  // keep hammering. One reader takes IS, which barges through the
  // intention slots on an interior node.
  LockNode N(GetParam());
  N.setReaderBias(true, /*Credit=*/16);
  std::atomic<bool> Stop{false};
  std::atomic<bool> WriterDone{false};
  std::vector<std::thread> Readers;
  for (int I = 0; I < 3; ++I)
    Readers.emplace_back([&, I] {
      const Mode M = I == 1 ? Mode::IS : Mode::S;
      while (!Stop.load(std::memory_order_relaxed)) {
        N.acquire(M);
        N.release(M);
      }
    });
  std::thread Writer([&] {
    N.acquire(Mode::X);
    N.release(Mode::X);
    WriterDone.store(true, std::memory_order_release);
  });
  for (int I = 0; I < 10000 && !WriterDone.load(std::memory_order_acquire);
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_TRUE(WriterDone.load());
}

TEST_P(AdaptiveBiasKinds, IntentionReaderBargesPastParkedWriter) {
  // S is held and an X writer is parked behind it. IS is compatible with
  // S, so only the waiter bit blocks it: with bias and credit it keeps
  // its grant without parking. (Unbiased, it would queue behind the
  // writer, which waits on the S this thread holds.)
  LockNode N(GetParam());
  N.setReaderBias(true, /*Credit=*/1);
  N.acquire(Mode::S);
  std::thread Writer([&] {
    N.acquire(Mode::X);
    N.release(Mode::X);
  });
  while (!N.hasWaiters())
    std::this_thread::yield();
  EXPECT_FALSE(N.acquire(Mode::IS)) << "barging IS parked";
  EXPECT_EQ(N.grantedCount(Mode::IS), 1u);
  N.release(Mode::IS);
  N.release(Mode::S);
  Writer.join();
  EXPECT_EQ(N.grantedCount(Mode::X), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AdaptiveBias, AdaptiveBiasKinds,
    ::testing::Values(LockNode::Kind::Leaf, LockNode::Kind::Interior),
    [](const ::testing::TestParamInfo<LockNode::Kind> &Info) {
      return Info.param == LockNode::Kind::Leaf ? "Leaf" : "Interior";
    });

//===----------------------------------------------------------------------===//
// Rung 2: stripe escalation
//===----------------------------------------------------------------------===//

TEST(AdaptiveEscalate, StripesInstalledSizedAndRemoved) {
  SKIP_WITHOUT_OBS();
  AdaptiveConfig C = manualConfig();
  C.EscalateLeafPressure = 4; // reachable without creating 2048 leaves
  Rig R(C);

  std::vector<LockNode *> Leaves;
  for (uint64_t I = 0; I < 8; ++I)
    Leaves.push_back(&R.RT.leafNode(0, 0x1000 + I * 8));
  ASSERT_GE(R.RT.regionLeafCount(0), 4u);
  LockNode &Region = R.RT.regionNode(0);

  R.Eng.tick(); // snapshot

  // Fine-dominated traffic at the region node (intention grants only).
  auto PumpFine = [&] {
    R.slot(Region).ModeCounts[kIS].add(50);
    R.slot(Region).ModeCounts[kIX].add(30);
  };
  PumpFine();
  R.Eng.tick();
  EXPECT_EQ(R.RT.regionLayout(0), nullptr); // EscStreak = 1

  // 8 observed contenders on a leaf size the table: max(MinStripes,
  // 4 * popcount) = 32.
  PumpFine();
  R.slot(*Leaves[0]).ContenderMask.store(0xFF, std::memory_order_relaxed);
  R.Eng.tick();
  StripeTable *T = R.RT.regionLayout(0);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Count, 32u);
  EXPECT_GE(T->Count, C.MinStripes);
  EXPECT_LE(T->Count, C.MaxStripes);
  EXPECT_EQ(R.Reg.counter("adaptive.region_escalations").value(), 1u);

  // Coarse traffic takes over: cooldown tick, then two coarse epochs
  // swap the flat layout back in.
  auto PumpCoarse = [&] { R.slot(Region).ModeCounts[kS].add(60); };
  PumpCoarse();
  R.Eng.tick(); // cooldown
  EXPECT_NE(R.RT.regionLayout(0), nullptr);
  PumpCoarse();
  R.Eng.tick(); // DeescStreak = 1
  EXPECT_NE(R.RT.regionLayout(0), nullptr);
  PumpCoarse();
  R.Eng.tick(); // DeescStreak = 2: de-escalate
  EXPECT_EQ(R.RT.regionLayout(0), nullptr);
  EXPECT_EQ(R.Reg.counter("adaptive.region_deescalations").value(), 1u);
}

TEST(AdaptiveEscalate, LiveEscalationKeepsSectionsAtomic) {
  // Layout swaps race real fine-grained sections: every increment must
  // land exactly once regardless of which layout granted it.
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  LockRuntime RT(1, &Reg, &Prof);
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t Iters = 8000;
  constexpr unsigned NumAddrs = 64;
  std::vector<uint64_t> Words(NumAddrs, 0);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ThreadLockContext Ctx(RT);
      Rng Rand(0x5eed + T);
      for (uint64_t I = 0; I < Iters; ++I) {
        uint32_t Idx = static_cast<uint32_t>(Rand.below(NumAddrs));
        Ctx.toAcquire(
            LockDescriptor::fine(0, 0x1000 + uint64_t(Idx) * 8, true));
        Ctx.acquireAll();
        ++Words[Idx];
        Ctx.releaseAll();
      }
    });
  for (int Swap = 0; Swap < 24; ++Swap) {
    RT.escalateRegion(0, 8);
    std::this_thread::yield();
    RT.deescalateRegion(0);
    std::this_thread::yield();
  }
  for (std::thread &T : Threads)
    T.join();
  uint64_t Sum = 0;
  for (uint64_t W : Words)
    Sum += W;
  EXPECT_EQ(Sum, uint64_t(NumThreads) * Iters);
}

//===----------------------------------------------------------------------===//
// Rung 3: STM migration
//===----------------------------------------------------------------------===//

TEST(AdaptiveStm, MigratesOnSustainedWaitThenFallsBackOnAbortStorm) {
  AdaptiveConfig C = manualConfig();
  C.StmMinWaitNs = 1000;
  C.StmMinAttempts = 4;
  Rig R(C);
  uint32_t Dom = R.Eng.addDomain();
  constexpr uint32_t Tag = 7;
  R.Eng.bindSection(Dom, Tag);
  ASSERT_EQ(R.Eng.domainBackend(Dom), Backend::Lock);

  R.Eng.tick(); // snapshot

  // Sustained parking 10x the hold time: two epochs migrate the domain.
  auto PumpWait = [&] {
    R.Prof.sectionSlot(Tag).WaitNs.add(10000);
    R.Prof.sectionSlot(Tag).HoldNs.add(1000);
  };
  PumpWait();
  R.Eng.tick();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Lock); // StmStreak = 1
  PumpWait();
  R.Eng.tick();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
  EXPECT_EQ(R.Reg.counter("adaptive.stm_migrations").value(), 1u);

  // Abort storm: >50% aborts over enough attempts, two epochs after the
  // cooldown flips it back.
  R.Eng.noteStm(Dom, 2, 8);
  R.Eng.tick(); // cooldown
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
  R.Eng.noteStm(Dom, 2, 8);
  R.Eng.tick(); // FallbackStreak = 1
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
  R.Eng.noteStm(Dom, 2, 8);
  R.Eng.tick(); // FallbackStreak = 2: fall back
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Lock);
  EXPECT_EQ(R.Reg.counter("adaptive.stm_fallbacks").value(), 1u);

  // The post-storm cooldown is 4x: the same wait pressure cannot
  // re-migrate for 4 ticks even with the streak satisfied.
  for (int E = 0; E < 4; ++E) {
    PumpWait();
    R.Eng.tick();
    EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Lock);
  }
}

TEST(AdaptiveStm, HealthyStmDomainStaysPut) {
  AdaptiveConfig C = manualConfig();
  C.StmMinAttempts = 4;
  Rig R(C);
  uint32_t Dom = R.Eng.addDomain();
  R.Eng.bindSection(Dom, 3);
  R.Eng.forceBackend(Dom, Backend::Stm);
  R.Eng.tick(); // snapshot
  for (int E = 0; E < 6; ++E) {
    R.Eng.noteStm(Dom, 20, 1); // 5% aborts: healthy
    R.Eng.tick();
    EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
  }
  EXPECT_EQ(R.Reg.counter("adaptive.stm_fallbacks").value(), 0u);
}

//===----------------------------------------------------------------------===//
// Epoch duty cycle
//===----------------------------------------------------------------------===//

TEST(AdaptiveDuty, ProfilerArmsOneTickInDutyAndBacksOff) {
  AdaptiveConfig C;
  C.ArmDutyTicks = 4;
  C.StableTicksToBackoff = 2;
  Rig R(C);
  ASSERT_FALSE(R.Prof.enabled());

  // Dormant ticks leave the profiler off; the arm tick turns it on and
  // the following read tick turns it back off.
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // dormant 1
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // dormant 2
  R.Eng.tick();
  EXPECT_TRUE(R.Prof.enabled()); // armed
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // read + disarmed (stable read #1)

  // One more arm/read cycle reaches StableTicksToBackoff: the duty
  // interval compounds 4x, so the next arm is 15 dormant ticks away.
  R.Eng.tick();
  R.Eng.tick();
  R.Eng.tick();
  EXPECT_TRUE(R.Prof.enabled());
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // stable read #2: backoff kicks in

  int DormantBeforeArm = 0;
  while (!R.Prof.enabled()) {
    R.Eng.tick();
    ++DormantBeforeArm;
    ASSERT_LE(DormantBeforeArm, 64);
  }
  EXPECT_EQ(DormantBeforeArm, 15); // ArmDutyTicks * 4 = 16-tick period
}

TEST(AdaptiveDuty, UserArmedProfilerIsLeftAlone) {
  AdaptiveConfig C;
  C.ArmDutyTicks = 4;
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  Prof.setEnabled(true); // user armed it before the engine existed
  LockRuntime RT(1, &Reg, &Prof);
  {
    AdaptiveEngine Eng(RT, C);
    for (int I = 0; I < 10; ++I) {
      Eng.tick();
      EXPECT_TRUE(Prof.enabled()); // never duty-cycled off
    }
  }
  EXPECT_TRUE(Prof.enabled()); // and not disabled at engine teardown
}

TEST(AdaptiveDuty, ForceFlipAlternatesEveryTick) {
  AdaptiveConfig C;
  C.ForceFlip = true;
  Rig R(C);
  uint32_t Dom = R.Eng.addDomain();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Lock);
  R.Eng.tick();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
  R.Eng.tick();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Lock);
  R.Eng.tick();
  EXPECT_EQ(R.Eng.domainBackend(Dom), Backend::Stm);
}

//===----------------------------------------------------------------------===//
// Drain gate
//===----------------------------------------------------------------------===//

TEST(AdaptiveGate, MidRunFlipsPreserveEveryIncrement) {
  // Four threads increment one word through whichever backend the gate
  // hands them while the main thread flips the domain back and forth.
  // If lock-mode (plain access under the hierarchy) and STM-mode
  // (atomic_ref word ops) executions ever overlapped, increments would
  // be lost — and TSan would flag the plain/atomic race.
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  LockRuntime RT(1, &Reg, &Prof);
  stm::Stm StmRt;
  AdaptiveEngine Eng(RT, AdaptiveConfig{});
  uint32_t Dom = Eng.addDomain();

  constexpr unsigned NumThreads = 4;
  constexpr uint64_t Iters = 15000;
  uint64_t Word = 0;

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      ThreadLockContext Ctx(RT);
      uint32_t Slot = Eng.registerThread();
      for (uint64_t I = 0; I < Iters; ++I) {
        Backend B = Eng.enterSection(Slot, Dom);
        if (B == Backend::Stm) {
          unsigned Aborts = StmRt.atomically([&](stm::Transaction &Tx) {
            Tx.write(&Word, Tx.read(&Word) + 1);
          });
          Eng.noteStm(Dom, 1, Aborts);
        } else {
          Ctx.toAcquire(LockDescriptor::fine(0, 0x40, true));
          Ctx.acquireAll();
          ++Word;
          Ctx.releaseAll();
        }
        Eng.exitSection(Slot);
      }
      Eng.unregisterThread(Slot);
    });

  for (int Flip = 0; Flip < 48; ++Flip) {
    Eng.forceBackend(Dom, (Flip & 1) ? Backend::Lock : Backend::Stm);
    std::this_thread::yield();
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Word, uint64_t(NumThreads) * Iters);
}

} // namespace
