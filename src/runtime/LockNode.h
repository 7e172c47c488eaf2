//===--- LockNode.h - One node of the lock hierarchy ------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_RUNTIME_LOCKNODE_H
#define LOCKIN_RUNTIME_LOCKNODE_H

#include "runtime/Mode.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace lockin {
namespace rt {

namespace detail {
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
} // namespace detail

/// A blocking multi-mode lock: one node of the tree hierarchy
/// (root ⊤ → region → address). Requests are granted FIFO — a request
/// waits until it is at the head of the queue and compatible with every
/// currently granted mode — which prevents writer starvation while still
/// letting compatible holders (e.g. many S readers) overlap.
///
/// The grant state is one atomic word: a 12-bit grant count per mode
/// (IS, IX, S, SIX, X) plus a has-waiters bit and a drain bit. Uncontended
/// acquire is a single fetch_add (compatibility is one AND against a
/// precomputed conflict mask) and uncontended release a single fetch_sub;
/// neither touches the mutex or the condition variable. A request that
/// observes a conflict — or the waiter bit, which means barging would
/// overtake parked threads — spins briefly (its last rounds yield the
/// CPU, so a holder preempted on the same core can finish) and then
/// parks on the FIFO ticket queue of the original design. Releases
/// notify only when the waiter bit was set, so uncontended sections
/// never pay a wakeup.
///
/// Interior nodes (the root and the regions, which every non-global
/// section takes in IS or IX) keep IS/IX out of the word, in per-thread
/// intention slots: cache-line-padded signed IS/IX counters, so disjoint
/// fine sections never write a shared line. An intention request adds
/// to its own slot and then reads the word; a strong request (S, SIX, X)
/// adds to the word and then drains the slots of the intention modes it
/// conflicts with, reading only the slots marked in use. The two halves
/// form a Dekker pair (all seq_cst), so at least one side sees the
/// other; see DESIGN.md "Intention slots".
/// Leaf nodes (addresses, stripes) carry no slots.
class LockNode {
public:
  enum class Kind : uint8_t { Leaf, Interior };

  LockNode() = default;
  explicit LockNode(Kind K);

  /// Blocks until the node is granted in \p M. Returns true iff the
  /// thread had to park (the contended slow path, or a parked drain);
  /// when \p WaitNs is non-null the parked wait in nanoseconds is added
  /// to it (it is left untouched on the unparked path, which never reads
  /// the clock).
  bool acquire(Mode M, uint64_t *WaitNs = nullptr) {
    if (isIntention(M) && Slots) {
      // Own slot first, then the word: the Dekker half that pairs with
      // a strong grant's word add followed by its slot loads.
      intentionCounter(M).fetch_add(1, std::memory_order_seq_cst);
      uint64_t W = Word.load(std::memory_order_seq_cst);
      if (!(W & (conflictMask(M) | WaiterBit)))
        return false;
      return intentionContended(M, W, WaitNs);
    }
    // Optimistic: add the grant first and validate against the
    // *pre-add* value, so the uncontended acquire is one fetch_add rather
    // than load + CAS. seq_cst: on an interior node this add is the
    // strong half of the intention-slot Dekker pair, and the load of the
    // slot mask after it is that half's first slot read. A node whose
    // slots were never used (every leaf, and a region only ever locked
    // coarsely) has nothing to drain.
    uint64_t W = Word.fetch_add(grantOne(M), std::memory_order_seq_cst);
    assert((W & grantMask(M)) != grantMask(M) && "grant count overflow");
    if (!(W & (conflictMask(M) | WaiterBit)) &&
        !SlotsUsed.load(std::memory_order_seq_cst))
      return false;
    return wordContended(M, W, WaitNs);
  }

  /// Releases one grant of \p M. An intention grant may be released by
  /// a different thread than the one that acquired it: the slots are
  /// summed, never read one by one.
  void release(Mode M) {
    if (isIntention(M) && Slots) {
      intentionCounter(M).fetch_sub(1, std::memory_order_seq_cst);
      if (Word.load(std::memory_order_seq_cst) & DrainBit)
        wake();
      return;
    }
    uint64_t Prev = Word.fetch_sub(grantOne(M), std::memory_order_acq_rel);
    assert((Prev & grantMask(M)) != 0 && "release without matching grant");
    if (Prev & WaiterBit)
      wake();
  }

  /// Non-blocking variant; fails when the node is incompatible or any
  /// thread is parked (queue-jumping would break FIFO).
  bool tryAcquire(Mode M);

  /// Number of current grants of \p M (diagnostics/tests only); on an
  /// interior node IS and IX are the sums over the intention slots.
  unsigned grantedCount(Mode M) const;

  /// True while any request is parked in the FIFO queue (diagnostics/
  /// tests only).
  bool hasWaiters() const {
    return (Word.load(std::memory_order_acquire) & WaiterBit) != 0;
  }

  /// Reader-preference bias (set by the adaptive engine on persistently
  /// read-mostly nodes): while on, an IS/S request that is compatible
  /// with every granted mode may keep its optimistic grant even though
  /// waiters are parked, spending one barge credit per overtake. The
  /// credit refills whenever a queued waiter is granted, so a parked
  /// writer is overtaken by at most \p Credit readers per queue grant —
  /// a bounded-bypass valve, not an unfair lock.
  void setReaderBias(bool On, uint32_t Credit = 256) {
    BargeRefill.store(On ? Credit : 0, std::memory_order_relaxed);
    BargeCredit.store(On ? static_cast<int32_t>(Credit) : 0,
                      std::memory_order_relaxed);
    Bias.store(On ? 1 : 0, std::memory_order_relaxed);
  }
  bool readerBias() const {
    return Bias.load(std::memory_order_relaxed) != 0;
  }

private:
  // Word layout: five 12-bit grant counts (mode i at bits [12i, 12i+12)),
  // then the has-waiters bit and the drain bit. 12 bits bound concurrent
  // holders per mode at 4095, far above any realistic thread count. On
  // an interior node the IS and IX counts stay zero.
  static constexpr unsigned BitsPerMode = 12;
  static constexpr uint64_t CountMask = (1ull << BitsPerMode) - 1;
  static constexpr uint64_t WaiterBit = 1ull << (BitsPerMode * NumModes);
  /// Set (under Mu) while a strong holder is parked waiting for the
  /// intention slots to drain; slot releasers notify when they see it.
  static constexpr uint64_t DrainBit = WaiterBit << 1;
  static constexpr unsigned SpinLimit = 48;

  static constexpr unsigned countShift(Mode M) {
    return static_cast<unsigned>(M) * BitsPerMode;
  }
  static constexpr uint64_t grantOne(Mode M) { return 1ull << countShift(M); }
  static constexpr uint64_t grantMask(Mode M) {
    return CountMask << countShift(M);
  }
  static constexpr bool isIntention(Mode M) { return M <= Mode::IX; }

  /// All-ones across the count fields of every mode incompatible with
  /// \p M: `word & conflictMask(M) == 0` ⇔ M is compatible with every
  /// currently granted mode.
  static constexpr uint64_t conflictMaskFor(Mode M) {
    uint64_t Mask = 0;
    uint8_t Bits = modeConflictSet(M);
    for (unsigned I = 0; I < NumModes; ++I)
      if (Bits & (1u << I))
        Mask |= CountMask << (I * BitsPerMode);
    return Mask;
  }
  static uint64_t conflictMask(Mode M) {
    static constexpr uint64_t Table[NumModes] = {
        conflictMaskFor(Mode::IS), conflictMaskFor(Mode::IX),
        conflictMaskFor(Mode::S), conflictMaskFor(Mode::SIX),
        conflictMaskFor(Mode::X)};
    return Table[static_cast<unsigned>(M)];
  }

  /// One thread's IS/IX grant counts on an interior node. Signed: a
  /// grant released by another thread leaves this slot at -1 and the
  /// acquirer's at +1, and only the sum is meaningful.
  struct alignas(64) IntentionSlot {
    std::atomic<int64_t> Count[2]{};
  };

  /// This thread's slot index, assigned once per thread, round-robin.
  static unsigned threadSlot() {
    thread_local unsigned Index = ~0u;
    if (Index == ~0u) [[unlikely]]
      Index = nextThreadSlot();
    return Index;
  }
  static unsigned nextThreadSlot();
  /// Slots per interior node: bit_ceil(2 × hardware threads), capped
  /// at 64.
  static unsigned slotCount();

  /// The calling thread's counter for \p M. Its slot is marked in
  /// SlotsUsed before the first access, which may be the release of
  /// another thread's grant (leaving the slot negative), and the mark
  /// is never cleared; so after the first use this costs one load of
  /// the word's cache line.
  std::atomic<int64_t> &intentionCounter(Mode M) {
    const unsigned Index = threadSlot();
    const uint32_t Bit = usedBit(Index);
    if (!(SlotsUsed.load(std::memory_order_seq_cst) & Bit)) [[unlikely]]
      SlotsUsed.fetch_or(Bit, std::memory_order_seq_cst);
    return Slots[Index].Count[static_cast<unsigned>(M)];
  }
  /// Bit b of SlotsUsed stands for slots b, b + 32, ... (there are at
  /// most 64).
  static uint32_t usedBit(unsigned Index) { return 1u << (Index % 32); }

  // Out of line: keeping acquire() small enough to inline into the
  // runtime's grab.
  bool wordContended(Mode M, uint64_t W, uint64_t *WaitNs);
  bool keepWordGrant(Mode M, uint64_t W);
  bool spinUntilClear(uint64_t Conflicts, unsigned &Budget) const;
  bool intentionContended(Mode M, uint64_t W, uint64_t *WaitNs);
  void undoIntention(Mode M);
  void slowAcquire(Mode M, uint64_t *WaitNs);
  bool grantAtHead(Mode M);
  bool drain(Mode M, uint64_t *WaitNs);
  int64_t intentionSum(uint8_t Modes) const;
  void wake();

  struct Waiter {
    uint32_t Ticket;
    Mode M;
  };

public:
  /// Slot id in the lock profiler's node table; 0 = unregistered. Set
  /// once at node creation by the owning LockRuntime, read-only after.
  uint32_t ObsId = 0;

private:
  // Field order packs the 4- and 2-byte members into what would be
  // padding, so neither the slot pointer nor the slot mask grows a leaf
  // node.
  //
  /// Intention slots ever used on this node (see usedBit); next to Word,
  /// whose cache line every acquire touches anyway. Always 0 on a leaf.
  std::atomic<uint32_t> SlotsUsed{0};
  std::atomic<uint64_t> Word{0};
  std::mutex Mu; // guards Waiters/NextTicket/Drainers + CV protocol
  std::condition_variable CV;
  std::deque<Waiter> Waiters;
  uint32_t NextTicket = 0;
  // Reader-bias valve (see setReaderBias). Credit may transiently drift
  // below zero under concurrent failed barges; refills store the
  // absolute allowance, so the drift never accumulates.
  std::atomic<uint32_t> BargeRefill{0};
  std::atomic<int32_t> BargeCredit{0};
  std::atomic<uint8_t> Bias{0};
  /// Strong holders parked in drain (guarded by Mu; DrainBit ⇔ > 0).
  uint16_t Drainers = 0;
  /// Interior nodes only: slotCount() intention slots; null on leaves.
  std::unique_ptr<IntentionSlot[]> Slots;
};

} // namespace rt
} // namespace lockin

#endif // LOCKIN_RUNTIME_LOCKNODE_H
