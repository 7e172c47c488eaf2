//===--- LockNode.cpp - Contended paths of the lock node -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// Everything here runs only when the inline fast path in LockNode.h
// fails: queueing, parking, intention-slot undo and drain. Keeping it out
// of line is what lets acquire() inline into the runtime's grab.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockNode.h"

#include "obs/Obs.h"

#include <algorithm>
#include <bit>
#include <thread>

using namespace lockin;
using namespace lockin::rt;

namespace {

/// Bitmap (bit 0 = IS, bit 1 = IX) of the intention modes \p M conflicts
/// with: the slots a strong grant of \p M must see drain to zero.
uint8_t intentionConflicts(Mode M) { return modeConflictSet(M) & 3u; }

/// Rounds at the end of a spin that yield the CPU instead of pausing.
constexpr unsigned YieldSpins = 8;

/// One round of a bounded spin with \p Budget rounds left: a pause, or a
/// yield in the last YieldSpins rounds. When the holder was preempted on
/// this CPU (more runnable threads than cores, or the scheduler stacking
/// threads on one core), the yield lets it finish its section, where
/// pausing would burn the time slice it needs and parking would add a
/// sleep and a wake-up.
void backOff(unsigned Budget) {
  if (Budget <= YieldSpins)
    std::this_thread::yield();
  else
    detail::cpuRelax();
}

} // namespace

LockNode::LockNode(Kind K) {
  if (K == Kind::Interior)
    Slots = std::make_unique<IntentionSlot[]>(slotCount());
}

unsigned LockNode::slotCount() {
  static const unsigned Count = [] {
    unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
    return std::min(64u, std::bit_ceil(2 * Threads));
  }();
  return Count;
}

unsigned LockNode::nextThreadSlot() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed) & (slotCount() - 1);
}

// Sums the marked slots only: an unmarked slot has never been touched.
int64_t LockNode::intentionSum(uint8_t Modes) const {
  int64_t Sum = 0;
  const unsigned N = slotCount();
  for (uint32_t Used = SlotsUsed.load(std::memory_order_seq_cst); Used;
       Used &= Used - 1)
    for (unsigned I = std::countr_zero(Used); I < N; I += 32)
      for (unsigned K = 0; K < 2; ++K)
        if (Modes & (1u << K))
          Sum += Slots[I].Count[K].load(std::memory_order_seq_cst);
  return Sum;
}

void LockNode::wake() {
  // Taking the mutex before notifying closes the race with a waiter that
  // evaluated its predicate but has not yet blocked: it still holds the
  // mutex at that point.
  std::lock_guard<std::mutex> Lock(Mu);
  CV.notify_all();
}

void LockNode::undoIntention(Mode M) {
  // Slot first, then the word: the releaser's half of the drain
  // handshake (a drainer sets DrainBit, then re-reads the slots).
  intentionCounter(M).fetch_sub(1, std::memory_order_seq_cst);
  if (Word.load(std::memory_order_seq_cst) & DrainBit)
    wake();
}

// Spins on plain loads of the word, spending \p Budget, until it shows
// none of \p Conflicts (true) or the waiter bit or the budget runs out
// (false: park).
bool LockNode::spinUntilClear(uint64_t Conflicts, unsigned &Budget) const {
  for (; Budget > 0; --Budget) {
    uint64_t W = Word.load(std::memory_order_relaxed);
    if (W & WaiterBit)
      return false;
    if (!(W & Conflicts))
      return true;
    backOff(Budget);
  }
  return false;
}

// The inline optimistic word add for \p M found \p W (the pre-add
// value) conflicting or queued, or the node has intention slots in use
// and must drain them.
bool LockNode::wordContended(Mode M, uint64_t W, uint64_t *WaitNs) {
  bool Parked = false;
  if (!keepWordGrant(M, W)) {
    slowAcquire(M, WaitNs);
    Parked = true;
  }
  if (Slots)
    Parked |= drain(M, WaitNs);
  return Parked;
}

// Validates the optimistic grant added over \p W; on a conflict, undoes
// it, spins and retries. Returns false when the caller must park. The RMW
// order totally orders racing optimists — the first one sees a clean word
// and keeps its grant, later incompatible ones see the winner and undo,
// so there is no mutual kill. A transient optimistic grant can only make
// a concurrent compatibility check conservatively fail, never wrongly
// succeed.
bool LockNode::keepWordGrant(Mode M, uint64_t W) {
  const uint64_t Conflicts = conflictMask(M);
  const uint64_t One = grantOne(M);
  unsigned Budget = SpinLimit;
  for (;;) {
    if (!(W & (Conflicts | WaiterBit)))
      return true;
    // Reader barge: compatible with everything granted, blocked only by
    // the waiter bit. With bias on and credit left, keep the grant
    // instead of queueing behind the parked (writer) waiters.
    if (!(W & Conflicts) && (M == Mode::IS || M == Mode::S) &&
        Bias.load(std::memory_order_relaxed) &&
        BargeCredit.fetch_sub(1, std::memory_order_relaxed) > 0)
      return true;
    // Our phantom grant may have made the queue head's own grant attempt
    // fail; re-notify so it retries.
    if (Word.fetch_sub(One, std::memory_order_acq_rel) & WaiterBit)
      wake();
    if (W & WaiterBit)
      return false; // parked waiters have priority: join the queue
    // Conflict: spin until it clears, then retry the optimistic add;
    // park once the budget runs out.
    if (!spinUntilClear(Conflicts, Budget))
      return false;
    W = Word.fetch_add(One, std::memory_order_seq_cst);
  }
}

// The inline intention add saw a conflicting strong grant or the waiter
// bit in \p W, read after the add.
bool LockNode::intentionContended(Mode M, uint64_t W, uint64_t *WaitNs) {
  const uint64_t Conflicts = conflictMask(M);
  unsigned Budget = SpinLimit;
  for (;;) {
    if (!(W & (Conflicts | WaiterBit)))
      return false;
    // Reader barge, as on the word path: only the waiter bit blocks this
    // IS and the node is reader-biased, so keep the slot grant.
    if (!(W & Conflicts) && M == Mode::IS &&
        Bias.load(std::memory_order_relaxed) &&
        BargeCredit.fetch_sub(1, std::memory_order_relaxed) > 0)
      return false;
    undoIntention(M);
    if (W & WaiterBit)
      break; // parked waiters have priority: join the queue
    // A strong grant is published: spin until it clears, then retry the
    // slot add; park once the budget runs out.
    if (!spinUntilClear(Conflicts, Budget))
      break;
    intentionCounter(M).fetch_add(1, std::memory_order_seq_cst);
    W = Word.load(std::memory_order_seq_cst);
  }
  slowAcquire(M, WaitNs);
  return true;
}

// Runs under Mu, for the head of the queue; the waiter bit is ignored
// (it is this request's own).
bool LockNode::grantAtHead(Mode M) {
  const uint64_t Conflicts = conflictMask(M);
  if (isIntention(M) && Slots) {
    std::atomic<int64_t> &C = intentionCounter(M);
    C.fetch_add(1, std::memory_order_seq_cst);
    uint64_t W = Word.load(std::memory_order_seq_cst);
    if (!(W & Conflicts))
      return true;
    C.fetch_sub(1, std::memory_order_seq_cst);
    // DrainBit only changes under Mu, which is held here, so W is
    // current; the drainer is blocked in the wait and rechecks on wakeup.
    if (W & DrainBit)
      CV.notify_all();
    return false;
  }
  // The same CAS the fast path would use, so the check and the grant are
  // one atomic step even against fast-path acquirers on other threads.
  uint64_t W = Word.load(std::memory_order_relaxed);
  while (!(W & Conflicts)) {
    if (Word.compare_exchange_weak(W, W + grantOne(M),
                                   std::memory_order_seq_cst,
                                   std::memory_order_relaxed))
      return true;
    detail::cpuRelax();
  }
  return false;
}

void LockNode::slowAcquire(Mode M, uint64_t *WaitNs) {
  const uint64_t T0 = WaitNs ? obs::nowNs() : 0;
  std::unique_lock<std::mutex> Lock(Mu);
  uint32_t Ticket = NextTicket++;
  Waiters.push_back({Ticket, M});
  // RMW, not store: fast-path adds concurrently mutate the counts.
  Word.fetch_or(WaiterBit, std::memory_order_relaxed);
  CV.wait(Lock, [&] {
    return Waiters.front().Ticket == Ticket && grantAtHead(M);
  });
  Waiters.pop_front();
  // A queued waiter got through: replenish the reader barge allowance
  // (the anti-starvation half of the bias valve).
  if (uint32_t R = BargeRefill.load(std::memory_order_relaxed))
    BargeCredit.store(static_cast<int32_t>(R), std::memory_order_relaxed);
  if (Waiters.empty())
    Word.fetch_and(~WaiterBit, std::memory_order_relaxed);
  // The next waiter may also be compatible (e.g. another reader).
  CV.notify_all();
  if (WaitNs)
    *WaitNs += obs::nowNs() - T0;
}

// A strong grant of M is published in the word, so new intention
// requests are turned away; wait out the intention holders it conflicts
// with. Top-down acquisition means none of them waits on this thread.
bool LockNode::drain(Mode M, uint64_t *WaitNs) {
  const uint8_t Modes = intentionConflicts(M);
  for (unsigned Budget = SpinLimit; intentionSum(Modes) != 0; --Budget) {
    if (Budget == 0) {
      const uint64_t T0 = WaitNs ? obs::nowNs() : 0;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        // Set the bit, then re-read the slots (in the wait predicate):
        // the other half of the releaser's slot-then-word handshake.
        if (Drainers++ == 0)
          Word.fetch_or(DrainBit, std::memory_order_seq_cst);
        CV.wait(Lock, [&] { return intentionSum(Modes) == 0; });
        if (--Drainers == 0)
          Word.fetch_and(~DrainBit, std::memory_order_seq_cst);
      }
      if (WaitNs)
        *WaitNs += obs::nowNs() - T0;
      return true;
    }
    backOff(Budget);
  }
  return false;
}

bool LockNode::tryAcquire(Mode M) {
  const uint64_t Conflicts = conflictMask(M);
  if (isIntention(M) && Slots) {
    intentionCounter(M).fetch_add(1, std::memory_order_seq_cst);
    if (!(Word.load(std::memory_order_seq_cst) & (Conflicts | WaiterBit)))
      return true;
    undoIntention(M);
    return false;
  }
  uint64_t W = Word.load(std::memory_order_relaxed);
  while (!(W & (WaiterBit | Conflicts))) {
    if (!Word.compare_exchange_weak(W, W + grantOne(M),
                                    std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
      continue;
    if (!Slots || intentionSum(intentionConflicts(M)) == 0)
      return true;
    // Intention holders are still in: give the strong grant back.
    if (Word.fetch_sub(grantOne(M), std::memory_order_acq_rel) & WaiterBit)
      wake();
    return false;
  }
  return false;
}

unsigned LockNode::grantedCount(Mode M) const {
  if (isIntention(M) && Slots)
    return static_cast<unsigned>(
        intentionSum(static_cast<uint8_t>(1u << static_cast<unsigned>(M))));
  uint64_t W = Word.load(std::memory_order_acquire);
  return static_cast<unsigned>((W >> countShift(M)) & CountMask);
}
