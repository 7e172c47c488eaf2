//===--- Interp.cpp - Concurrent interpreter with checking --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "obs/Obs.h"
#include "obs/Trace.h"
#include "runtime/Adaptive.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <array>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace lockin;
using namespace lockin::ir;

namespace {

//===----------------------------------------------------------------------===//
// Values, locations, heap
//===----------------------------------------------------------------------===//

/// A runtime location: a cell within a heap/frame/global object.
struct Loc {
  uint32_t Object = 0;
  uint32_t Offset = 0;

  uint64_t packed() const {
    return (static_cast<uint64_t>(Object) << 32) | Offset;
  }
  bool operator==(const Loc &Other) const = default;
};

struct Value {
  enum class Kind : uint8_t { Null, Int, Location };
  Kind K = Kind::Null;
  int64_t Int = 0;
  Loc L;

  static Value null() { return {}; }
  static Value ofInt(int64_t I) {
    Value V;
    V.K = Kind::Int;
    V.Int = I;
    return V;
  }
  static Value ofLoc(Loc L) {
    Value V;
    V.K = Kind::Location;
    V.L = L;
    return V;
  }
};

/// One allocation: a heap object, a call frame, or the globals block.
struct HeapObject {
  std::vector<Value> Cells;
  /// Region per cell for frames/globals; heap objects use one region.
  std::vector<RegionId> CellRegions;
  RegionId UniformRegion = InvalidRegion;
  /// For frames: which cells correspond to shared (checkable) variables.
  std::vector<bool> CheckableCell;
  bool IsFrame = false;

  RegionId regionOf(uint32_t Offset) const {
    if (!CellRegions.empty() && Offset < CellRegions.size())
      return CellRegions[Offset];
    return UniformRegion;
  }
  bool checkable(uint32_t Offset) const {
    if (CheckableCell.empty())
      return true; // heap cells are always subject to checking
    return Offset < CheckableCell.size() && CheckableCell[Offset];
  }
};

/// Shared state of the STM backend (AtomicMode::Stm): a TL2-style global
/// version clock and a hashed table of versioned entries, one per
/// location bucket. Entry layout: bit 0 = latched, bits 63..1 = version.
/// Every cell access inside a transaction holds the location's latch for
/// the duration of the (single-cell) access, so concurrent transactions
/// synchronize through the atomics and the run is TSan-clean; conflicts
/// are still detected optimistically through the versions.
struct TxTable {
  static constexpr unsigned Bits = 16;
  struct alignas(64) Entry {
    std::atomic<uint64_t> V{0};
  };
  std::vector<Entry> Entries{size_t(1) << Bits};
  std::atomic<uint64_t> Clock{0};

  std::atomic<uint64_t> &entryFor(uint64_t Packed) {
    return Entries[(Packed * 0x9e3779b97f4a7c15ULL) >> (64 - Bits)].V;
  }
};

/// Append-only object table with lock-free reads: a fixed top-level
/// array of atomically published fixed-size chunks. References are
/// stable and operator[] takes no lock, so interpreter threads can
/// access disjoint objects while another thread allocates. (A deque
/// cannot do this: its operator[] walks the internal map that push_back
/// reallocates — a C++-level data race under exactly that pattern, even
/// when the interpreted program is properly locked.)
class ObjectTable {
public:
  static constexpr uint32_t ChunkBits = 13;
  static constexpr uint32_t ChunkSize = 1u << ChunkBits;
  static constexpr uint32_t MaxChunks = 1u << 13;

  ~ObjectTable() {
    for (std::atomic<HeapObject *> &C : Chunks)
      delete[] C.load(std::memory_order_relaxed);
  }

  uint32_t size() const { return Count.load(std::memory_order_acquire); }

  HeapObject &operator[](uint32_t Id) {
    return Chunks[Id >> ChunkBits].load(
        std::memory_order_acquire)[Id & (ChunkSize - 1)];
  }

  /// Appends \p Object; UINT32_MAX when the table is full.
  uint32_t push(HeapObject &&Object) {
    std::lock_guard<std::mutex> Lock(Mu);
    uint32_t Id = Count.load(std::memory_order_relaxed);
    uint32_t C = Id >> ChunkBits;
    if (C >= MaxChunks)
      return UINT32_MAX;
    HeapObject *Chunk = Chunks[C].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = new HeapObject[ChunkSize];
      Chunks[C].store(Chunk, std::memory_order_release);
    }
    Chunk[Id & (ChunkSize - 1)] = std::move(Object);
    Count.store(Id + 1, std::memory_order_release);
    return Id;
  }

private:
  std::mutex Mu;
  std::atomic<uint32_t> Count{0};
  std::array<std::atomic<HeapObject *>, MaxChunks> Chunks{};
};

struct Shared {
  Shared(const IrModule &Module, const PointsToAnalysis &PT,
         const InferenceResult *Inference, const InterpOptions &Options)
      : Module(Module), PT(PT), Inference(Inference), Options(Options) {}

  const IrModule &Module;
  const PointsToAnalysis &PT;
  const InferenceResult *Inference;
  const InterpOptions &Options;

  std::unique_ptr<rt::LockRuntime> LockRT;
  std::unique_ptr<TxTable> Tx; ///< non-null iff Mode == Stm or Adaptive
  std::atomic<uint64_t> StmCommits{0};
  std::atomic<uint64_t> StmAborts{0};

  /// AtomicMode::Adaptive: the policy engine and the static section →
  /// migration-domain map (built over the inference's lock sets; see
  /// buildMigrationDomains). Declared after LockRT so the engine — whose
  /// epoch thread walks the runtime's nodes — dies first.
  std::unique_ptr<rt::adaptive::AdaptiveEngine> Engine;
  std::vector<uint32_t> SectionDomain;

  ObjectTable Objects;

  /// Striped guards for physical accesses to shared cells. The VM reads
  /// lock-path cells before acquiring their locks (the
  /// evaluate-then-acquire window, closed semantically by revalidation)
  /// and deliberately runs unprotected programs (AtomicMode::None); both
  /// race at the interpreted level, which is the §4.2 checker's to
  /// report. The stripes keep the C++ level race-free, so a
  /// ThreadSanitizer report on the interpreter is always a real VM bug.
  std::array<std::mutex, 256> CellStripes;
  std::mutex &stripeFor(uint64_t Packed) {
    return CellStripes[(Packed * 0x9e3779b97f4a7c15ULL) >> 56];
  }

  // First error wins; all threads stop.
  std::atomic<bool> Stop{false};
  std::mutex ErrorMu;
  std::string Error;

  std::atomic<uint64_t> TotalSteps{0};
  std::atomic<uint64_t> ProtectionChecks{0};

  // Spawned threads; joined when main finishes.
  std::mutex ThreadsMu;
  std::vector<std::thread> Threads;

  void fail(const std::string &Message) {
    {
      std::lock_guard<std::mutex> Lock(ErrorMu);
      if (Error.empty())
        Error = Message;
    }
    Stop.store(true, std::memory_order_release);
  }

  uint32_t allocate(HeapObject Object) {
    uint32_t Id = Objects.push(std::move(Object));
    if (Id == UINT32_MAX)
      fail("heap exhausted: object table is full");
    return Id;
  }

  HeapObject &object(uint32_t Id) { return Objects[Id]; }
};

//===----------------------------------------------------------------------===//
// Thread execution
//===----------------------------------------------------------------------===//

/// Control-flow result of executing a statement.
enum class Flow { Normal, Returned, Stopped };

class ThreadExec {
public:
  ThreadExec(Shared &S, uint64_t YieldSeed)
      : S(S), LockCtx(*S.LockRT), YieldRng(YieldSeed) {
    if (S.Engine)
      GateSlot = S.Engine->registerThread();
  }
  ~ThreadExec() {
    if (S.Engine)
      S.Engine->unregisterThread(GateSlot);
  }

  /// Runs \p F with \p Args; the return value (or null) in ReturnValue.
  Flow callFunction(const IrFunction *F, const std::vector<Value> &Args);

  Value returnValue() const { return ReturnValue; }

private:
  struct Frame {
    const IrFunction *F;
    uint32_t ObjectId;
  };

  bool step() {
    if (S.Stop.load(std::memory_order_acquire))
      return false;
    if (++Steps > S.Options.MaxSteps) {
      S.fail("step limit exceeded (runaway loop?)");
      return false;
    }
    if ((Steps & 0xFFF) == 0 && S.Options.CancelFlag &&
        S.Options.CancelFlag->load(std::memory_order_acquire)) {
      S.fail("canceled");
      return false;
    }
    if constexpr (obs::kEnabled) {
      // Periodic counter samples give the trace a progress track without
      // touching the tracer on the other 65535 steps.
      if ((Steps & 0xFFFF) == 0 && obs::tracer().enabled())
        obs::tracer().span(obs::EventKind::StepsCount, obs::nowNs(), 0,
                           Steps);
    }
    return true;
  }

  void maybeYield() {
    if (S.Options.InjectYields && YieldRng.chance(1, 8))
      std::this_thread::yield();
  }

  // Variable cells. Globals live in object 0.
  Loc varCell(const Frame &Fr, const Variable *V) const {
    if (V->isGlobal())
      return Loc{0, V->id()};
    return Loc{Fr.ObjectId, V->id()};
  }

  /// The §4.2 access check. \p Direct is true for direct variable
  /// accesses (x = ..., ... = x), which are exempt when the variable is
  /// provably thread-local (address never taken).
  bool checkAccess(Loc L, bool IsWrite) {
    if (!S.Options.Checked || !LockCtx.insideAtomic())
      return true;
    // Inside the dynamic extent of an elided outermost section the static
    // never-parallel proof replaces the lock-coverage proof: no lock is
    // held by design, and no conflicting access can be co-scheduled.
    if (InElidedSection)
      return true;
    HeapObject &Obj = S.object(L.Object);
    if (!Obj.checkable(L.Offset))
      return true;
    // Objects this thread allocated inside the current outermost section
    // are unreachable by other threads at section entry.
    for (uint32_t Id : SectionAllocs)
      if (Id == L.Object)
        return true;
    S.ProtectionChecks.fetch_add(1, std::memory_order_relaxed);
    if (LockCtx.coversAccess(L.packed(), Obj.regionOf(L.Offset), IsWrite))
      return true;
    S.fail("protection violation: unprotected " +
           std::string(IsWrite ? "write" : "read") + " of object " +
           std::to_string(L.Object) + " offset " +
           std::to_string(L.Offset) + " in region " +
           std::to_string(Obj.regionOf(L.Offset)));
    return false;
  }

  std::optional<Value> readCell(Loc L, bool Check) {
    HeapObject &Obj = S.object(L.Object);
    if (L.Offset >= Obj.Cells.size()) {
      S.fail("out-of-bounds read");
      return std::nullopt;
    }
    if (InTx && !txLocal(L.Object))
      return txRead(L, Obj);
    if (Check && !checkAccess(L, /*IsWrite=*/false))
      return std::nullopt;
    maybeYield();
    if (!Obj.checkable(L.Offset))
      return Obj.Cells[L.Offset]; // thread-private frame cell
    std::lock_guard<std::mutex> Guard(S.stripeFor(L.packed()));
    return Obj.Cells[L.Offset];
  }

  bool writeCell(Loc L, Value V, bool Check) {
    HeapObject &Obj = S.object(L.Object);
    if (L.Offset >= Obj.Cells.size()) {
      S.fail("out-of-bounds write");
      return false;
    }
    if (InTx && !txLocal(L.Object)) {
      maybeYield();
      TxWrites[L.packed()] = V;
      return true;
    }
    if (Check && !checkAccess(L, /*IsWrite=*/true))
      return false;
    maybeYield();
    if (!Obj.checkable(L.Offset)) {
      Obj.Cells[L.Offset] = V; // thread-private frame cell
      return true;
    }
    std::lock_guard<std::mutex> Guard(S.stripeFor(L.packed()));
    Obj.Cells[L.Offset] = V;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // STM backend (AtomicMode::Stm)
  //===--------------------------------------------------------------------===//

  bool txLocal(uint32_t Object) const {
    for (uint32_t Id : TxAllocs)
      if (Id == Object)
        return true;
    return false;
  }

  /// Spins until \p E is latched by this thread; \p V receives the
  /// pre-latch (even) word. Fails only on a global stop.
  bool latchEntry(std::atomic<uint64_t> &E, uint64_t &V) {
    for (uint64_t Spin = 0;; ++Spin) {
      V = E.load(std::memory_order_acquire);
      if ((V & 1) == 0 &&
          E.compare_exchange_weak(V, V | 1, std::memory_order_acq_rel))
        return true;
      if ((Spin & 0x3FF) == 0 &&
          S.Stop.load(std::memory_order_acquire))
        return false;
      std::this_thread::yield();
    }
  }

  /// Transactional load: read-own-writes, then a latched validated read.
  /// Aborts (TxFailed) when the location changed after this
  /// transaction's read version — the TL2 opacity rule, so every
  /// snapshot the body observes is consistent.
  std::optional<Value> txRead(Loc L, HeapObject &Obj) {
    if (auto It = TxWrites.find(L.packed()); It != TxWrites.end())
      return It->second;
    std::atomic<uint64_t> &E = S.Tx->entryFor(L.packed());
    uint64_t V;
    if (!latchEntry(E, V))
      return std::nullopt; // stopping; propagate as Stopped
    if ((V >> 1) > TxRV) {
      E.store(V, std::memory_order_release);
      TxFailed = true;
      return std::nullopt;
    }
    maybeYield();
    Value Val;
    {
      std::lock_guard<std::mutex> Guard(S.stripeFor(L.packed()));
      Val = Obj.Cells[L.Offset];
    }
    E.store(V, std::memory_order_release);
    TxReadLog.emplace_back(&E, V);
    return Val;
  }

  void txBegin() {
    InTx = true;
    TxFailed = false;
    TxWrites.clear();
    TxReadLog.clear();
    TxAllocs.clear();
    TxRV = S.Tx->Clock.load(std::memory_order_acquire);
  }

  void txReset() {
    InTx = false;
    TxFailed = false;
    TxWrites.clear();
    TxReadLog.clear();
    TxAllocs.clear();
  }

  /// Commit-time locking and validation: latch the write set's entries
  /// in a canonical order, re-validate every logged read, then apply the
  /// buffered writes and publish a fresh version.
  bool txCommit() {
    if (TxWrites.empty())
      return true; // per-read validation suffices for read-only bodies
    std::vector<std::atomic<uint64_t> *> ToLatch;
    ToLatch.reserve(TxWrites.size());
    for (const auto &[Packed, Val] : TxWrites) {
      std::atomic<uint64_t> *E = &S.Tx->entryFor(Packed);
      if (std::find(ToLatch.begin(), ToLatch.end(), E) == ToLatch.end())
        ToLatch.push_back(E);
    }
    std::sort(ToLatch.begin(), ToLatch.end());
    std::vector<uint64_t> PreVersions(ToLatch.size());
    auto UnlatchAll = [&](size_t Count) {
      for (size_t I = 0; I < Count; ++I)
        ToLatch[I]->store(PreVersions[I], std::memory_order_release);
    };
    for (size_t I = 0; I < ToLatch.size(); ++I) {
      // Bounded try-latch: a busy entry means a concurrent commit or
      // reader; give it a moment, then abort rather than risk deadlock.
      bool Latched = false;
      for (unsigned Spin = 0; Spin < 4096; ++Spin) {
        uint64_t V = ToLatch[I]->load(std::memory_order_acquire);
        if ((V & 1) == 0 && ToLatch[I]->compare_exchange_weak(
                                V, V | 1, std::memory_order_acq_rel)) {
          PreVersions[I] = V;
          Latched = true;
          break;
        }
        std::this_thread::yield();
      }
      if (!Latched) {
        UnlatchAll(I);
        return false;
      }
    }
    // Validate the read log. Entries we latched ourselves compare by
    // version; foreign entries must be unlatched and unchanged.
    for (const auto &[E, Seen] : TxReadLog) {
      auto It = std::find(ToLatch.begin(), ToLatch.end(), E);
      bool Ok = false;
      if (It != ToLatch.end()) {
        Ok = PreVersions[static_cast<size_t>(It - ToLatch.begin())] == Seen;
      } else {
        for (unsigned Spin = 0; Spin < 4096 && !Ok; ++Spin) {
          uint64_t Cur = E->load(std::memory_order_acquire);
          if ((Cur & 1) == 0) {
            Ok = Cur == Seen;
            break;
          }
          std::this_thread::yield();
        }
      }
      if (!Ok) {
        UnlatchAll(ToLatch.size());
        return false;
      }
    }
    uint64_t WV = S.Tx->Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (const auto &[Packed, Val] : TxWrites) {
      Loc L{static_cast<uint32_t>(Packed >> 32),
            static_cast<uint32_t>(Packed)};
      std::lock_guard<std::mutex> Guard(S.stripeFor(Packed));
      S.object(L.Object).Cells[L.Offset] = Val;
    }
    for (std::atomic<uint64_t> *E : ToLatch)
      E->store(WV << 1, std::memory_order_release);
    return true;
  }

  /// Runs \p A as a closed transaction: speculative execution of the
  /// body with buffered writes, retried until a commit succeeds.
  /// StmCallCommitted/StmCallAborts summarize the outermost call for the
  /// adaptive engine's abort-storm signal.
  Flow execAtomicStm(const Frame &Fr, const AtomicIrStmt *A) {
    if (InTx) // flattened nesting: the outer transaction covers it
      return execStmt(Fr, A->body());
    StmCallCommitted = false;
    StmCallAborts = 0;
    for (unsigned Attempt = 0; Attempt < 100'000; ++Attempt) {
      txBegin();
      Flow F = execStmt(Fr, A->body());
      if (TxFailed || (F != Flow::Stopped && !txCommit())) {
        txReset();
        ++StmCallAborts;
        S.StmAborts.fetch_add(1, std::memory_order_relaxed);
        if (S.Stop.load(std::memory_order_acquire))
          return Flow::Stopped;
        for (unsigned Spin = 0;
             Spin < (1u << (Attempt > 10 ? 10 : Attempt)); ++Spin)
          std::this_thread::yield();
        continue;
      }
      txReset();
      if (F != Flow::Stopped) {
        S.StmCommits.fetch_add(1, std::memory_order_relaxed);
        StmCallCommitted = true;
      }
      return F;
    }
    S.fail("stm livelock: section never committed");
    return Flow::Stopped;
  }

  /// AtomicMode::Adaptive outermost dispatch: pass the drain gate, run
  /// the section on whichever backend the domain currently uses, and
  /// report STM outcomes back to the policy engine. Nested sections
  /// never touch the gate: a lock-backend outer section covers them via
  /// the nesting counter, a transactional one via flattening — so a
  /// thread is inside at most one gated domain at a time and the drain
  /// in AdaptiveEngine::flipDomain cannot deadlock against it.
  Flow execAtomicAdaptive(const Frame &Fr, const AtomicIrStmt *A) {
    if (InTx)
      return execAtomicStm(Fr, A); // flattens into the outer transaction
    if (LockCtx.insideAtomic())
      return execAtomicLocked(Fr, A); // nesting counter, no locks taken
    uint32_t Dom = S.SectionDomain[A->sectionId()];
    S.Engine->maybeTick(GateSlot);
    rt::adaptive::Backend B = S.Engine->enterSection(GateSlot, Dom);
    Flow F;
    if (B == rt::adaptive::Backend::Stm) {
      F = execAtomicStm(Fr, A);
      S.Engine->noteStm(Dom, StmCallCommitted ? 1 : 0, StmCallAborts);
    } else {
      F = execAtomicLocked(Fr, A);
    }
    S.Engine->exitSection(GateSlot);
    return F;
  }

  std::optional<Value> readVar(const Frame &Fr, const Variable *V) {
    bool Check = V->isGlobal() || V->isAddressTaken();
    return readCell(varCell(Fr, V), Check);
  }

  bool writeVar(const Frame &Fr, const Variable *V, Value Val) {
    bool Check = V->isGlobal() || V->isAddressTaken();
    return writeCell(varCell(Fr, V), Val, Check);
  }

  // Lock-expression evaluation at section entry (unchecked reads).
  std::optional<int64_t> evalIdx(const Frame &Fr, const IdxExpr &E);
  std::optional<Loc> evalLockPath(const Frame &Fr, const LockExpr &Path);
  bool buildDescriptors(const Frame &Fr, const LockSet &Locks,
                        std::vector<rt::LockDescriptor> &Out,
                        std::vector<std::pair<const LockExpr *, Loc>>
                            &FinePaths);
  bool enterSection(const Frame &Fr, const AtomicIrStmt *A);
  Flow execAtomicLocked(const Frame &Fr, const AtomicIrStmt *A);

  Flow execStmt(const Frame &Fr, const IrStmt *St);
  Flow execInst(const Frame &Fr, const InstStmt *St);

  Shared &S;
  rt::ThreadLockContext LockCtx;
  Rng YieldRng;
  uint64_t Steps = 0;
  uint64_t StepsAtLastCall = 0;
  Value ReturnValue = Value::null();
  /// Objects allocated by this thread inside the current outermost
  /// section; cleared at releaseAll.
  std::vector<uint32_t> SectionAllocs;
  /// True while executing the dynamic extent of an elided outermost
  /// section (AtomicMode::Inferred with ElideNeverParallel): the §4.2
  /// check is replaced by the static never-parallel proof.
  bool InElidedSection = false;

  /// Adaptive-gate inflight slot (valid iff S.Engine).
  uint32_t GateSlot = 0;
  /// Outcome of the last outermost execAtomicStm call.
  bool StmCallCommitted = false;
  uint64_t StmCallAborts = 0;

  // STM transaction state (AtomicMode::Stm or the STM backend of
  // AtomicMode::Adaptive).
  bool InTx = false;
  bool TxFailed = false;
  uint64_t TxRV = 0;
  std::unordered_map<uint64_t, Value> TxWrites;
  std::vector<std::pair<std::atomic<uint64_t> *, uint64_t>> TxReadLog;
  /// Objects (including frames) created by the running transaction:
  /// invisible to other threads, accessed directly.
  std::vector<uint32_t> TxAllocs;
};

std::optional<int64_t> ThreadExec::evalIdx(const Frame &Fr,
                                           const IdxExpr &E) {
  switch (E.kind()) {
  case IdxExpr::Kind::Const:
    return E.constValue();
  case IdxExpr::Kind::VarVal: {
    std::optional<Value> V = readCell(varCell(Fr, E.var()), false);
    if (!V || V->K != Value::Kind::Int)
      return std::nullopt;
    return V->Int;
  }
  case IdxExpr::Kind::Bin: {
    std::optional<int64_t> L = evalIdx(Fr, *E.lhs());
    std::optional<int64_t> R = evalIdx(Fr, *E.rhs());
    if (!L || !R)
      return std::nullopt;
    switch (E.op()) {
    case IntBinOp::Add:
      return *L + *R;
    case IntBinOp::Sub:
      return *L - *R;
    case IntBinOp::Mul:
      return *L * *R;
    case IntBinOp::Div:
      return *R == 0 ? std::nullopt : std::optional<int64_t>(*L / *R);
    case IntBinOp::Rem:
      return *R == 0 ? std::nullopt : std::optional<int64_t>(*L % *R);
    }
    return std::nullopt;
  }
  }
  return std::nullopt;
}

std::optional<Loc> ThreadExec::evalLockPath(const Frame &Fr,
                                            const LockExpr &Path) {
  // A lock path denotes an address: &base, then ops.
  Loc Cur = varCell(Fr, Path.base());
  for (const LockOp &Op : Path.ops()) {
    switch (Op.K) {
    case LockOp::Kind::Deref: {
      std::optional<Value> V = readCell(Cur, false);
      if (!V || V->K != Value::Kind::Location)
        return std::nullopt; // null or non-pointer: lock unreachable
      Cur = V->L;
      break;
    }
    case LockOp::Kind::Field:
      Cur.Offset += static_cast<uint32_t>(Op.FieldIdx);
      break;
    case LockOp::Kind::Index: {
      std::optional<int64_t> I = evalIdx(Fr, *Op.Idx);
      if (!I || *I < 0)
        return std::nullopt;
      Cur.Offset += static_cast<uint32_t>(*I);
      break;
    }
    }
    if (Cur.Offset >= S.object(Cur.Object).Cells.size())
      return std::nullopt; // out of bounds: no such location
  }
  return Cur;
}

bool ThreadExec::buildDescriptors(
    const Frame &Fr, const LockSet &Locks,
    std::vector<rt::LockDescriptor> &Out,
    std::vector<std::pair<const LockExpr *, Loc>> &FinePaths) {
  Out.clear();
  FinePaths.clear();
  for (const LockName &L : Locks) {
    switch (L.kind()) {
    case LockName::Kind::Top:
      Out.push_back(rt::LockDescriptor::global());
      break;
    case LockName::Kind::Coarse:
      Out.push_back(rt::LockDescriptor::coarse(L.region(),
                                               L.effect() == Effect::RW));
      break;
    case LockName::Kind::Fine: {
      std::optional<Loc> Addr = evalLockPath(Fr, L.path());
      if (!Addr)
        break; // unreachable location: nothing to protect
      RegionId Region = S.object(Addr->Object).regionOf(Addr->Offset);
      Out.push_back(rt::LockDescriptor::fine(
          Region == InvalidRegion ? 0 : Region, Addr->packed(),
          L.effect() == Effect::RW));
      FinePaths.emplace_back(&L.path(), *Addr);
      break;
    }
    }
  }
  return true;
}

bool ThreadExec::enterSection(const Frame &Fr, const AtomicIrStmt *A) {
  if constexpr (obs::kEnabled) {
    // Tag sections 1-based so tag 0 stays "untagged" in the profiler.
    if (!LockCtx.insideAtomic())
      LockCtx.setSectionTag(A->sectionId() + 1);
  }
  switch (S.Options.Mode) {
  case AtomicMode::None:
    LockCtx.acquireAll(); // tracks nesting; acquires nothing
    return true;
  case AtomicMode::GlobalLock:
    LockCtx.toAcquire(rt::LockDescriptor::global());
    LockCtx.acquireAll();
    return true;
  case AtomicMode::Stm:
    assert(false && "STM sections are handled by execAtomicStm");
    return true;
  case AtomicMode::Adaptive:
    // Lock backend of an adaptive domain: inferred locks when available,
    // the global-lock baseline otherwise.
    if (!S.Inference) {
      LockCtx.toAcquire(rt::LockDescriptor::global());
      LockCtx.acquireAll();
      return true;
    }
    break;
  case AtomicMode::Inferred:
    break;
  }

  assert(S.Inference && "Inferred mode requires an inference result");
  const LockSet &Locks = S.Inference->sectionLocks(A->sectionId());

  // Nested sections skip the protocol entirely.
  if (LockCtx.insideAtomic()) {
    LockCtx.acquireAll();
    return true;
  }

  // Elided outermost section: the MHP proof says nothing conflicting can
  // run concurrently, so acquire nothing (and exempt the whole extent
  // from the §4.2 check — see checkAccess).
  if (S.Inference->sectionElided(A->sectionId())) {
    InElidedSection = true;
    LockCtx.acquireAll(); // tracks nesting; acquires nothing
    return true;
  }

  std::vector<rt::LockDescriptor> Descs;
  std::vector<std::pair<const LockExpr *, Loc>> FinePaths;
  for (unsigned Attempt = 0; Attempt < 128; ++Attempt) {
    buildDescriptors(Fr, Locks, Descs, FinePaths);
    for (const rt::LockDescriptor &D : Descs)
      LockCtx.toAcquire(D);
    LockCtx.acquireAll();
    if (!S.Options.Revalidate)
      return true;
    // Re-evaluate fine paths under the locks; a change means another
    // thread rewrote a cell between evaluation and acquisition.
    bool Valid = true;
    for (const auto &[Path, Addr] : FinePaths) {
      std::optional<Loc> Now = evalLockPath(Fr, *Path);
      if (!Now || !(*Now == Addr)) {
        Valid = false;
        break;
      }
    }
    if (Valid)
      return true;
    LockCtx.releaseAll();
  }
  S.fail("lock descriptor revalidation livelock");
  return false;
}

/// One atomic section on the lock backend: enter (acquire per the mode),
/// run the body, release. Shared by the dedicated lock modes and the
/// lock half of AtomicMode::Adaptive.
Flow ThreadExec::execAtomicLocked(const Frame &Fr, const AtomicIrStmt *A) {
  uint64_t SpanT0 = 0;
  if constexpr (obs::kEnabled) {
    if (!LockCtx.insideAtomic() && obs::tracer().enabled())
      SpanT0 = obs::nowNs();
  }
  if (!enterSection(Fr, A))
    return Flow::Stopped;
  Flow F = execStmt(Fr, A->body());
  // Release on both normal exit and return; a Stopped run aborts anyway.
  LockCtx.releaseAll();
  if (!LockCtx.insideAtomic()) {
    SectionAllocs.clear();
    InElidedSection = false;
    if constexpr (obs::kEnabled) {
      if (SpanT0)
        obs::tracer().span(obs::EventKind::SectionSpan, SpanT0,
                           obs::nowNs() - SpanT0, A->sectionId());
    }
  }
  return F;
}

Flow ThreadExec::execInst(const Frame &Fr, const InstStmt *St) {
  auto Get = [&](const Variable *V) { return readVar(Fr, V); };
  auto Put = [&](const Variable *V, Value Val) {
    return writeVar(Fr, V, Val);
  };

  switch (St->kind()) {
  case IrStmt::Kind::Copy: {
    const auto *C = cast<CopyStmt>(St);
    std::optional<Value> V = Get(C->src());
    if (!V || !Put(C->def(), *V))
      return Flow::Stopped;
    return Flow::Normal;
  }
  case IrStmt::Kind::ConstInt:
    return Put(St->def(), Value::ofInt(cast<ConstIntStmt>(St)->value()))
               ? Flow::Normal
               : Flow::Stopped;
  case IrStmt::Kind::ConstNull:
    return Put(St->def(), Value::null()) ? Flow::Normal : Flow::Stopped;
  case IrStmt::Kind::AddrOf: {
    const auto *A = cast<AddrOfStmt>(St);
    return Put(A->def(), Value::ofLoc(varCell(Fr, A->target())))
               ? Flow::Normal
               : Flow::Stopped;
  }
  case IrStmt::Kind::FieldAddr: {
    const auto *F = cast<FieldAddrStmt>(St);
    std::optional<Value> Base = Get(F->base());
    if (!Base)
      return Flow::Stopped;
    if (Base->K != Value::Kind::Location) {
      S.fail("null dereference (field of null)");
      return Flow::Stopped;
    }
    Loc L = Base->L;
    L.Offset += static_cast<uint32_t>(F->fieldIndex());
    return Put(F->def(), Value::ofLoc(L)) ? Flow::Normal : Flow::Stopped;
  }
  case IrStmt::Kind::IndexAddr: {
    const auto *Ix = cast<IndexAddrStmt>(St);
    std::optional<Value> Base = Get(Ix->base());
    std::optional<Value> Idx = Get(Ix->index());
    if (!Base || !Idx)
      return Flow::Stopped;
    if (Base->K != Value::Kind::Location || Idx->K != Value::Kind::Int) {
      S.fail("invalid array indexing");
      return Flow::Stopped;
    }
    if (Idx->Int < 0) {
      S.fail("negative array index");
      return Flow::Stopped;
    }
    Loc L = Base->L;
    L.Offset += static_cast<uint32_t>(Idx->Int);
    return Put(Ix->def(), Value::ofLoc(L)) ? Flow::Normal : Flow::Stopped;
  }
  case IrStmt::Kind::Load: {
    const auto *L = cast<LoadStmt>(St);
    std::optional<Value> Addr = Get(L->addr());
    if (!Addr)
      return Flow::Stopped;
    if (Addr->K != Value::Kind::Location) {
      S.fail("null dereference (load)");
      return Flow::Stopped;
    }
    std::optional<Value> V = readCell(Addr->L, /*Check=*/true);
    if (!V || !Put(L->def(), *V))
      return Flow::Stopped;
    return Flow::Normal;
  }
  case IrStmt::Kind::Store: {
    const auto *StS = cast<StoreStmt>(St);
    std::optional<Value> Addr = Get(StS->addr());
    std::optional<Value> V = Get(StS->value());
    if (!Addr || !V)
      return Flow::Stopped;
    if (Addr->K != Value::Kind::Location) {
      S.fail("null dereference (store)");
      return Flow::Stopped;
    }
    return writeCell(Addr->L, *V, /*Check=*/true) ? Flow::Normal
                                                  : Flow::Stopped;
  }
  case IrStmt::Kind::Alloc: {
    const auto *A = cast<AllocStmt>(St);
    const AllocSite &Site = S.Module.allocSites()[A->siteId()];
    size_t Count = 1;
    if (A->sizeVar()) {
      std::optional<Value> Size = Get(A->sizeVar());
      if (!Size)
        return Flow::Stopped;
      if (Size->K != Value::Kind::Int || Size->Int < 0 ||
          Size->Int > (1 << 26)) {
        S.fail("invalid allocation size");
        return Flow::Stopped;
      }
      Count = static_cast<size_t>(Size->Int);
    }
    HeapObject Obj;
    Obj.UniformRegion = S.PT.regionOfAllocSite(A->siteId());
    size_t Cells = Count;
    if (!Site.IsArray && Site.Elem)
      Cells = Site.Elem->fields().size();
    Obj.Cells.resize(Cells);
    for (size_t I = 0; I < Cells; ++I) {
      bool IntCell;
      if (!Site.IsArray && Site.Elem)
        IntCell = Site.Elem->fields()[I].Ty->isInt();
      else
        IntCell = Site.Elem == nullptr && Site.PtrDepth == 0;
      Obj.Cells[I] = IntCell ? Value::ofInt(0) : Value::null();
    }
    uint32_t Id = S.allocate(std::move(Obj));
    if (Id == UINT32_MAX)
      return Flow::Stopped;
    if (LockCtx.insideAtomic())
      SectionAllocs.push_back(Id);
    if (InTx)
      TxAllocs.push_back(Id);
    return Put(A->def(), Value::ofLoc(Loc{Id, 0})) ? Flow::Normal
                                                   : Flow::Stopped;
  }
  case IrStmt::Kind::IntBin: {
    const auto *B = cast<IntBinStmt>(St);
    std::optional<Value> L = Get(B->lhs());
    std::optional<Value> R = Get(B->rhs());
    if (!L || !R)
      return Flow::Stopped;
    if (L->K != Value::Kind::Int || R->K != Value::Kind::Int) {
      S.fail("arithmetic on non-integer");
      return Flow::Stopped;
    }
    int64_t Result = 0;
    switch (B->op()) {
    case IntBinOp::Add:
      Result = L->Int + R->Int;
      break;
    case IntBinOp::Sub:
      Result = L->Int - R->Int;
      break;
    case IntBinOp::Mul:
      Result = L->Int * R->Int;
      break;
    case IntBinOp::Div:
    case IntBinOp::Rem:
      if (R->Int == 0) {
        S.fail("division by zero");
        return Flow::Stopped;
      }
      Result = B->op() == IntBinOp::Div ? L->Int / R->Int : L->Int % R->Int;
      break;
    }
    return Put(B->def(), Value::ofInt(Result)) ? Flow::Normal
                                               : Flow::Stopped;
  }
  case IrStmt::Kind::Cmp: {
    const auto *C = cast<CmpStmt>(St);
    std::optional<Value> L = Get(C->lhs());
    std::optional<Value> R = Get(C->rhs());
    if (!L || !R)
      return Flow::Stopped;
    bool Result = false;
    if (L->K == Value::Kind::Int && R->K == Value::Kind::Int) {
      switch (C->op()) {
      case CmpOp::Eq:
        Result = L->Int == R->Int;
        break;
      case CmpOp::Ne:
        Result = L->Int != R->Int;
        break;
      case CmpOp::Lt:
        Result = L->Int < R->Int;
        break;
      case CmpOp::Le:
        Result = L->Int <= R->Int;
        break;
      case CmpOp::Gt:
        Result = L->Int > R->Int;
        break;
      case CmpOp::Ge:
        Result = L->Int >= R->Int;
        break;
      }
    } else {
      // Pointer comparison (null counts as a distinct value).
      bool Eq = (L->K == Value::Kind::Null && R->K == Value::Kind::Null) ||
                (L->K == Value::Kind::Location &&
                 R->K == Value::Kind::Location && L->L == R->L);
      if (C->op() == CmpOp::Eq)
        Result = Eq;
      else if (C->op() == CmpOp::Ne)
        Result = !Eq;
      else {
        S.fail("ordered comparison of pointers");
        return Flow::Stopped;
      }
    }
    return Put(C->def(), Value::ofInt(Result ? 1 : 0)) ? Flow::Normal
                                                       : Flow::Stopped;
  }
  case IrStmt::Kind::Call: {
    const auto *C = cast<CallStmt>(St);
    std::vector<Value> Args;
    Args.reserve(C->args().size());
    for (const Variable *Arg : C->args()) {
      std::optional<Value> V = Get(Arg);
      if (!V)
        return Flow::Stopped;
      Args.push_back(*V);
    }
    Flow F = callFunction(C->callee(), Args);
    if (F == Flow::Stopped)
      return F;
    if (C->def() && !Put(C->def(), ReturnValue))
      return Flow::Stopped;
    return Flow::Normal;
  }
  default:
    assert(false && "not a primitive statement");
    return Flow::Stopped;
  }
}

Flow ThreadExec::execStmt(const Frame &Fr, const IrStmt *St) {
  if (!step())
    return Flow::Stopped;

  switch (St->kind()) {
  case IrStmt::Kind::Seq:
    for (const IrStmtPtr &Child : cast<SeqStmt>(St)->stmts()) {
      Flow F = execStmt(Fr, Child.get());
      if (F != Flow::Normal)
        return F;
    }
    return Flow::Normal;
  case IrStmt::Kind::If: {
    const auto *I = cast<IfIrStmt>(St);
    std::optional<Value> Cond = readVar(Fr, I->condVar());
    if (!Cond)
      return Flow::Stopped;
    if (Cond->K == Value::Kind::Int && Cond->Int != 0)
      return execStmt(Fr, I->thenStmt());
    if (I->elseStmt())
      return execStmt(Fr, I->elseStmt());
    return Flow::Normal;
  }
  case IrStmt::Kind::While: {
    const auto *W = cast<WhileIrStmt>(St);
    while (true) {
      Flow F = execStmt(Fr, W->prelude());
      if (F != Flow::Normal)
        return F;
      std::optional<Value> Cond = readVar(Fr, W->condVar());
      if (!Cond)
        return Flow::Stopped;
      if (Cond->K != Value::Kind::Int || Cond->Int == 0)
        return Flow::Normal;
      F = execStmt(Fr, W->body());
      if (F != Flow::Normal)
        return F;
      if (!step())
        return Flow::Stopped;
    }
  }
  case IrStmt::Kind::Atomic: {
    const auto *A = cast<AtomicIrStmt>(St);
    if (S.Options.Mode == AtomicMode::Stm)
      return execAtomicStm(Fr, A);
    if (S.Options.Mode == AtomicMode::Adaptive)
      return execAtomicAdaptive(Fr, A);
    return execAtomicLocked(Fr, A);
  }
  case IrStmt::Kind::Return: {
    const auto *R = cast<ReturnIrStmt>(St);
    if (R->value()) {
      std::optional<Value> V = readVar(Fr, R->value());
      if (!V)
        return Flow::Stopped;
      ReturnValue = *V;
    } else {
      ReturnValue = Value::null();
    }
    return Flow::Returned;
  }
  case IrStmt::Kind::Spawn: {
    const auto *Sp = cast<SpawnIrStmt>(St);
    if (InTx) {
      // Thread creation cannot be rolled back on abort.
      S.fail("spawn reached inside a transactional section");
      return Flow::Stopped;
    }
    std::vector<Value> Args;
    for (const Variable *Arg : Sp->args()) {
      std::optional<Value> V = readVar(Fr, Arg);
      if (!V)
        return Flow::Stopped;
      Args.push_back(*V);
    }
    const IrFunction *Callee = Sp->callee();
    uint64_t Seed = YieldRng.next();
    std::lock_guard<std::mutex> Lock(S.ThreadsMu);
    S.Threads.emplace_back([&Shared = S, Callee, Args, Seed] {
      ThreadExec Exec(Shared, Seed);
      Exec.callFunction(Callee, Args);
    });
    return Flow::Normal;
  }
  case IrStmt::Kind::Assert: {
    const auto *As = cast<AssertIrStmt>(St);
    std::optional<Value> Cond = readVar(Fr, As->condVar());
    if (!Cond)
      return Flow::Stopped;
    if (Cond->K != Value::Kind::Int || Cond->Int == 0) {
      S.fail("assertion failed at " + As->loc().str());
      return Flow::Stopped;
    }
    return Flow::Normal;
  }
  default:
    return execInst(Fr, cast<InstStmt>(St));
  }
}

Flow ThreadExec::callFunction(const IrFunction *F,
                              const std::vector<Value> &Args) {
  assert(Args.size() == F->numParams() && "arity mismatch");

  HeapObject FrameObj;
  FrameObj.IsFrame = true;
  FrameObj.Cells.resize(F->variables().size());
  FrameObj.CellRegions.resize(F->variables().size(), InvalidRegion);
  FrameObj.CheckableCell.resize(F->variables().size(), false);
  for (const auto &V : F->variables()) {
    FrameObj.CellRegions[V->id()] = S.PT.regionOfVarCell(V.get());
    FrameObj.CheckableCell[V->id()] = V->isAddressTaken();
    FrameObj.Cells[V->id()] =
        V->type()->isInt() ? Value::ofInt(0) : Value::null();
  }
  Frame Fr{F, S.allocate(std::move(FrameObj))};
  if (Fr.ObjectId == UINT32_MAX)
    return Flow::Stopped;
  if (InTx)
    TxAllocs.push_back(Fr.ObjectId);
  for (size_t I = 0; I < Args.size(); ++I)
    S.object(Fr.ObjectId).Cells[F->param(static_cast<unsigned>(I))->id()] =
        Args[I];

  ReturnValue = Value::null();
  Flow Result = execStmt(Fr, F->body());
  S.TotalSteps.fetch_add(Steps - StepsAtLastCall, std::memory_order_relaxed);
  StepsAtLastCall = Steps;
  if (Result == Flow::Returned)
    return Flow::Normal; // the return was consumed by this frame
  return Result;
}

/// Partitions the program's atomic sections into migration domains:
/// groups that must flip between the lock and STM backends together
/// because their lock sets may cover overlapping data. Union-find over
/// region keys: a coarse or fine lock contributes its static region
/// (fine locks materialize as leaves/stripes under that region node), so
/// two sections land in one domain iff their regions are connected
/// through some section's lock set. A Top (global) lock conflicts with
/// everything, so any section carrying one merges all keys. Lockless
/// sections touch no shared state and get singleton domains.
static void buildMigrationDomains(const IrModule &Module,
                                  const InferenceResult *Inference,
                                  unsigned NumRegions,
                                  rt::adaptive::AdaptiveEngine &Engine,
                                  std::vector<uint32_t> &SectionDomain) {
  uint32_t NumSections = Module.numAtomicSections();
  SectionDomain.assign(NumSections, 0);

  // Keys: one per region, plus one "global" key for Top locks.
  uint32_t NumKeys = NumRegions + 1;
  std::vector<uint32_t> Parent(NumKeys);
  for (uint32_t I = 0; I < NumKeys; ++I)
    Parent[I] = I;
  auto Find = [&](uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  auto Unite = [&](uint32_t A, uint32_t B) { Parent[Find(A)] = Find(B); };

  auto keyOf = [&](const LockName &L) -> uint32_t {
    if (L.isTop())
      return NumRegions; // the global key
    RegionId R = L.region();
    return (R == InvalidRegion || R >= NumRegions) ? 0 : R;
  };

  bool AnyTop = false;
  if (Inference) {
    for (const InferenceResult::Section &Sec : Inference->sections()) {
      uint32_t First = UINT32_MAX;
      for (const LockName &L : Sec.Locks) {
        if (L.isTop())
          AnyTop = true;
        uint32_t K = keyOf(L);
        if (First == UINT32_MAX)
          First = K;
        else
          Unite(First, K);
      }
    }
  } else {
    // Global-lock baseline: every section holds the one global lock.
    AnyTop = true;
  }
  if (AnyTop)
    for (uint32_t I = 1; I < NumKeys; ++I)
      Unite(0, I);

  // One domain per live component; sections with no locks get their own.
  std::vector<uint32_t> KeyDomain(NumKeys, UINT32_MAX);
  for (uint32_t Id = 0; Id < NumSections; ++Id) {
    uint32_t First = UINT32_MAX;
    if (Inference) {
      const LockSet &Locks = Inference->sectionLocks(Id);
      for (const LockName &L : Locks) {
        First = keyOf(L);
        break;
      }
    } else {
      First = NumRegions;
    }
    uint32_t Dom;
    if (First == UINT32_MAX) {
      Dom = Engine.addDomain(); // lockless: private domain
    } else {
      uint32_t Root = Find(First);
      if (KeyDomain[Root] == UINT32_MAX)
        KeyDomain[Root] = Engine.addDomain();
      Dom = KeyDomain[Root];
    }
    SectionDomain[Id] = Dom;
    Engine.bindSection(Dom, Id + 1); // profiler tags are 1-based
  }
}

} // namespace

InterpResult lockin::interpret(const IrModule &Module,
                               const PointsToAnalysis &PT,
                               const InferenceResult *Inference,
                               const InterpOptions &Options,
                               const std::string &MainFunction) {
  InterpResult Result;

  const IrFunction *Main = Module.findFunction(MainFunction);
  if (!Main) {
    Result.Error = "no function named '" + MainFunction + "'";
    return Result;
  }
  if (Main->numParams() != 0) {
    Result.Error = "main must take no parameters";
    return Result;
  }

  Shared S{Module, PT, Inference, Options};
  S.LockRT = std::make_unique<rt::LockRuntime>(PT.numRegions());
  if (Options.Mode == AtomicMode::Stm ||
      Options.Mode == AtomicMode::Adaptive)
    S.Tx = std::make_unique<TxTable>();
  if (Options.Mode == AtomicMode::Adaptive) {
    rt::adaptive::AdaptiveConfig AC;
    AC.EveryNSections = Options.AdaptiveEveryN;
    AC.EpochMs = Options.AdaptiveEpochMs;
    AC.ForceFlip = Options.AdaptiveForceFlip;
    S.Engine =
        std::make_unique<rt::adaptive::AdaptiveEngine>(*S.LockRT, AC);
    buildMigrationDomains(Module, Inference, PT.numRegions(), *S.Engine,
                          S.SectionDomain);
    S.Engine->start();
  }

  // Object 0: the globals block.
  HeapObject GlobalsObj;
  GlobalsObj.Cells.resize(Module.globals().size());
  GlobalsObj.CellRegions.resize(Module.globals().size(), InvalidRegion);
  for (const auto &G : Module.globals()) {
    GlobalsObj.CellRegions[G->id()] = PT.regionOfVarCell(G.get());
    const IrModule::GlobalInit &Init = Module.GlobalInits[G->id()];
    if (!Init.IsNull)
      GlobalsObj.Cells[G->id()] = Value::ofInt(Init.IntValue);
    else if (G->type()->isInt())
      GlobalsObj.Cells[G->id()] = Value::ofInt(0);
    else
      GlobalsObj.Cells[G->id()] = Value::null();
  }
  S.Objects.push(std::move(GlobalsObj));

  {
    ThreadExec MainExec(S, Options.YieldSeed);
    Flow F = MainExec.callFunction(Main, {});
    if (F == Flow::Normal) {
      // Propagate main's return value if it is an int.
      // (callFunction stores it in ReturnValue.)
      if (MainExec.returnValue().K == Value::Kind::Int)
        Result.MainResult = MainExec.returnValue().Int;
    }
  }

  // Join every spawned thread (spawn may race with joining: threads are
  // only spawned by running threads, and main has finished, but spawned
  // threads may spawn more; loop until quiescent).
  while (true) {
    std::vector<std::thread> ToJoin;
    {
      std::lock_guard<std::mutex> Lock(S.ThreadsMu);
      ToJoin.swap(S.Threads);
    }
    if (ToJoin.empty())
      break;
    for (std::thread &T : ToJoin)
      T.join();
  }

  Result.TotalSteps = S.TotalSteps.load();
  Result.ProtectionChecks = S.ProtectionChecks.load();
  Result.StmCommits = S.StmCommits.load();
  Result.StmAborts = S.StmAborts.load();

  if (Options.FingerprintHeap && S.Error.empty()) {
    // Canonical walk of the heap reachable from the globals block:
    // objects are numbered in first-visit order, so the hash is
    // independent of allocation order (and of garbage left behind by
    // aborted transactions or dead temporaries).
    std::vector<uint32_t> CanonId(S.Objects.size(), UINT32_MAX);
    std::vector<uint32_t> Order;
    CanonId[0] = 0;
    Order.push_back(0);
    uint64_t H = 0xcbf29ce484222325ULL;
    auto Mix = [&H](uint64_t X) {
      H ^= X;
      H *= 0x100000001b3ULL;
      H ^= H >> 29;
    };
    for (size_t I = 0; I < Order.size(); ++I) {
      HeapObject &Obj = S.Objects[Order[I]];
      Mix(Obj.Cells.size());
      for (const Value &V : Obj.Cells) {
        switch (V.K) {
        case Value::Kind::Null:
          Mix(0x6e);
          break;
        case Value::Kind::Int:
          Mix(0x17);
          Mix(static_cast<uint64_t>(V.Int));
          break;
        case Value::Kind::Location:
          if (CanonId[V.L.Object] == UINT32_MAX) {
            CanonId[V.L.Object] = static_cast<uint32_t>(Order.size());
            Order.push_back(V.L.Object);
          }
          Mix(0x70);
          Mix(CanonId[V.L.Object]);
          Mix(V.L.Offset);
          break;
        }
      }
    }
    Result.HeapFingerprint = H;
    Result.HeapObjects = static_cast<uint32_t>(Order.size());
  }
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry &Reg = S.LockRT->registry();
    Reg.counter("interp.total_steps").add(Result.TotalSteps);
    Reg.counter("interp.protection_checks").add(Result.ProtectionChecks);
  }
  {
    std::lock_guard<std::mutex> Lock(S.ErrorMu);
    Result.Error = S.Error;
  }
  Result.Ok = Result.Error.empty();
  return Result;
}
