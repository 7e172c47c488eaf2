//===--- LockRuntime.h - Multi-granularity lock runtime ---------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime library of §5: the lock hierarchy (root ⊤ → one node per
/// points-to region → one leaf node per address) and the three-call API
/// *to-acquire*, *acquire-all*, *release-all* on a per-thread context.
///
/// Deadlock freedom: acquire-all first computes the combined mode required
/// at every node (fine ro → IS/S, fine rw → IX/X, coarse ro → S, coarse rw
/// → X, with SIX when a region is both read coarsely and written finely),
/// then acquires top-down — root, regions in ascending region id, leaves
/// in ascending (region, address) — a total order shared by all threads.
/// Locks are released bottom-up at release-all. Nested sections are
/// handled with the per-thread nesting counter of §5.3.
///
/// Fast path (see DESIGN.md "Runtime fast path"): the per-call mode
/// folding runs on reusable per-context scratch vectors (steady-state
/// acquire-all performs zero heap allocations), repeat leaf lookups hit a
/// per-thread direct-mapped cache instead of the sharded table, the
/// per-access cover check is a binary search over a sorted index, and
/// the root and region nodes keep IS/IX in per-thread intention slots,
/// so sections with disjoint leaves write no shared cache line.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_RUNTIME_LOCKRUNTIME_H
#define LOCKIN_RUNTIME_LOCKRUNTIME_H

#include "obs/LockProfiler.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "runtime/LockNode.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace rt {

/// A serialized lock as handed to the runtime (§5.2): an address for the
/// Σ_k component, a region id for the Σ_≡ component, and the effect.
struct LockDescriptor {
  enum class Kind : uint8_t { Global, Coarse, Fine };

  Kind K = Kind::Global;
  uint32_t Region = 0;
  uint64_t Address = 0;
  bool Write = true;

  static LockDescriptor global() { return {Kind::Global, 0, 0, true}; }
  static LockDescriptor coarse(uint32_t Region, bool Write) {
    return {Kind::Coarse, Region, 0, Write};
  }
  static LockDescriptor fine(uint32_t Region, uint64_t Address, bool Write) {
    return {Kind::Fine, Region, Address, Write};
  }

  /// True if holding this descriptor permits the given access under the
  /// concrete lock semantics of §3.2.
  bool covers(uint64_t Addr, uint32_t AddrRegion, bool IsWrite) const {
    if (IsWrite && !Write)
      return false;
    switch (K) {
    case Kind::Global:
      return true;
    case Kind::Coarse:
      return Region == AddrRegion;
    case Kind::Fine:
      return Address == Addr;
    }
    return false;
  }
};

/// Snapshot of the aggregate protocol statistics (for the ablation
/// benchmark and --stats). The live counts are "runtime.*" counters in
/// the runtime's metrics registry; contexts buffer counts in plain
/// per-thread cells and flush them there on destruction (or an explicit
/// flushStats()), so the steady-state fast path performs no shared atomic
/// RMWs at all. Recording is compiled out entirely when the LOCKIN_OBS
/// CMake option is OFF; the struct itself stays so callers compile
/// either way.
struct LockRuntimeStats {
  uint64_t AcquireAllCalls = 0;
  uint64_t NodeAcquisitions = 0;
  uint64_t NestedSkips = 0;
  uint64_t LeafCacheHits = 0;
  uint64_t LeafCacheMisses = 0;
};

/// A cache-line-padded striped lock table: the escalated layout of one
/// hot region. Fine requests hash their address to a stripe instead of
/// taking a per-address leaf — shorter path (no shard map, no leaf
/// cache) at the cost of false conflicts between addresses sharing a
/// stripe, which is why escalation is a policy decision, not the
/// default. Stripe count is a power of two, sized from the observed
/// contender count by the adaptive engine.
struct StripeTable {
  struct alignas(64) PaddedNode {
    LockNode Node;
  };

  explicit StripeTable(unsigned CountPow2)
      : Count(CountPow2), Stripes(new PaddedNode[CountPow2]) {}

  unsigned indexFor(uint64_t Address) const {
    // Word-align then Fibonacci-spread; take high product bits.
    uint64_t H = (Address >> 3) * 0x9e3779b97f4a7c15ULL;
    return static_cast<unsigned>(H >> 32) & (Count - 1);
  }
  LockNode &stripe(unsigned Idx) { return Stripes[Idx].Node; }

  const unsigned Count; ///< power of two
  std::unique_ptr<PaddedNode[]> Stripes;
};

/// Shared lock table for one program run. Threads interact through
/// ThreadLockContext instances bound to this runtime.
class LockRuntime {
public:
  /// \p NumRegions must cover every region id used in descriptors.
  /// \p Registry and \p Profiler default to the process-global instances;
  /// tests inject fresh ones for exact, isolated counts.
  explicit LockRuntime(unsigned NumRegions,
                       obs::MetricsRegistry *Registry = nullptr,
                       obs::LockProfiler *Profiler = nullptr);

  LockNode &root() { return Root; }
  LockNode &regionNode(uint32_t Region);
  /// The leaf node for \p Address under \p Region, created on first use
  /// (never freed; leaf count is bounded by the number of distinct locked
  /// addresses — which is what makes per-thread pointer caching sound).
  /// Leaves are children of their region node, so the pair is the
  /// identity.
  LockNode &leafNode(uint32_t Region, uint64_t Address);

  unsigned numRegions() const {
    return static_cast<unsigned>(Regions.size());
  }

  /// The striped layout installed for \p Region, or null for the flat
  /// per-address leaves. Only meaningful while the caller holds a grant
  /// on the region node: any granted mode conflicts with the X the
  /// escalation protocol takes, so the layout read after the grant is
  /// pinned until release.
  StripeTable *regionLayout(uint32_t Region) const {
    return Dyn[Region].Layout.load(std::memory_order_acquire);
  }

  /// Distinct leaf nodes ever created under \p Region (the adaptive
  /// engine's leaf-pressure escalation signal).
  uint32_t regionLeafCount(uint32_t Region) const {
    return Dyn[Region].LeafCount.load(std::memory_order_relaxed);
  }

  /// Installs a striped layout of ~\p Stripes stripes (rounded up to a
  /// power of two, clamped to [2, 1024]) for \p Region, or removes it.
  /// Both take the region node in X, which drains every current holder
  /// — a holder's region grant pins the layout it read — and block new
  /// entrants until the swap is published; the sorted acquisition order
  /// is unchanged, so deadlock freedom is preserved across the swap.
  /// Returns false when already in the requested state. Retired tables
  /// stay owned (and profiler-registered) until runtime destruction, so
  /// no node ever dangles.
  bool escalateRegion(uint32_t Region, unsigned Stripes);
  bool deescalateRegion(uint32_t Region);

  /// Visits every lock node: root, regions, stripes of installed
  /// layouts, then leaves (briefly locking each shard). \p F is called
  /// as F(LockNode &, const obs::LockNodeInfo &). Nodes created
  /// concurrently may be missed; the adaptive engine re-scans each
  /// epoch.
  template <typename Fn> void forEachNode(Fn &&F) {
    F(Root, obs::LockNodeInfo{obs::LockNodeInfo::Kind::Root, 0, 0});
    for (uint32_t R = 0; R < Regions.size(); ++R) {
      F(*Regions[R], obs::LockNodeInfo{obs::LockNodeInfo::Kind::Region, R, 0});
      if (StripeTable *T = regionLayout(R))
        for (unsigned I = 0; I < T->Count; ++I)
          F(T->stripe(I),
            obs::LockNodeInfo{obs::LockNodeInfo::Kind::Stripe, R, I});
    }
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      for (auto &[Key, Node] : S.Leaves)
        F(*Node, obs::LockNodeInfo{obs::LockNodeInfo::Kind::Leaf, Key.Region,
                                   Key.Address});
    }
  }

  /// Current values of the shared "runtime.*" counters (see
  /// ThreadLockContext::flushStats for when buffered counts land).
  LockRuntimeStats stats() const;

  /// Live count of parked acquisitions, maintained even while the
  /// profiler is dormant (a park costs microseconds; one relaxed RMW on
  /// that path is noise). The adaptive engine reads the per-epoch delta
  /// as its always-on contention alarm: parking appearing during a
  /// quiet spell re-arms the profiler immediately instead of waiting
  /// out the duty-cycle backoff.
  uint64_t parkEvents() const {
    return ParkEvents.load(std::memory_order_relaxed);
  }

  obs::MetricsRegistry &registry() { return *Reg; }
  obs::LockProfiler &profiler() { return *Prof; }

  struct LeafKey {
    uint32_t Region;
    uint64_t Address;
    bool operator==(const LeafKey &Other) const = default;
  };
  struct LeafKeyHash {
    size_t operator()(const LeafKey &Key) const {
      // Fibonacci-multiply then fold the high bits down: the shard index
      // takes the LOW bits, and for aligned addresses the low product
      // bits barely vary, so fold before masking.
      uint64_t H = (Key.Address + 0x9e3779b97f4a7c15ULL * (Key.Region + 1)) *
                   0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(H ^ (H >> 32));
    }
  };

private:
  /// Root and regions are interior nodes: every non-global section takes
  /// them in IS/IX, which lands in per-thread intention slots.
  LockNode Root{LockNode::Kind::Interior};
  std::vector<std::unique_ptr<LockNode>> Regions;

  /// Per-region dynamic-layout state.
  struct RegionDyn {
    std::atomic<StripeTable *> Layout{nullptr};
    std::atomic<uint32_t> LeafCount{0};
  };
  std::unique_ptr<RegionDyn[]> Dyn;
  /// Owns every stripe table ever installed (active and retired): a
  /// de-escalated table may still be referenced by profiler slot ids,
  /// so tables live until the runtime dies.
  std::mutex TablesMu;
  std::vector<std::unique_ptr<StripeTable>> StripeTables;

  static constexpr unsigned NumShards = 64;
  static_assert((NumShards & (NumShards - 1)) == 0,
                "shard index uses a power-of-two mask");
  struct Shard {
    std::mutex Mu;
    std::unordered_map<LeafKey, std::unique_ptr<LockNode>, LeafKeyHash>
        Leaves;
  };
  Shard Shards[NumShards];

  friend class ThreadLockContext;
  std::atomic<uint64_t> ParkEvents{0};
  obs::MetricsRegistry *Reg;
  obs::LockProfiler *Prof;
  /// Registry counter handles, resolved once at construction so context
  /// flushes are pointer chases, not name lookups.
  struct StatCounters {
    obs::Counter *AcquireAllCalls = nullptr;
    obs::Counter *NodeAcquisitions = nullptr;
    obs::Counter *NestedSkips = nullptr;
    obs::Counter *LeafCacheHits = nullptr;
    obs::Counter *LeafCacheMisses = nullptr;
  };
  StatCounters SC;
};

/// Per-thread façade implementing the §5.2 API. Not thread-safe; create
/// one per thread.
class ThreadLockContext {
public:
  explicit ThreadLockContext(LockRuntime &RT)
      : RT(RT), Trc(&obs::tracer()) {
    // One stable pseudo-random bit per context for NodeSlot::ContenderMask.
    uint64_t H = reinterpret_cast<uintptr_t>(this) * 0x9e3779b97f4a7c15ULL;
    TidBit = 1ull << (H >> 58);
  }
  ~ThreadLockContext();

  ThreadLockContext(const ThreadLockContext &) = delete;
  ThreadLockContext &operator=(const ThreadLockContext &) = delete;

  /// Adds \p D to the pending list (the *to-acquire* call).
  void toAcquire(const LockDescriptor &D) {
    if (NLevel > 0)
      return; // inner section: the outer section's locks already protect it
    Pending.push_back(D);
  }

  /// Tags subsequent acquireAll calls with the static id of the atomic
  /// section being entered, keying the profiler's per-section rollups
  /// (entries, locks/entry, mode mix). 0 = untagged; the interpreter
  /// passes static section id + 1.
  void setSectionTag(uint32_t SectionId) { SectionTag = SectionId; }
  uint32_t sectionTag() const { return SectionTag; }

  /// Acquires every pending lock using the multi-grain protocol. Nested
  /// calls (nesting level > 0) acquire nothing (§5.3). Single-descriptor
  /// sections — the overwhelmingly common case, one inferred lock per
  /// section — inline into a fixed two/three-node walk; everything else
  /// goes through the general fold in acquireAllSlow.
  void acquireAll() {
    if (NLevel++ > 0) {
      statInc(LStats.NestedSkips);
      if constexpr (obs::kEnabled) {
        if (ObsActive)
          RT.Prof->sectionSlot(SectionTag).NestedSkips.add(ObsWeight);
      }
      Pending.clear();
      return;
    }
    statInc(LStats.AcquireAllCalls);
    if constexpr (obs::kEnabled)
      beginObsSection();
    // The cover index and HeldNodes are invariably empty here: the
    // outermost acquireAll always follows a full releaseAll (or a fresh
    // context), so nothing needs clearing on this path.
    if (Pending.size() == 1 &&
        Pending[0].K != LockDescriptor::Kind::Global) {
      const LockDescriptor &D = Pending[0];
      if (D.K == LockDescriptor::Kind::Coarse) {
        grab(RT.root(), D.Write ? Mode::IX : Mode::IS);
        grab(RT.regionNode(D.Region), D.Write ? Mode::X : Mode::S);
        CoarseIndex.push_back({D.Region, D.Write});
      } else {
        grab(RT.root(), D.Write ? Mode::IX : Mode::IS);
        grab(RT.regionNode(D.Region), D.Write ? Mode::IX : Mode::IS);
        // Layout is read *after* the region grant, which pins it (see
        // LockRuntime::regionLayout): on the flat layout this is one
        // extra acquire load; on a striped region the stripe replaces
        // the leaf — a hash instead of the cache/shard-map lookup.
        if (StripeTable *T = RT.regionLayout(D.Region))
          grab(T->stripe(T->indexFor(D.Address)),
               D.Write ? Mode::X : Mode::S);
        else
          grab(cachedLeaf(D.Region, D.Address), D.Write ? Mode::X : Mode::S);
        FineIndex.push_back({D.Address, D.Write});
      }
      statAdd(LStats.NodeAcquisitions, HeldNodes.size());
      // Swap, not move: the old HeldDescriptors buffer becomes the next
      // section's Pending buffer, so neither side reallocates in steady
      // state.
      std::swap(HeldDescriptors, Pending);
      Pending.clear();
      if constexpr (obs::kEnabled) {
        if (ObsActive)
          endObsAcquire();
      }
      return;
    }
    acquireAllSlow();
  }

  /// Releases all locks held by this thread, bottom-up. Inner nested
  /// sections only decrement the nesting counter.
  void releaseAll() {
    assert(NLevel > 0 && "releaseAll without matching acquireAll");
    if (--NLevel > 0)
      return;
    if constexpr (obs::kEnabled) {
      if (ObsActive && !HeldNodes.empty())
        recordHoldTimes();
      // Parked time is recorded exactly per section (the adaptive
      // engine's wait/hold migration signal), sampled or not.
      if (SectionParkNs) {
        RT.Prof->sectionSlot(SectionTag).WaitNs.add(SectionParkNs);
        SectionParkNs = 0;
      }
    }
    // Bottom-up release: reverse acquisition order.
    for (size_t I = HeldNodes.size(); I-- > 0;)
      HeldNodes[I].Node->release(HeldNodes[I].M);
    HeldNodes.clear();
    HeldDescriptors.clear();
    HasGlobal = false;
    HasGlobalWrite = false;
    CoarseIndex.clear();
    FineIndex.clear();
  }

  /// Descriptors currently protected (outermost section), for the
  /// checking interpreter.
  const std::vector<LockDescriptor> &heldDescriptors() const {
    return HeldDescriptors;
  }

  /// True if the held set permits the access (checking semantics, §4.2).
  /// Binary search over the cover index built at acquireAll — this runs
  /// once per memory access in the checking interpreter.
  bool coversAccess(uint64_t Addr, uint32_t Region, bool IsWrite) const {
    if (HasGlobalWrite || (HasGlobal && !IsWrite))
      return true;
    auto C = std::lower_bound(
        CoarseIndex.begin(), CoarseIndex.end(), Region,
        [](const CoarseCover &E, uint32_t R) { return E.Region < R; });
    if (C != CoarseIndex.end() && C->Region == Region &&
        (C->Write || !IsWrite))
      return true;
    auto F = std::lower_bound(
        FineIndex.begin(), FineIndex.end(), Addr,
        [](const FineCover &E, uint64_t A) { return E.Address < A; });
    return F != FineIndex.end() && F->Address == Addr &&
           (F->Write || !IsWrite);
  }

  int nestingLevel() const { return NLevel; }
  bool insideAtomic() const { return NLevel > 0; }

  /// Adds this context's buffered statistics to the runtime's registry
  /// counters. Called automatically on destruction; call explicitly to
  /// observe exact counts while the context lives.
  void flushStats() {
    if constexpr (obs::kEnabled) {
      RT.SC.AcquireAllCalls->add(LStats.AcquireAllCalls);
      RT.SC.NodeAcquisitions->add(LStats.NodeAcquisitions);
      RT.SC.NestedSkips->add(LStats.NestedSkips);
      RT.SC.LeafCacheHits->add(LStats.LeafCacheHits);
      RT.SC.LeafCacheMisses->add(LStats.LeafCacheMisses);
      LStats = {};
    }
  }

private:
  struct HeldNode {
    LockNode *Node;
    Mode M;
  };
  /// Scratch entries for the per-call mode fold; the vectors keep their
  /// capacity across sections, so steady-state acquireAll is
  /// allocation-free.
  struct RegionReq {
    uint32_t Region;
    Mode M;
  };
  struct LeafReq {
    uint32_t Region;
    uint64_t Address;
    Mode M;
  };
  struct StripeReq {
    unsigned Index;
    Mode M;
  };
  /// Cover-index entries (write flag is the OR of the merged
  /// descriptors: a rw lock also covers reads).
  struct CoarseCover {
    uint32_t Region;
    bool Write;
  };
  struct FineCover {
    uint64_t Address;
    bool Write;
  };

  /// Per-context stat cells: plain increments here, one batched atomic
  /// flush per context lifetime (see flushStats). Mirrors
  /// LockRuntimeStats field for field.
  struct LocalStats {
    uint64_t AcquireAllCalls = 0;
    uint64_t NodeAcquisitions = 0;
    uint64_t NestedSkips = 0;
    uint64_t LeafCacheHits = 0;
    uint64_t LeafCacheMisses = 0;
  };
  static void statInc(uint64_t &Cell) {
    if constexpr (obs::kEnabled)
      ++Cell;
    else
      (void)Cell;
  }
  static void statAdd(uint64_t &Cell, uint64_t N) {
    if constexpr (obs::kEnabled)
      Cell += N;
    else
      (void)Cell, (void)N;
  }

  /// Decides whether this outermost section is observed and at what
  /// weight. Profiler dormant: one relaxed load and a branch. Armed,
  /// the unsampled path is the counter bump and two predictable
  /// branches: the tracer state is cached and refreshed once per
  /// sample period instead of loaded per section (so arming the tracer
  /// takes effect within kSampleEvery sections), which is what brought
  /// the armed overhead back under the ≤5% budget.
  void beginObsSection() {
    static_assert((obs::kSampleEvery & (obs::kSampleEvery - 1)) == 0,
                  "sampling uses a power-of-two mask");
    ObsActive = false;
    ObsOn = RT.Prof->enabled();
    if (!ObsOn)
      return;
    if ((SectionSeq++ & (obs::kSampleEvery - 1)) == 0) {
      TrcArmed = Trc->enabled();
      ObsActive = true;
      ObsWeight = TrcArmed ? 1 : obs::kSampleEvery;
      // The section-start timestamp only feeds the acquire trace span;
      // profiling alone gets by on the end-of-acquire read.
      AcquireStartNs = TrcArmed ? obs::nowNs() : 0;
    } else if (TrcArmed) {
      ObsActive = true;
      ObsWeight = 1;
      AcquireStartNs = obs::nowNs();
    }
  }

  void grab(LockNode &Node, Mode M) {
    if constexpr (obs::kEnabled) {
      // Any enabled profiler must see parked waits exactly, so every
      // grab checks the park flag while it is on; the common unsampled
      // uncontended grab stays on this inline path and records nothing.
      if (ObsOn) {
        uint64_t ParkNs = 0;
        bool Parked = Node.acquire(M, &ParkNs);
        if (Parked) {
          RT.ParkEvents.fetch_add(1, std::memory_order_relaxed);
          grabObs(Node, M, Parked, ParkNs);
          return;
        }
        if (ObsActive) {
          grabObs(Node, M, Parked, ParkNs);
          return;
        }
        HeldNodes.push_back({&Node, M});
        return;
      }
    }
    if (Node.acquire(M))
      RT.ParkEvents.fetch_add(1, std::memory_order_relaxed);
    HeldNodes.push_back({&Node, M});
  }
  void grabObs(LockNode &Node, Mode M, bool Parked, uint64_t ParkNs);
  void endObsAcquire();
  void recordHoldTimes();
  LockNode &cachedLeaf(uint32_t Region, uint64_t Address) {
    size_t Idx = LockRuntime::LeafKeyHash{}(
                     LockRuntime::LeafKey{Region, Address}) &
                 (LeafCacheSize - 1);
    LeafCacheEntry &E = LeafCache[Idx];
    if (E.Node && E.Address == Address && E.Region == Region) {
      statInc(LStats.LeafCacheHits);
      return *E.Node;
    }
    statInc(LStats.LeafCacheMisses);
    LockNode &N = RT.leafNode(Region, Address);
    E = {Address, Region, &N};
    return N;
  }
  void acquireAllSlow();
  void buildCoverIndex();

  LockRuntime &RT;
  std::vector<LockDescriptor> Pending;
  std::vector<LockDescriptor> HeldDescriptors;
  std::vector<HeldNode> HeldNodes; // in acquisition order
  std::vector<RegionReq> RegionScratch;
  std::vector<LeafReq> LeafScratch;
  std::vector<StripeReq> StripeScratch;
  std::vector<CoarseCover> CoarseIndex; // sorted by Region
  std::vector<FineCover> FineIndex;     // sorted by Address
  bool HasGlobal = false;
  bool HasGlobalWrite = false;
  int NLevel = 0;
  LocalStats LStats;

  /// Observability state for the current outermost section (set by
  /// beginObsSection, consumed through releaseAll).
  uint32_t SectionTag = 0;
  uint32_t SectionSeq = 0;    ///< sections seen, drives 1/kSampleEvery
  obs::Tracer *Trc;           ///< cached singleton
  bool TrcArmed = false;      ///< tracer state, refreshed 1/kSampleEvery
  bool ObsOn = false;         ///< profiler enabled at section entry
  bool ObsActive = false;     ///< this section is sampled (or traced)
  uint64_t ObsWeight = 1;     ///< count weight for sampled updates
  uint64_t AcquireStartNs = 0;
  uint64_t AcquireEndNs = 0;
  uint64_t SectionParkNs = 0; ///< parked ns in this section, exact
  uint64_t TidBit = 0;        ///< hashed-thread bit for ContenderMask

  /// Direct-mapped (region, address) → leaf cache; leaves are never
  /// freed, so hits stay valid for the lifetime of the runtime.
  struct LeafCacheEntry {
    uint64_t Address = 0;
    uint32_t Region = 0;
    LockNode *Node = nullptr;
  };
  static constexpr unsigned LeafCacheSize = 256;
  static_assert((LeafCacheSize & (LeafCacheSize - 1)) == 0,
                "cache index uses a power-of-two mask");
  std::array<LeafCacheEntry, LeafCacheSize> LeafCache{};
};

} // namespace rt
} // namespace lockin

#endif // LOCKIN_RUNTIME_LOCKRUNTIME_H
