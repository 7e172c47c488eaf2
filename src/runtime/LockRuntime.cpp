//===--- LockRuntime.cpp - Multi-granularity lock runtime ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockRuntime.h"

#include <algorithm>
#include <cassert>

using namespace lockin;
using namespace lockin::rt;

LockRuntime::LockRuntime(unsigned NumRegions, obs::MetricsRegistry *Registry,
                         obs::LockProfiler *Profiler)
    : Reg(Registry ? Registry : &obs::metrics()),
      Prof(Profiler ? Profiler : &obs::lockProfiler()) {
  Regions.reserve(NumRegions);
  for (unsigned I = 0; I < NumRegions; ++I)
    Regions.push_back(std::make_unique<LockNode>(LockNode::Kind::Interior));
  Dyn = std::make_unique<RegionDyn[]>(NumRegions ? NumRegions : 1);
  SC.AcquireAllCalls = &Reg->counter("runtime.acquire_all_calls");
  SC.NodeAcquisitions = &Reg->counter("runtime.node_acquisitions");
  SC.NestedSkips = &Reg->counter("runtime.nested_skips");
  SC.LeafCacheHits = &Reg->counter("runtime.leaf_cache_hits");
  SC.LeafCacheMisses = &Reg->counter("runtime.leaf_cache_misses");
  if constexpr (obs::kEnabled) {
    Root.ObsId = Prof->registerNode(
        {obs::LockNodeInfo::Kind::Root, 0, 0});
    for (unsigned I = 0; I < NumRegions; ++I)
      Regions[I]->ObsId = Prof->registerNode(
          {obs::LockNodeInfo::Kind::Region, I, 0});
  }
}

LockRuntimeStats LockRuntime::stats() const {
  return {SC.AcquireAllCalls->value(), SC.NodeAcquisitions->value(),
          SC.NestedSkips->value(), SC.LeafCacheHits->value(),
          SC.LeafCacheMisses->value()};
}

LockNode &LockRuntime::regionNode(uint32_t Region) {
  assert(Region < Regions.size() && "region id out of range");
  return *Regions[Region];
}

LockNode &LockRuntime::leafNode(uint32_t Region, uint64_t Address) {
  LeafKey Key{Region, Address};
  Shard &S = Shards[LeafKeyHash{}(Key) & (NumShards - 1)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  std::unique_ptr<LockNode> &Slot = S.Leaves[Key];
  if (!Slot) {
    Slot = std::make_unique<LockNode>();
    if constexpr (obs::kEnabled)
      Slot->ObsId = Prof->registerNode(
          {obs::LockNodeInfo::Kind::Leaf, Region, Address});
    Dyn[Region].LeafCount.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot;
}

bool LockRuntime::escalateRegion(uint32_t Region, unsigned Stripes) {
  assert(Region < Regions.size() && "region id out of range");
  if (Dyn[Region].Layout.load(std::memory_order_acquire))
    return false; // already striped; resize = deescalate + escalate
  unsigned N = 2;
  while (N < Stripes && N < 1024)
    N <<= 1;
  auto Table = std::make_unique<StripeTable>(N);
  if constexpr (obs::kEnabled)
    for (unsigned I = 0; I < N; ++I)
      Table->stripe(I).ObsId =
          Prof->registerNode({obs::LockNodeInfo::Kind::Stripe, Region, I});
  StripeTable *T = Table.get();
  {
    std::lock_guard<std::mutex> Lock(TablesMu);
    StripeTables.push_back(std::move(Table));
  }
  // X on the region node drains every holder (their grants pin the old
  // layout) and queues new entrants until the swap is published; the
  // engine holds no other node, so no acquisition cycle can form.
  LockNode &R = *Regions[Region];
  R.acquire(Mode::X);
  Dyn[Region].Layout.store(T, std::memory_order_release);
  R.release(Mode::X);
  return true;
}

bool LockRuntime::deescalateRegion(uint32_t Region) {
  assert(Region < Regions.size() && "region id out of range");
  if (!Dyn[Region].Layout.load(std::memory_order_acquire))
    return false;
  LockNode &R = *Regions[Region];
  R.acquire(Mode::X);
  Dyn[Region].Layout.store(nullptr, std::memory_order_release);
  R.release(Mode::X);
  // The retired table stays in StripeTables: profiler ids and late
  // readers that pinned it remain valid until the runtime dies.
  return true;
}

ThreadLockContext::~ThreadLockContext() {
  assert(HeldNodes.empty() && "thread exited while holding locks");
  flushStats();
}

// The general multi-descriptor path; the single-descriptor fast path
// lives inline in the header.
void ThreadLockContext::acquireAllSlow() {
  // Phase 1: fold the pending descriptors into the required mode at every
  // node of the hierarchy, on reusable scratch vectors (no allocation
  // once their capacity has grown to the section's working-set size).
  bool NeedRootX = false;
  Mode RootMode = Mode::IS;
  bool RootUsed = false;
  RegionScratch.clear();
  LeafScratch.clear();

  auto FoldRoot = [&](Mode M) {
    RootMode = RootUsed ? combineModes(RootMode, M) : M;
    RootUsed = true;
  };

  for (const LockDescriptor &D : Pending) {
    switch (D.K) {
    case LockDescriptor::Kind::Global:
      NeedRootX = true;
      break;
    case LockDescriptor::Kind::Coarse:
      FoldRoot(D.Write ? Mode::IX : Mode::IS);
      RegionScratch.push_back({D.Region, D.Write ? Mode::X : Mode::S});
      break;
    case LockDescriptor::Kind::Fine:
      FoldRoot(D.Write ? Mode::IX : Mode::IS);
      RegionScratch.push_back({D.Region, D.Write ? Mode::IX : Mode::IS});
      LeafScratch.push_back(
          {D.Region, D.Address, D.Write ? Mode::X : Mode::S});
      break;
    }
  }
  if (NeedRootX) {
    RootMode = Mode::X;
    RootUsed = true;
    // Root X subsumes every descendant; no other node is needed.
    RegionScratch.clear();
    LeafScratch.clear();
  } else {
    // Sort into the global acquisition order, then merge duplicate keys
    // in place with the mode join.
    std::sort(RegionScratch.begin(), RegionScratch.end(),
              [](const RegionReq &A, const RegionReq &B) {
                return A.Region < B.Region;
              });
    size_t Out = 0;
    for (size_t I = 0; I < RegionScratch.size(); ++I) {
      if (Out > 0 && RegionScratch[Out - 1].Region == RegionScratch[I].Region)
        RegionScratch[Out - 1].M =
            combineModes(RegionScratch[Out - 1].M, RegionScratch[I].M);
      else
        RegionScratch[Out++] = RegionScratch[I];
    }
    RegionScratch.resize(Out);

    std::sort(LeafScratch.begin(), LeafScratch.end(),
              [](const LeafReq &A, const LeafReq &B) {
                return A.Region != B.Region ? A.Region < B.Region
                                            : A.Address < B.Address;
              });
    Out = 0;
    for (size_t I = 0; I < LeafScratch.size(); ++I) {
      if (Out > 0 && LeafScratch[Out - 1].Region == LeafScratch[I].Region &&
          LeafScratch[Out - 1].Address == LeafScratch[I].Address)
        LeafScratch[Out - 1].M =
            combineModes(LeafScratch[Out - 1].M, LeafScratch[I].M);
      else
        LeafScratch[Out++] = LeafScratch[I];
    }
    LeafScratch.resize(Out);
  }

  // Phase 2: acquire top-down in the global total order.
  if (RootUsed)
    grab(RT.root(), RootMode);
  for (const RegionReq &R : RegionScratch)
    grab(RT.regionNode(R.Region), R.M);
  // Leaf phase, one run per region (LeafScratch is sorted by region).
  // Each region's grant — taken above — pins its layout, so the read
  // here is stable for the whole section. A striped run re-sorts by
  // stripe index and merges duplicates: every thread sees the same
  // layout, hence the same order, preserving deadlock freedom.
  for (size_t I = 0; I < LeafScratch.size();) {
    uint32_t Region = LeafScratch[I].Region;
    size_t End = I + 1;
    while (End < LeafScratch.size() && LeafScratch[End].Region == Region)
      ++End;
    if (StripeTable *T = RT.regionLayout(Region)) {
      StripeScratch.clear();
      for (size_t J = I; J < End; ++J)
        StripeScratch.push_back(
            {T->indexFor(LeafScratch[J].Address), LeafScratch[J].M});
      std::sort(StripeScratch.begin(), StripeScratch.end(),
                [](const StripeReq &A, const StripeReq &B) {
                  return A.Index < B.Index;
                });
      size_t SOut = 0;
      for (size_t J = 0; J < StripeScratch.size(); ++J) {
        if (SOut > 0 &&
            StripeScratch[SOut - 1].Index == StripeScratch[J].Index)
          StripeScratch[SOut - 1].M =
              combineModes(StripeScratch[SOut - 1].M, StripeScratch[J].M);
        else
          StripeScratch[SOut++] = StripeScratch[J];
      }
      StripeScratch.resize(SOut);
      for (const StripeReq &SR : StripeScratch)
        grab(T->stripe(SR.Index), SR.M);
    } else {
      for (size_t J = I; J < End; ++J)
        grab(cachedLeaf(Region, LeafScratch[J].Address), LeafScratch[J].M);
    }
    I = End;
  }
  statAdd(LStats.NodeAcquisitions, HeldNodes.size());

  // Swap, not move: the old HeldDescriptors buffer becomes the next
  // section's Pending buffer, so neither side reallocates in steady
  // state.
  std::swap(HeldDescriptors, Pending);
  Pending.clear();
  buildCoverIndex();
  if constexpr (obs::kEnabled) {
    if (ObsActive)
      endObsAcquire();
  }
}

// Recording tail of an instrumented grab: the node has already been
// acquired on the inline path; this runs only for parked (exact wait
// recording — parking already costs microseconds, so the bookkeeping
// vanishes in the noise) or sampled grabs, so it can afford the chunked
// table lookup.
void ThreadLockContext::grabObs(LockNode &Node, Mode M, bool Parked,
                                uint64_t ParkNs) {
  if (Node.ObsId) {
    obs::NodeSlot &Slot = RT.Prof->nodeSlot(Node.ObsId);
    if (Parked) {
      Slot.Contentions.inc();
      Slot.WaitNs.record(ParkNs);
      Slot.ContenderMask.fetch_or(TidBit, std::memory_order_relaxed);
      SectionParkNs += ParkNs;
      obs::tracer().span(obs::EventKind::NodeWaitSpan,
                         obs::nowNs() - ParkNs, ParkNs, Node.ObsId, 0,
                         static_cast<uint8_t>(M));
    }
    if (ObsActive) {
      Slot.Acquires.add(ObsWeight);
      Slot.ModeCounts[static_cast<unsigned>(M)].add(ObsWeight);
    }
  }
  HeldNodes.push_back({&Node, M});
}

void ThreadLockContext::endObsAcquire() {
  AcquireEndNs = obs::nowNs();
  obs::SectionSlot &S = RT.Prof->sectionSlot(SectionTag);
  S.Entries.add(ObsWeight);
  S.Locks.add(HeldDescriptors.size() * ObsWeight);
  S.Nodes.add(HeldNodes.size() * ObsWeight);
  for (const HeldNode &H : HeldNodes)
    S.ModeCounts[static_cast<unsigned>(H.M)].add(ObsWeight);
  if (AcquireStartNs) // start timestamp is only taken when tracing
    obs::tracer().span(obs::EventKind::AcquireSpan, AcquireStartNs,
                       AcquireEndNs - AcquireStartNs, HeldNodes.size());
}

// Hold times are approximated as end-of-acquire → release for every node
// of the section; the per-node grant instants are at most the acquire
// span apart, far below the microsecond scale hold histograms resolve.
void ThreadLockContext::recordHoldTimes() {
  uint64_t Now = obs::nowNs();
  for (const HeldNode &H : HeldNodes)
    if (H.Node->ObsId)
      RT.Prof->nodeSlot(H.Node->ObsId)
          .HoldNs.recordWeighted(Now - AcquireEndNs, ObsWeight);
  // Section-level hold sum (the denominator of the adaptive engine's
  // wait/hold migration ratio), weight-corrected like the entries.
  RT.Prof->sectionSlot(SectionTag)
      .HoldNs.add((Now - AcquireEndNs) * ObsWeight);
}

void ThreadLockContext::buildCoverIndex() {
  HasGlobal = false;
  HasGlobalWrite = false;
  CoarseIndex.clear();
  FineIndex.clear();
  for (const LockDescriptor &D : HeldDescriptors) {
    switch (D.K) {
    case LockDescriptor::Kind::Global:
      HasGlobal = true;
      HasGlobalWrite |= D.Write;
      break;
    case LockDescriptor::Kind::Coarse:
      CoarseIndex.push_back({D.Region, D.Write});
      break;
    case LockDescriptor::Kind::Fine:
      FineIndex.push_back({D.Address, D.Write});
      break;
    }
  }
  std::sort(CoarseIndex.begin(), CoarseIndex.end(),
            [](const CoarseCover &A, const CoarseCover &B) {
              return A.Region < B.Region;
            });
  size_t Out = 0;
  for (size_t I = 0; I < CoarseIndex.size(); ++I) {
    if (Out > 0 && CoarseIndex[Out - 1].Region == CoarseIndex[I].Region)
      CoarseIndex[Out - 1].Write |= CoarseIndex[I].Write;
    else
      CoarseIndex[Out++] = CoarseIndex[I];
  }
  CoarseIndex.resize(Out);

  std::sort(FineIndex.begin(), FineIndex.end(),
            [](const FineCover &A, const FineCover &B) {
              return A.Address < B.Address;
            });
  Out = 0;
  for (size_t I = 0; I < FineIndex.size(); ++I) {
    if (Out > 0 && FineIndex[Out - 1].Address == FineIndex[I].Address)
      FineIndex[Out - 1].Write |= FineIndex[I].Write;
    else
      FineIndex[Out++] = FineIndex[I];
  }
  FineIndex.resize(Out);
}
