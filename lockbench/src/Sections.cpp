//===--- Sections.cpp - The sections workload: the lock runtime on threads ------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the generated program pays per atomic section: seeded section
/// streams through rt::ThreadLockContext (toAcquire / acquireAll /
/// releaseAll) on one fresh LockRuntime, in three phases that never
/// overlap (they take turns in short rounds):
///
///  - fine: every load thread takes fine locks (90% ro, 10% rw) on its
///    own addresses, spread over a few regions all threads share. Each
///    data word sits on its own cache line, so there are no logical
///    conflicts and no data sharing: any shortfall against the 1-thread
///    rate is shared-word traffic on the root and region nodes.
///  - coarse: the same threads take coarse region locks (rw, ro, and ro
///    plus a fine rw lock, which folds to SIX) on a small set of regions
///    every thread shares. Conflicts are real; the S/X/SIX and parking
///    paths run.
///  - uncontended: one thread runs the fine stream — the fast path.
///
/// Every rw section does a plain read-modify-write of the words its lock
/// covers and tallies it privately; at the end every word must equal the
/// tallies, and each lost update counts as a failed operation.
///
/// Throughput is sampled in short slices while a phase runs, and each
/// phase reports its median slice, which keeps a host hiccup out of the
/// figure. Of the end-to-end metrics every workload reports,
/// throughput_per_s is the fine phase's sections per second, light_op_us
/// the wall time per section of the uncontended phase and heavy_op_us
/// that of the coarse phase. The traced run times acquireAll and
/// releaseAll on one section in 64 and runs each phase untraced and
/// traced, alternating which goes first, to measure the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/LockProfiler.h"
#include "obs/Metrics.h"
#include "runtime/LockRuntime.h"
#include "support/Rng.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace lockbench;
using namespace lockin;
using namespace lockin::rt;

namespace {

constexpr unsigned FineRegions = 4;
/// Enough shared regions that conflicts stay real (a section in several
/// hundred parks) without the phase becoming a convoy whose rate swings
/// with the host's scheduling from run to run.
constexpr unsigned CoarseRegions = 16;
constexpr unsigned WordsPerThread = 64;
/// Fine words inside each coarse region, written under region SIX.
constexpr unsigned SharedPerRegion = 16;
/// Sections in each thread's stream, a power of two: 256 KiB of ops, so
/// a thread's two streams stay in its CPU's own cache.
constexpr unsigned StreamLength = 1 << 12;
constexpr unsigned SampleEvery = 64;       // power of two
constexpr size_t MaxSpansPerThread = 1024;

/// One data word on its own cache line.
struct alignas(64) Word {
  uint64_t V = 0;
};

/// One pregenerated section: up to two locks, the word it reads (and
/// writes when Write is set) and, for SIX sections, a second word.
struct Op {
  LockDescriptor D[2];
  uint32_t Word[2];
  uint8_t Locks;
  bool Write;
};

enum PhaseKind { Fine, Coarse, Uncontended };
const char *const PhaseNames[] = {"fine", "coarse", "uncontended"};

struct Env {
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  std::unique_ptr<LockRuntime> RT;
  std::vector<Word> Words;
  /// Streams[Phase][Thread]; the uncontended phase reuses thread 0's fine
  /// stream.
  std::vector<std::vector<Op>> Streams[2];
  /// Per-thread increments per word, summed across phases.
  std::vector<std::vector<uint64_t>> Tally;
  unsigned Threads = 1;

  uint32_t privateWord(unsigned Thread, unsigned I) const {
    return Thread * WordsPerThread + I;
  }
  uint32_t regionWord(unsigned R) const {
    return Threads * WordsPerThread + R;
  }
  uint32_t sharedWord(unsigned R, unsigned I) const {
    return Threads * WordsPerThread + CoarseRegions + R * SharedPerRegion + I;
  }
  /// The lock address of word \p W. A fixed, cache-line-spaced layout
  /// instead of the heap address: the leaf cache and the leaf shards hash
  /// the address, and heap placement changing from run to run would move
  /// their collisions, and the throughput with them.
  static uint64_t addressOf(uint32_t W) {
    return 0x10000000ULL + uint64_t(W) * 64;
  }
};

std::unique_ptr<Env> setupEnv(uint64_t Seed, unsigned Threads) {
  auto E = std::make_unique<Env>();
  E->Threads = Threads;
  E->RT = std::make_unique<LockRuntime>(FineRegions + CoarseRegions, &E->Reg,
                                        &E->Prof);
  E->Words.resize(Threads * WordsPerThread + CoarseRegions +
                  CoarseRegions * SharedPerRegion);
  E->Tally.assign(Threads, std::vector<uint64_t>(E->Words.size(), 0));
  for (unsigned T = 0; T < Threads; ++T) {
    Rng R(Seed * 0x9e3779b97f4a7c15ULL + T);
    std::vector<Op> FineOps, CoarseOps;
    FineOps.reserve(StreamLength);
    CoarseOps.reserve(StreamLength);
    for (unsigned I = 0; I < StreamLength; ++I) {
      unsigned Idx = static_cast<unsigned>(R.below(WordsPerThread));
      uint32_t W = E->privateWord(T, Idx);
      bool Write = R.below(100) < 10;
      Op O{};
      O.D[0] = LockDescriptor::fine(Idx % FineRegions, E->addressOf(W), Write);
      O.Word[0] = W;
      O.Locks = 1;
      O.Write = Write;
      FineOps.push_back(O);
    }
    for (unsigned I = 0; I < StreamLength; ++I) {
      unsigned C = static_cast<unsigned>(R.below(CoarseRegions));
      uint32_t Region = FineRegions + C;
      unsigned Roll = static_cast<unsigned>(R.below(100));
      Op O{};
      O.Word[0] = E->regionWord(C);
      O.Locks = 1;
      if (Roll < 50) {
        O.D[0] = LockDescriptor::coarse(Region, true);
        O.Write = true;
      } else if (Roll < 80) {
        O.D[0] = LockDescriptor::coarse(Region, false);
      } else {
        // Read the region coarsely, write one of its words finely: the
        // runtime folds the pair to SIX on the region node.
        uint32_t W = E->sharedWord(
            C, static_cast<unsigned>(R.below(SharedPerRegion)));
        O.D[0] = LockDescriptor::coarse(Region, false);
        O.D[1] = LockDescriptor::fine(Region, E->addressOf(W), true);
        O.Word[1] = W;
        O.Locks = 2;
      }
      CoarseOps.push_back(O);
    }
    E->Streams[Fine].push_back(std::move(FineOps));
    E->Streams[Coarse].push_back(std::move(CoarseOps));
  }
  // Create every leaf up front, as a warmed-up program would have.
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned I = 0; I < WordsPerThread; ++I)
      E->RT->leafNode(I % FineRegions, E->addressOf(E->privateWord(T, I)));
  for (unsigned C = 0; C < CoarseRegions; ++C)
    for (unsigned I = 0; I < SharedPerRegion; ++I)
      E->RT->leafNode(FineRegions + C, E->addressOf(E->sharedWord(C, I)));
  return E;
}

struct alignas(64) Progress {
  std::atomic<uint64_t> Done{0};
};

/// What runs of one phase measured, pooled across the rounds.
struct PhaseTotals {
  std::vector<double> Rates; ///< sections/s of each kept slice
  uint64_t Sections = 0;
  std::vector<double> AcquireNs, ReleaseNs;
  uint64_t Calls = 0, Nodes = 0, LeafHits = 0, LeafMisses = 0, Parks = 0;
};

/// Runs one phase for \p Seconds with \p Threads threads, appending its
/// slice throughputs and counts to \p Out; \p Traced times one section in
/// SampleEvery.
void runPhase(Env &E, PhaseKind Kind, unsigned Threads, double Seconds,
              bool Traced, PhaseTotals &Out, SpanLog &Log) {
  const double Slice = 0.025;
  LockRuntimeStats Before = E.RT->stats();
  uint64_t ParksBefore = E.RT->parkEvents();
  std::vector<Progress> Done(Threads);
  std::vector<std::vector<double>> Acq(Threads), Rel(Threads);
  std::vector<std::vector<Span>> Spans(Threads);
  /// Sum of the words each thread read, kept so the reads stay.
  std::vector<uint64_t> Sinks(Threads);
  std::atomic<bool> Go{false}, Stop{false};
  const std::vector<std::vector<Op>> &Streams =
      E.Streams[Kind == Coarse ? Coarse : Fine];

  auto Worker = [&](unsigned T) {
    ThreadLockContext Ctx(*E.RT);
    const std::vector<Op> &S = Streams[T];
    std::vector<uint64_t> &Tally = E.Tally[T];
    Word *Words = E.Words.data();
    uint64_t Sink = 0, N = 0;
    size_t I = 0;
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    while (!Stop.load(std::memory_order_relaxed)) {
      for (unsigned B = 0; B < 64; ++B, ++N, I = (I + 1) & (StreamLength - 1)) {
        const Op &O = S[I];
        bool Sample = Traced && (N & (SampleEvery - 1)) == 0;
        for (unsigned L = 0; L < O.Locks; ++L)
          Ctx.toAcquire(O.D[L]);
        uint64_t T0 = Sample ? nowNs() : 0;
        Ctx.acquireAll();
        uint64_t T1 = Sample ? nowNs() : 0;
        if (O.Write) {
          Words[O.Word[0]].V = Words[O.Word[0]].V + 1;
          ++Tally[O.Word[0]];
        } else {
          Sink += Words[O.Word[0]].V;
        }
        if (O.Locks == 2) {
          Words[O.Word[1]].V = Words[O.Word[1]].V + 1;
          ++Tally[O.Word[1]];
        }
        uint64_t T2 = Sample ? nowNs() : 0;
        Ctx.releaseAll();
        if (Sample) {
          uint64_t T3 = nowNs();
          Acq[T].push_back(static_cast<double>(T1 - T0));
          Rel[T].push_back(static_cast<double>(T3 - T2));
          if (Spans[T].size() + 2 <= MaxSpansPerThread) {
            Spans[T].push_back({"runtime.acquire_all", N, T0, T1 - T0, T});
            Spans[T].push_back({"runtime.release_all", N, T2, T3 - T2, T});
          }
        }
      }
      Done[T].Done.store(N, std::memory_order_relaxed);
    }
    Ctx.flushStats();
    Sinks[T] = Sink;
  };

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker, T);
  auto Total = [&] {
    uint64_t Sum = 0;
    for (const Progress &P : Done)
      Sum += P.Done.load(std::memory_order_relaxed);
    return Sum;
  };
  Go.store(true, std::memory_order_release);
  // The first slice covers thread start-up and is discarded.
  Clock::time_point Start = Clock::now(), Prev = Start;
  uint64_t PrevN = 0;
  for (unsigned K = 0; K < 3 || secondsSince(Start) < Seconds; ++K) {
    std::this_thread::sleep_for(std::chrono::duration<double>(Slice));
    Clock::time_point Now = Clock::now();
    uint64_t N = Total();
    if (K > 0)
      Out.Rates.push_back(static_cast<double>(N - PrevN) /
                          std::chrono::duration<double>(Now - Prev).count());
    Prev = Now;
    PrevN = N;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Pool)
    T.join();

  LockRuntimeStats After = E.RT->stats();
  Out.Sections += Total();
  Out.Calls += After.AcquireAllCalls - Before.AcquireAllCalls;
  Out.Nodes += After.NodeAcquisitions - Before.NodeAcquisitions;
  Out.LeafHits += After.LeafCacheHits - Before.LeafCacheHits;
  Out.LeafMisses += After.LeafCacheMisses - Before.LeafCacheMisses;
  Out.Parks += E.RT->parkEvents() - ParksBefore;
  for (unsigned T = 0; T < Threads; ++T) {
    Out.AcquireNs.insert(Out.AcquireNs.end(), Acq[T].begin(), Acq[T].end());
    Out.ReleaseNs.insert(Out.ReleaseNs.end(), Rel[T].begin(), Rel[T].end());
    Log.merge(Spans[T]);
  }
}

} // namespace

void lockbench::runSections(const Config &C, Result &R, SpanLog &Log) {
  const unsigned Threads = loadThreads();
  std::unique_ptr<Env> E;
  double SetupS = medianSetupSeconds(
      51, [&] { E.reset(); }, [&] { E = setupEnv(C.Seed, Threads); });
  R.note("threads", Threads);
  const double RssMb = peakRssMb();

  // The phases run one after another in short rounds rather than once
  // each, so a slow spell on the host lands on every phase's slices alike
  // and the median slice of each phase spans the whole run.
  const unsigned Rounds = C.Tiny ? 2 : 10;
  const double PerRun = C.Seconds / (3.0 * Rounds);
  PhaseTotals Plain[3], Traced[3];
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (PhaseKind Kind : {Fine, Coarse, Uncontended}) {
      unsigned N = Kind == Uncontended ? 1 : Threads;
      if (!C.Trace) {
        runPhase(*E, Kind, N, PerRun, false, Plain[Kind], Log);
        continue;
      }
      // Untraced and traced halves, alternating which goes first.
      bool TracedFirst = Round % 2 == 1;
      for (bool T : {TracedFirst, !TracedFirst})
        runPhase(*E, Kind, N, PerRun / 2, T, T ? Traced[Kind] : Plain[Kind],
                 Log);
    }
  }
  for (unsigned P = 0; P < 3; ++P)
    R.Attempted += Plain[P].Sections + Traced[P].Sections;

  // Every word must equal the sum of the increments the threads made.
  if (C.Inject == Fault::CorruptWord)
    E->Words[E->regionWord(0)].V += 1;
  for (uint32_t W = 0; W < E->Words.size(); ++W) {
    uint64_t Expected = 0;
    for (const auto &T : E->Tally)
      Expected += T[W];
    uint64_t Got = E->Words[W].V;
    if (Got != Expected)
      R.fail("word " + std::to_string(W) + " holds " + std::to_string(Got) +
                 " after " + std::to_string(Expected) + " increments",
             Got > Expected ? Got - Expected : Expected - Got);
  }

  if (!C.Trace) {
    R.add("setup_s", SetupS, "s");
    R.add("throughput_per_s", median(Plain[Fine].Rates), "1/s");
    R.add("light_op_us", 1e6 / median(Plain[Uncontended].Rates), "us");
    R.add("heavy_op_us", 1e6 / median(Plain[Coarse].Rates), "us");
    R.add("peak_rss_mb", RssMb, "MiB");

    return;
  }
  double Overhead = 0;
  for (unsigned P = 0; P < 3; ++P) {
    const PhaseTotals &X = Traced[P];
    std::string Prefix = std::string("runtime.") + PhaseNames[P] + ".";
    double Calls = static_cast<double>(std::max<uint64_t>(1, X.Calls));
    R.add(Prefix + "acquire_ns", median(X.AcquireNs), "ns");
    R.add(Prefix + "release_ns", median(X.ReleaseNs), "ns");
    R.add(Prefix + "node_acquisitions_per_section",
          static_cast<double>(X.Nodes) / Calls, "count");
    R.add(Prefix + "leaf_cache_hit_ratio",
          static_cast<double>(X.LeafHits) /
              static_cast<double>(std::max<uint64_t>(1, X.LeafHits +
                                                            X.LeafMisses)),
          "ratio");
    if (P == Coarse)
      R.add(Prefix + "park_events_per_1k",
            1000.0 * static_cast<double>(X.Parks) / Calls, "count");
    Overhead += (median(Plain[P].Rates) / median(X.Rates) - 1.0) * 100.0 / 3;
  }
  double FineRate = median(Traced[Fine].Rates);
  double Base = median(Traced[Uncontended].Rates);
  R.add("runtime.scaling", FineRate / Base, "ratio");
  R.add("runtime.scaling_base", Base, "1/s");
  R.add("trace_overhead_pct", Overhead, "%");
}
