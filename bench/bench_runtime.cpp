//===--- bench_runtime.cpp - Lock runtime microbenchmark -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the §5 runtime itself, independent of any workload data
/// structure: raw LockNode acquire/release cycles (the fast path the
/// atomic-word rewrite targets) and full sections — toAcquire /
/// acquireAll / body / releaseAll over real data words — across thread
/// counts and access mixes, with and without the contention-adaptive
/// engine driving the run. Emits machine-readable JSON (default
/// `BENCH_runtime.json`) so the performance trajectory of the runtime is
/// tracked from PR to PR.
///
/// Scenarios:
///   uncontended_node_{S,X}  one thread, one LockNode, acquire+release
///   uncontended_section     one thread, one fine rw lock per section
///   elision                 the same stream locked vs lock-elided (the
///                           MHP never-parallel transform), paired legs
///   read_mostly             90% fine ro / 10% fine rw, 256 addresses
///   write_heavy             30% fine ro / 70% fine rw, 256 addresses
///   mixed_grain             60% fine, 30% coarse ro, 10% coarse rw
///   stripe_scaling          100% fine rw over 8192 addresses, 1 region
///                           (leaf-pressure case the stripe escalation
///                           targets: the 256-entry per-thread leaf
///                           cache misses almost always)
///
/// Each multi-threaded scenario runs at 1, 4, and 16 threads, adaptive
/// off and on, and reports throughput (sections/s) plus p50/p99
/// per-section latency. Adaptive rows run an untimed warmup first so the
/// policy ladder converges before measurement, and report the final
/// backend and striped-region count the policy settled on. Rows also
/// carry an `oversubscribed` flag (threads > hardware concurrency) so a
/// single-core container's 16-thread rows are not misread as scaling
/// results.
///
//===----------------------------------------------------------------------===//

#include "obs/LockProfiler.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "runtime/Adaptive.h"
#include "runtime/LockRuntime.h"
#include "stm/Tl2.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::rt;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps the benched data accesses from being optimized away.
std::atomic<uint64_t> GlobalSink{0};

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

struct Result {
  std::string Scenario;
  unsigned Threads = 1;
  bool Adaptive = false;
  bool Elided = false;
  bool Oversubscribed = false;
  uint64_t Ops = 0;
  double ThroughputOpsPerSec = 0;
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  /// Adaptive rows only: where the policy ended up. -1 = n/a.
  int FinalBackend = -1; ///< 0 = lock, 1 = stm
  unsigned StripedRegions = 0;
  uint64_t StmMigrations = 0;
  uint64_t StmFallbacks = 0;
};

uint64_t percentile(std::vector<uint64_t> &Samples, double P) {
  if (Samples.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Samples.size() - 1));
  std::nth_element(Samples.begin(), Samples.begin() + Idx, Samples.end());
  return Samples[Idx];
}

/// Median-throughput of three runs: single runs on an oversubscribed
/// container are bimodal (a parking convoy forms or it doesn't), and the
/// adaptive-on/off comparison needs rows stable to a few percent.
/// Scheduler convoys on oversubscribed rows are bistable from run to
/// run, so single-shot numbers are useless; report the median rep.
Result medianResult(std::vector<Result> Rs) {
  std::sort(Rs.begin(), Rs.end(), [](const Result &X, const Result &Y) {
    return X.ThroughputOpsPerSec < Y.ThroughputOpsPerSec;
  });
  return Rs[Rs.size() / 2];
}

/// Raw single-node acquire/release pairs: the uncontended fast path.
Result benchUncontendedNode(Mode M, const char *Name, uint64_t Ops) {
  LockNode Node;
  // Warm up.
  for (unsigned I = 0; I < 1000; ++I) {
    Node.acquire(M);
    Node.release(M);
  }
  auto Start = Clock::now();
  for (uint64_t I = 0; I < Ops; ++I) {
    Node.acquire(M);
    Node.release(M);
  }
  auto End = Clock::now();
  double Secs = std::chrono::duration<double>(End - Start).count();
  Result R;
  R.Scenario = Name;
  R.Ops = Ops;
  R.ThroughputOpsPerSec = static_cast<double>(Ops) / Secs;
  uint64_t AvgNs = static_cast<uint64_t>(Secs * 1e9 / static_cast<double>(Ops));
  R.P50Ns = R.P99Ns = AvgNs; // per-pair timing would dominate; report mean
  return R;
}

/// One full section per op. Mix: percentage split between fine ro /
/// fine rw / coarse ro / coarse rw.
struct Mix {
  unsigned FineRo = 0, FineRw = 0, CoarseRo = 0, CoarseRw = 0; // sums to 100
};

/// One pregenerated section: the lock it declares and the data word it
/// touches (fine ops index Words, coarse ops index RegionWords).
struct Op {
  LockDescriptor D;
  uint32_t Idx;
};

Result benchSections(const char *Name, unsigned NumThreads, Mix M,
                     uint64_t OpsPerThread, unsigned NumAddrs = 256,
                     bool Adaptive = false, bool ObsOn = false,
                     unsigned NumRegions = 4, bool Elided = false) {
  constexpr uint64_t LatSampleEvery = 16; // power of two
  // Inject a local registry + profiler so both the obs-off and obs-on
  // variants run the same code path (dormant-profiler check included)
  // and the measurement doesn't pollute the process-global registry.
  // The adaptive engine arms/disarms this same profiler on its duty
  // cycle.
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  if (ObsOn)
    Prof.setEnabled(true);
  LockRuntime RT(NumRegions, &Reg, &Prof);
  stm::Stm StmRt;

  // Every section of the run is one migration domain (they all touch the
  // same address pool, so they are trivially closed under data overlap).
  // Count-based epochs keep the bench deterministic per op count; the
  // warmup below gives the ladder plenty of ticks to converge.
  std::unique_ptr<adaptive::AdaptiveEngine> Eng;
  uint32_t Dom = 0;
  if (Adaptive) {
    adaptive::AdaptiveConfig AC;
    // Rare enough that the dormant-tick cost and the armed node walk
    // stay out of the per-section budget at 1 thread; the warmup below
    // still provides tens of ticks for convergence.
    AC.EveryNSections = 1024;
    Eng = std::make_unique<adaptive::AdaptiveEngine>(RT, AC);
    Dom = Eng->addDomain();
    Eng->bindSection(Dom, /*SectionTag=*/1);
  }

  // The data the sections actually read and write: one word per fine
  // address, one per region for the coarse ops. Lock-mode sections use
  // plain accesses (the locks serialize them); STM-mode sections route
  // through the transaction. The drain gate guarantees the two regimes
  // never overlap.
  std::vector<uint64_t> Words(NumAddrs, 1);
  std::vector<uint64_t> RegionWords(NumRegions, 1);

  std::vector<std::vector<uint64_t>> Lat(NumThreads);

  // Pregenerate each thread's op stream so the timed loop measures the
  // runtime, not the RNG.
  std::vector<std::vector<Op>> Streams(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    Rng R(0xbead + T);
    std::vector<Op> &S = Streams[T];
    S.reserve(OpsPerThread);
    for (uint64_t I = 0; I < OpsPerThread; ++I) {
      uint32_t Idx = static_cast<uint32_t>(R.below(NumAddrs));
      uint64_t Addr = 0x1000 + uint64_t(Idx) * 8;
      uint32_t Region = Idx % NumRegions;
      unsigned Roll = static_cast<unsigned>(R.below(100));
      if (Roll < M.FineRo)
        S.push_back({LockDescriptor::fine(Region, Addr, false), Idx});
      else if (Roll < M.FineRo + M.FineRw)
        S.push_back({LockDescriptor::fine(Region, Addr, true), Idx});
      else if (Roll < M.FineRo + M.FineRw + M.CoarseRo)
        S.push_back({LockDescriptor::coarse(Region, false), Region});
      else
        S.push_back({LockDescriptor::coarse(Region, true), Region});
    }
  }

  // Adaptive rows converge the policy before the clock starts: warmup
  // ops run the full section protocol untimed, then every thread parks
  // at the start line.
  const uint64_t WarmupOps =
      Adaptive ? std::min<uint64_t>(OpsPerThread, 32768) : 0;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      ThreadLockContext Ctx(RT);
      uint32_t Slot = 0;
      adaptive::AdaptiveEngine::Gate Gate;
      if (Eng) {
        Slot = Eng->registerThread();
        Gate = Eng->gate(Slot, Dom);
        Ctx.setSectionTag(1); // feed the domain's wait/hold stats
      }
      const std::vector<Op> &S = Streams[T];
      std::vector<uint64_t> &MyLat = Lat[T];
      MyLat.reserve(OpsPerThread / LatSampleEvery + 1);
      uint64_t Sink = 0;

      auto LockBody = [&](const Op &O) {
        // An elided section is the transformed program of a
        // never-parallel section: same body, no lock protocol.
        if (!Elided) {
          Ctx.toAcquire(O.D);
          Ctx.acquireAll();
        }
        if (O.D.K == LockDescriptor::Kind::Fine) {
          if (O.D.Write)
            ++Words[O.Idx];
          else
            Sink += Words[O.Idx];
        } else {
          if (O.D.Write)
            ++RegionWords[O.Idx];
          else
            Sink += RegionWords[O.Idx];
        }
        if (!Elided)
          Ctx.releaseAll();
      };
      auto RunOne = [&](const Op &O) {
        if (!Eng) {
          LockBody(O);
          return;
        }
        Eng->maybeTick(Gate);
        adaptive::Backend B = Eng->enter(Gate);
        if (B == adaptive::Backend::Stm) {
          uint64_t *W = O.D.K == LockDescriptor::Kind::Fine
                            ? &Words[O.Idx]
                            : &RegionWords[O.Idx];
          unsigned Aborts = StmRt.atomically([&](stm::Transaction &Tx) {
            if (O.D.Write)
              Tx.write(W, Tx.read(W) + 1);
            else
              Sink += Tx.read(W);
          });
          Eng->noteStm(Dom, 1, Aborts);
        } else {
          LockBody(O);
        }
        Eng->exit(Gate);
      };

      for (uint64_t I = 0; I < WarmupOps; ++I)
        RunOne(S[I % S.size()]);
      Ready.fetch_add(1, std::memory_order_release);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();

      for (uint64_t I = 0; I < OpsPerThread; ++I) {
        // Sample latency sparsely so the clock reads don't dominate the
        // throughput measurement (a clock_gettime pair costs more than
        // an uncontended section).
        bool Sample = (I & (LatSampleEvery - 1)) == 0;
        Clock::time_point T0;
        if (Sample)
          T0 = Clock::now();
        RunOne(S[I]);
        if (Sample)
          MyLat.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - T0)
                  .count()));
      }
      GlobalSink.fetch_add(Sink, std::memory_order_relaxed);
      if (Eng)
        Eng->unregisterThread(Slot);
    });
  }
  while (Ready.load(std::memory_order_acquire) < NumThreads)
    std::this_thread::yield();
  auto Start = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  auto End = Clock::now();
  double Secs = std::chrono::duration<double>(End - Start).count();

  std::vector<uint64_t> All;
  All.reserve(NumThreads * (OpsPerThread / LatSampleEvery + 1));
  for (std::vector<uint64_t> &L : Lat)
    All.insert(All.end(), L.begin(), L.end());
  Result R;
  R.Scenario = Name;
  R.Threads = NumThreads;
  R.Adaptive = Adaptive;
  R.Elided = Elided;
  R.Oversubscribed = NumThreads > hardwareThreads();
  R.Ops = static_cast<uint64_t>(NumThreads) * OpsPerThread;
  R.ThroughputOpsPerSec = static_cast<double>(R.Ops) / Secs;
  R.P50Ns = percentile(All, 0.50);
  R.P99Ns = percentile(All, 0.99);
  if (Eng) {
    R.FinalBackend = static_cast<int>(Eng->domainBackend(Dom));
    for (unsigned Rg = 0; Rg < NumRegions; ++Rg)
      if (RT.regionLayout(Rg))
        ++R.StripedRegions;
    R.StmMigrations = Reg.counter("adaptive.stm_migrations").value();
    R.StmFallbacks = Reg.counter("adaptive.stm_fallbacks").value();
  }
  return R;
}

/// Instrumentation overhead on one scenario: the same workload run with
/// the lock profiler dormant vs armed, paired and order-debiased.
struct ObsOverhead {
  std::string Scenario;
  double NsPerOpOff = 0;
  double NsPerOpOn = 0;
  double OverheadPct = 0;
};

ObsOverhead measureObsOverhead(const char *Name, unsigned NumThreads, Mix M,
                               uint64_t OpsPerThread, unsigned NumAddrs) {
  // Many short legs, off/on order alternating rep to rep, overhead from
  // the ratio of the pooled per-leg medians. Per-rep on/off ratios look
  // attractive but are a trap here: the box's effective clock swings on
  // a timescale SHORTER than one leg, so the two legs of a rep are no
  // more comparable than any two legs, and a median over N/2 noisy
  // ratios loses to a median over N balanced-order leg samples. The
  // alternation keeps each pool position-balanced (first legs run on
  // the hotter clock), which is what makes the pooled medians unbiased.
  constexpr int Reps = 24; // legs are ~20ms; generous reps are cheap
  std::vector<double> OffNs, OnNs;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    bool OnFirst = Rep & 1;
    for (int Leg = 0; Leg < 2; ++Leg) {
      bool On = (Leg == 0) == OnFirst;
      Result R = benchSections(Name, NumThreads, M, OpsPerThread, NumAddrs,
                               /*Adaptive=*/false, On);
      (On ? OnNs : OffNs).push_back(1e9 / R.ThroughputOpsPerSec);
    }
  }
  auto Median = [](std::vector<double> &V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return V[V.size() / 2];
  };
  ObsOverhead O;
  O.Scenario = Name;
  O.NsPerOpOff = Median(OffNs);
  O.NsPerOpOn = Median(OnNs);
  O.OverheadPct = (O.NsPerOpOn / O.NsPerOpOff - 1.0) * 100.0;
  return O;
}

bool emitJson(const std::vector<Result> &Results,
              const std::vector<ObsOverhead> &Overheads,
              const std::string &Path) {
  using support::Json;
  Json Rows = Json::array();
  for (const Result &R : Results) {
    Json &Row = Rows.push(Json::object(
        {{"scenario", Json::string(R.Scenario)},
         {"threads", Json::integer(R.Threads)},
         {"adaptive", Json::boolean(R.Adaptive)},
         {"elided", Json::boolean(R.Elided)},
         {"oversubscribed", Json::boolean(R.Oversubscribed)},
         {"ops", Json::uinteger(R.Ops)},
         {"throughput_ops_per_sec", Json::number(R.ThroughputOpsPerSec)},
         {"p50_ns", Json::uinteger(R.P50Ns)},
         {"p99_ns", Json::uinteger(R.P99Ns)}}));
    if (R.FinalBackend >= 0) {
      Row.set("final_backend",
              Json::string(R.FinalBackend == 1 ? "stm" : "lock"));
      Row.set("striped_regions", Json::integer(R.StripedRegions));
    }
  }
  Json Doc = Json::object(
      {{"bench", Json::string("runtime")},
       {"schema", Json::integer(3)},
       {"hw_concurrency", Json::integer(hardwareThreads())},
       {"note",
        Json::string("RelWithDebInfo; rows with oversubscribed=true ran "
                     "more threads than hardware threads; adaptive rows "
                     "warm up untimed until the policy converges and "
                     "report the final backend; elided=true rows run the "
                     "section body with the lock protocol removed (MHP "
                     "never-parallel elision); obs_overhead = lock "
                     "profiler armed vs dormant, median of "
                     "order-alternated paired reps")}});
  Doc.set("results", std::move(Rows));
  if (!Overheads.empty()) {
    Doc.set("obs_enabled", Json::boolean(obs::kEnabled));
    Json &List = Doc.set("obs_overhead", Json::array());
    for (const ObsOverhead &O : Overheads)
      List.push(Json::object({{"scenario", Json::string(O.Scenario)},
                              {"ns_per_op_off", Json::number(O.NsPerOpOff)},
                              {"ns_per_op_on", Json::number(O.NsPerOpOn)},
                              {"overhead_pct", Json::number(O.OverheadPct)}}));
  }
  return support::writeJsonFile(Path, Doc);
}

} // namespace

int main(int Argc, char **Argv) {
  // Policy decisions are logged at info; keep them off the bench output.
  obs::log().setLevel(obs::LogLevel::Warn);
  std::string OutPath = "BENCH_runtime.json";
  uint64_t Scale = 1;   // divide op counts, for smoke runs
  bool WithObs = false; // also measure instrumentation overhead
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--out") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench_runtime: --out requires a path\n");
        return 2;
      }
      OutPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--quick") == 0) {
      Scale = 20;
    } else if (std::strcmp(Argv[I], "--with-obs") == 0) {
      WithObs = true;
    } else {
      std::fprintf(stderr, "bench_runtime: unknown option '%s'\n", Argv[I]);
      std::fprintf(stderr,
                   "usage: bench_runtime [--quick] [--with-obs] [--out "
                   "<path>]\n");
      return 2;
    }
  }

  std::vector<Result> Results;
  std::printf("%-20s %8s %9s %12s %16s %10s %10s %s\n", "scenario", "threads",
              "adaptive", "ops", "ops/sec", "p50(ns)", "p99(ns)", "policy");
  auto Report = [&](Result R) {
    char Policy[64] = "";
    if (R.FinalBackend >= 0)
      std::snprintf(Policy, sizeof(Policy), "%s, %u striped, mig=%llu fb=%llu",
                    R.FinalBackend == 1 ? "stm" : "lock", R.StripedRegions,
                    static_cast<unsigned long long>(R.StmMigrations),
                    static_cast<unsigned long long>(R.StmFallbacks));
    else if (R.Elided)
      std::snprintf(Policy, sizeof(Policy), "elided");
    std::printf("%-20s %8u %9s %12llu %16.0f %10llu %10llu %s\n",
                R.Scenario.c_str(), R.Threads, R.Adaptive ? "on" : "off",
                static_cast<unsigned long long>(R.Ops), R.ThroughputOpsPerSec,
                static_cast<unsigned long long>(R.P50Ns),
                static_cast<unsigned long long>(R.P99Ns), Policy);
    Results.push_back(std::move(R));
  };

  Report(benchUncontendedNode(Mode::S, "uncontended_node_S", 2000000 / Scale));
  Report(benchUncontendedNode(Mode::X, "uncontended_node_X", 2000000 / Scale));
  // A 16-address hot set: the steady-state repeat-section case the
  // per-thread leaf cache targets.
  Report(benchSections("uncontended_section", 1, Mix{0, 100, 0, 0},
                       400000 / Scale, 16));

  // MHP-driven lock elision: the same single-thread section stream run
  // with the full protocol vs with acquire/release removed — what the
  // transform emits for a section the checker proves never parallel
  // with any conflicting code. Paired order-alternated legs, median
  // rep, like the adaptive rows.
  {
    std::vector<Result> Locked, ElidedRs;
    for (unsigned R = 0; R < 24; ++R) {
      bool ElidedFirst = R & 1;
      for (int Leg = 0; Leg < 2; ++Leg) {
        bool E = (Leg == 0) == ElidedFirst;
        (E ? ElidedRs : Locked)
            .push_back(benchSections("elision", 1, Mix{0, 100, 0, 0},
                                     400000 / Scale, 16, /*Adaptive=*/false,
                                     /*ObsOn=*/false, /*NumRegions=*/4,
                                     /*Elided=*/E));
      }
    }
    Report(medianResult(std::move(Locked)));
    Report(medianResult(std::move(ElidedRs)));
  }

  const Mix ReadMostly{90, 10, 0, 0};
  const Mix WriteHeavy{30, 70, 0, 0};
  const Mix MixedGrain{40, 20, 30, 10};
  const Mix AllFineRw{0, 100, 0, 0};
  // The adaptive-off and adaptive-on legs of every row run back to back
  // within each rep: the effective clock of a shared box drifts minute
  // to minute, so legs measured side by side are the only comparable
  // ones. Within-rep drift still penalizes whichever leg runs second
  // (turbo decays over a rep), so the leg ORDER alternates rep to rep
  // and the rep count is even — each leg's median samples first and
  // second position equally, cancelling the order bias.
  auto ReportPaired = [&](const char *Name, unsigned Threads, Mix M,
                          uint64_t PerThread, unsigned NumAddrs,
                          unsigned NumRegions, unsigned Reps) {
    std::vector<Result> Off, On;
    for (unsigned R = 0; R < Reps; ++R) {
      bool OnFirst = R & 1;
      for (int Leg = 0; Leg < 2; ++Leg) {
        bool Adaptive = (Leg == 0) == OnFirst;
        (Adaptive ? On : Off)
            .push_back(benchSections(Name, Threads, M, PerThread, NumAddrs,
                                     Adaptive, /*ObsOn=*/false, NumRegions));
      }
    }
    Report(medianResult(std::move(Off)));
    Report(medianResult(std::move(On)));
  };

  for (unsigned Threads : {1u, 4u, 16u}) {
    uint64_t PerThread = 200000 / Threads / Scale;
    // Even, so leg order stays balanced. The 1-thread rows gate the
    // "adaptation costs <=3% uncontended" budget and their legs are the
    // cheapest, so they get double the samples.
    unsigned Reps = Threads == 1 ? 24 : 12;
    ReportPaired("read_mostly", Threads, ReadMostly, PerThread, 256, 4, Reps);
    ReportPaired("write_heavy", Threads, WriteHeavy, PerThread, 256, 4, Reps);
    ReportPaired("mixed_grain", Threads, MixedGrain, PerThread, 256, 4, Reps);
    ReportPaired("stripe_scaling", Threads, AllFineRw, PerThread, 8192, 1,
                 Reps);
  }

  std::vector<ObsOverhead> Overheads;
  if (WithObs) {
    if (!obs::kEnabled)
      std::fprintf(stderr, "bench_runtime: note: built with LOCKIN_OBS=OFF; "
                           "--with-obs measures the compiled-out stubs\n");
    std::printf("\n%-24s %14s %14s %10s\n", "obs overhead", "off(ns/op)",
                "on(ns/op)", "pct");
    auto ReportObs = [&](ObsOverhead O) {
      std::printf("%-24s %14.1f %14.1f %+9.2f%%\n", O.Scenario.c_str(),
                  O.NsPerOpOff, O.NsPerOpOn, O.OverheadPct);
      Overheads.push_back(std::move(O));
    };
    // Both legs run single-threaded: the overhead being budgeted is the
    // per-op instrumentation cost, and multi-thread legs on an
    // oversubscribed box fold bistable scheduler convoys into whichever
    // leg the convoy lands on, swamping a few-ns delta.
    ReportObs(measureObsOverhead("uncontended_section", 1, Mix{0, 100, 0, 0},
                                 400000 / Scale, 16));
    ReportObs(measureObsOverhead("read_mostly", 1, ReadMostly,
                                 200000 / Scale, 256));
  }

  if (!emitJson(Results, Overheads, OutPath))
    return 1;
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
