//===--- PassManager.cpp - Named pipeline passes and their stats ---------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "driver/PassManager.h"

#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"

#include <cstdio>

using namespace lockin;

void PassManager::record(std::string Name,
                         std::chrono::steady_clock::time_point Start) {
  auto End = std::chrono::steady_clock::now();
  double Seconds = std::chrono::duration<double>(End - Start).count();
  if constexpr (obs::kEnabled) {
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count());
    obs::MetricsRegistry &Reg = Metrics ? *Metrics : obs::metrics();
    Reg.counter("pass." + Name + ".ns").add(Ns);
    obs::Tracer &T = Trace ? *Trace : obs::tracer();
    if (T.enabled()) {
      uint64_t EndNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              End.time_since_epoch())
              .count());
      T.span(obs::EventKind::PassSpan, EndNs - Ns, Ns, T.internName(Name));
    }
  }
  Timings.push_back(PassTiming{std::move(Name), Seconds});
}

double PipelineStats::totalSeconds() const {
  double Total = 0;
  for (const PassTiming &P : Passes)
    Total += P.Seconds;
  return Total;
}

double PipelineStats::passSeconds(std::string_view Name) const {
  for (const PassTiming &P : Passes)
    if (P.Name == Name)
      return P.Seconds;
  return 0;
}

std::string PipelineStats::renderTimings() const {
  std::string Out = "; pass timings:\n";
  char Line[128];
  for (const PassTiming &P : Passes) {
    std::snprintf(Line, sizeof(Line), ";   %-10s %10.6fs\n",
                  P.Name.c_str(), P.Seconds);
    Out += Line;
  }
  std::snprintf(Line, sizeof(Line), ";   %-10s %10.6fs\n", "total",
                totalSeconds());
  Out += Line;
  return Out;
}

std::string PipelineStats::renderStats() const {
  if (!HasInference)
    return std::string();
  const InferenceStats &S = Inference;
  char Line[256];
  std::string Out;
  std::snprintf(Line, sizeof(Line),
                "; stats: functions=%u reachable=%u sccs=%u "
                "recursive-sccs=%u depth=%u sections=%u jobs=%u\n",
                S.Functions, S.ReachableFunctions, S.Sccs, S.RecursiveSccs,
                S.CondensationDepth, S.Sections, S.JobsUsed);
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "; summaries: entries=%llu evaluations=%llu "
                "fixpoint-rounds=%llu final-hits=%llu peak-locks=%llu\n",
                static_cast<unsigned long long>(S.Summaries.Entries),
                static_cast<unsigned long long>(S.Summaries.Evaluations),
                static_cast<unsigned long long>(S.Summaries.SccFixpointRounds),
                static_cast<unsigned long long>(S.Summaries.FinalHits),
                static_cast<unsigned long long>(S.Summaries.PeakEntryLocks));
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "; interner: nodes=%llu hits=%llu deduped=%llu "
                "arena-bytes=%llu\n",
                static_cast<unsigned long long>(S.InternerNodes),
                static_cast<unsigned long long>(S.InternerHits),
                static_cast<unsigned long long>(S.Summaries.Deduped),
                static_cast<unsigned long long>(S.ArenaBytes));
  Out += Line;
  if (HasCheck) {
    std::snprintf(Line, sizeof(Line),
                  "; check: findings=%u mhp-pairs=%llu elided=%u "
                  "bare-accesses=%u spawn-sites=%u\n",
                  Check.Findings,
                  static_cast<unsigned long long>(Check.MhpPairs),
                  Check.ElidedSections, Check.BareAccesses,
                  Check.SpawnSites);
    Out += Line;
  }
  return Out;
}
