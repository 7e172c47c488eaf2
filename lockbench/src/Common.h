//===--- Common.h - Shared plumbing of the lockbench workloads --*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration parsed from the
/// command line, the result (metrics, attempted/failed counts, failure
/// reasons), percentile helpers, and the in-memory span log the traced
/// run records around each call the benchmark makes into a layer.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKBENCH_COMMON_H
#define LOCKBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lockbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Nearest-rank quantile of \p V (0 for an empty sample).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(Idx, V.size() - 1)];
}
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Injected faults for the benchmark's own tests: each makes exactly one
/// correctness check see a wrong value, so the test can prove the check
/// fails the run.
enum class Fault { None, WrongGolden, CorruptWord, RepeatEdit };

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and short phases; used by the benchmark's own tests.
  bool Tiny = false;
  Fault Inject = Fault::None;
  /// Root of the source tree (golden inputs are read from it).
  std::string Root = ".";
  /// Directory for the span log, the run records and the daemon socket;
  /// relative, which keeps the socket path short wherever the tree lives.
  std::string OutDir = ".lockbench";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;
  /// Facts about the run (sample counts, input sizes) for the record.
  std::vector<std::pair<std::string, double>> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Name, double Value) {
    Notes.emplace_back(std::move(Name), Value);
  }
  /// Counts \p N failed operations and keeps the first few reasons.
  void fail(const std::string &Why, uint64_t N = 1) {
    Failed += N;
    if (Failures.size() < 16)
      Failures.push_back(Why);
  }
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One timed call into a layer. Spans of one daemon request share Id;
/// compile spans carry the pass number.
struct Span {
  const char *Name;
  uint64_t Id;
  uint64_t StartNs;
  uint64_t DurNs;
  uint32_t Thread;
};

/// In-memory span store: each thread appends to its own buffer and hands
/// it over once (merge); the whole log is written out when the run ends.
class SpanLog {
public:
  void merge(std::vector<Span> &Buffer) {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.insert(Spans.end(), Buffer.begin(), Buffer.end());
    Buffer.clear();
  }
  /// Writes the spans as a Chrome trace (one complete event each).
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// Times one call into a layer: appends a span to \p Buffer (when the run
/// is traced) and returns the call's wall time in milliseconds.
template <typename Fn>
double timedCall(std::vector<Span> *Buffer, const char *Name, uint64_t Id,
                 Fn &&Body, uint32_t Thread = 0) {
  uint64_t Start = nowNs();
  Body();
  uint64_t Dur = nowNs() - Start;
  if (Buffer)
    Buffer->push_back({Name, Id, Start, Dur, Thread});
  return static_cast<double>(Dur) / 1e6;
}

/// Threads the load generators may use: CPUs this process may run on,
/// capped at 4.
unsigned loadThreads();

/// Peak resident set of this process (VmHWM) in MiB. The workloads read
/// it when their timed window starts, for the peak_rss_mb metric.
double peakRssMb();

/// Runs \p Setup \p Reps times and returns the median wall time (the
/// setup_s metric). Before each call, \p Reset tears down the previous
/// call's state outside the timer, so setup_s never counts shutdown or
/// destructors. The last call's state is the one the run keeps. A set-up
/// takes milliseconds and one stall on the host can double it, so the
/// workloads repeat it some fifty times.
template <typename ResetFn, typename SetupFn>
double medianSetupSeconds(unsigned Reps, ResetFn &&Reset, SetupFn &&Setup) {
  std::vector<double> Times;
  for (unsigned I = 0; I < Reps; ++I) {
    Reset();
    Clock::time_point T0 = Clock::now();
    Setup();
    Times.push_back(secondsSince(T0));
  }
  return median(Times);
}

/// The three workloads; each fills \p R, and appends spans to \p Log when
/// the run is traced.
void runCold(const Config &C, Result &R, SpanLog &Log);
void runDaemon(const Config &C, Result &R, SpanLog &Log);
void runSections(const Config &C, Result &R, SpanLog &Log);

} // namespace lockbench

#endif // LOCKBENCH_COMMON_H
