//===--- Metrics.h - Named counters and log2 histograms ---------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics registry: named monotonic counters and fixed-bucket log₂
/// histograms, registered once (registration takes a mutex; the returned
/// handle is valid for the registry's lifetime) and updated with relaxed
/// atomics. Hot paths are expected to buffer increments in per-thread
/// plain cells and flush them through a handle in one batched add — the
/// pattern the lock runtime's ThreadLockContext uses.
///
/// Exported as one JSON document (`--metrics-out=FILE`, `-` = stdout, and
/// the daemon's `metrics` op) and consumed by the lock-contention
/// profiler's human table (`--profile-locks`).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_OBS_METRICS_H
#define LOCKIN_OBS_METRICS_H

#include "support/Json.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace lockin {
namespace obs {

/// A monotonic counter. add/inc are relaxed: counters are statistics, not
/// synchronization.
class Counter {
public:
  void inc() { add(1); }
  void add(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A log₂ histogram: bucket i counts values whose bit width is i, i.e.
/// bucket 0 holds exactly 0, bucket i (i ≥ 1) holds [2^(i-1), 2^i).
/// 64 buckets cover the whole uint64_t range, so recording never clamps.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65; // bit widths 0..64

  static unsigned bucketOf(uint64_t Value) {
    return static_cast<unsigned>(std::bit_width(Value));
  }
  /// Smallest value the bucket admits (inclusive).
  static uint64_t bucketLo(unsigned Bucket) {
    return Bucket <= 1 ? 0 : (1ull << (Bucket - 1));
  }
  /// Largest value the bucket admits (inclusive).
  static uint64_t bucketHi(unsigned Bucket) {
    if (Bucket == 0)
      return 0;
    if (Bucket >= 64)
      return ~0ull;
    return (1ull << Bucket) - 1;
  }

  void record(uint64_t Value) {
    Buckets[bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
    Cnt.fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(Value, std::memory_order_relaxed);
  }
  /// Record \p Weight observations of \p Value at once (sampled inputs).
  void recordWeighted(uint64_t Value, uint64_t Weight) {
    Buckets[bucketOf(Value)].fetch_add(Weight, std::memory_order_relaxed);
    Cnt.fetch_add(Weight, std::memory_order_relaxed);
    Total.fetch_add(Value * Weight, std::memory_order_relaxed);
  }

  uint64_t count() const { return Cnt.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Total.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned Bucket) const {
    return Buckets[Bucket].load(std::memory_order_relaxed);
  }

  /// Approximate quantile: walks the buckets and returns the geometric
  /// midpoint of the one containing the \p P-quantile observation
  /// (exact for bucket 0/1; within 2x above — adequate for a log₂ scale).
  uint64_t quantile(double P) const;

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Cnt.store(0, std::memory_order_relaxed);
    Total.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Cnt{0};
  std::atomic<uint64_t> Total{0};
};

/// Registry of named metrics. Registration (counter()/histogram()) takes a
/// mutex and interns the name; updates through the returned references are
/// lock-free. Names use dotted paths ("runtime.acquire_all_calls").
class MetricsRegistry {
public:
  Counter &counter(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// {"counters":{name:n},"histograms":{name:{count,sum,p50,p95,p99,
  /// buckets}}} — names sorted, buckets sparse as [le, count] pairs. What
  /// --metrics-out writes and the daemon's `metrics` op returns.
  support::Json toJson() const;

  /// Prometheus text exposition (format 0.0.4) of the whole registry:
  /// counters as `lockin_<name>_total`, histograms as cumulative
  /// `_bucket{le="..."}` series (non-empty buckets plus "+Inf") with
  /// `_sum`/`_count`. Dotted metric names are sanitized to underscores.
  /// This is what the daemon's `metrics` request op serves, so a running
  /// service can be scraped without restart.
  void writePrometheus(std::ostream &OS) const;

  /// Zero every registered metric (benchmarks reuse one registry across
  /// phases). Handles stay valid.
  void reset();

private:
  mutable std::mutex Mu;
  // std::map: deterministic JSON key order; unique_ptr: stable addresses.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

/// The process-wide default registry (what --metrics-out exports).
MetricsRegistry &metrics();

} // namespace obs
} // namespace lockin

#endif // LOCKIN_OBS_METRICS_H
