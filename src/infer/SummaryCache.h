//===--- SummaryCache.h - Content-hashed per-section summary cache -*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental layer's persistent store: rendered per-section lock
/// summaries keyed by a 64-bit content hash. A key captures everything the
/// section's inferred lock set depends on — the normalized IR of its
/// top-level section's body and of its function outside every section
/// body, the normalized IR of every function its callee SCCs can
/// transitively call (via the condensation closure hashes), the points-to
/// region signature of that closure, and k — so a hit may be served
/// without re-running the analysis and is
/// guaranteed byte-identical to a cold run (see service/Fingerprint.h for
/// the key construction, DESIGN.md "Service & incremental analysis" for
/// the argument).
///
/// The cache is bounded: least-recently-used entries are evicted once
/// capacity is reached, so a long-lived daemon's memory stays flat under
/// edit storms. All operations are thread-safe. The store is sharded by a
/// mix of the fingerprint key — each shard owns its own mutex, LRU list,
/// text pool, and counters — so concurrent tenants hitting the daemon's
/// event loops do not serialize on one lock. Shards=1 (the default)
/// reproduces the original single-LRU behavior exactly, which the unit
/// tests and the byte-identity contract rely on; the daemon constructs
/// the sharded variant (ServerOptions::CacheShards).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INFER_SUMMARYCACHE_H
#define LOCKIN_INFER_SUMMARYCACHE_H

#include "infer/Inference.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lockin {

/// The cached value: everything needed to reproduce one section's share
/// of the tool report without an InferenceResult.
struct SectionSummary {
  /// LockSet::str() of the inferred set — the acquireAll(...) annotation
  /// and the "; section #N in F: ..." line body. Shared and immutable:
  /// the cache pools identical texts, so the thousands of sections of a
  /// megaprogram that infer the same lock set cost one string between
  /// them instead of one per entry.
  std::shared_ptr<const std::string> LocksText;
  /// Figure-7 census contribution of the set (for the census line).
  LockCensus Census;

  const std::string &text() const {
    static const std::string Empty;
    return LocksText ? *LocksText : Empty;
  }
  void setText(std::string S) {
    LocksText = std::make_shared<const std::string>(std::move(S));
  }
};

/// Bounded, thread-safe, LRU-evicting map from content-hash keys to
/// rendered section summaries, sharded by key hash.
class SummaryCache {
public:
  /// \p Capacity = max resident entries across all shards; 0 disables
  /// caching entirely (every lookup misses, inserts are dropped).
  /// \p Shards = independent mutex+LRU domains; clamped to [1, Capacity]
  /// so a tiny cache never gets zero-capacity shards.
  explicit SummaryCache(size_t Capacity, size_t Shards = 1);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t Invalidations = 0; ///< explicit erase/clear removals
    uint64_t TextPoolHits = 0;  ///< inserts served by an existing text
    size_t Entries = 0;
    /// Texts the pool tracks: the distinct texts of resident entries, plus
    /// any an evicted entry left alive elsewhere (until their bucket is
    /// visited again).
    size_t PooledTexts = 0;
    size_t Capacity = 0;
  };

  /// True and fills \p Out on a hit (refreshing recency); counts the
  /// outcome either way.
  bool lookup(uint64_t Key, SectionSummary &Out);

  /// Inserts or refreshes \p Key, evicting the shard's LRU tail past its
  /// share of capacity.
  void insert(uint64_t Key, SectionSummary Value);

  /// Drops \p Key if resident (explicit invalidation).
  void erase(uint64_t Key);

  /// Drops everything (the protocol's whole-cache invalidate).
  void clear();

  /// Aggregated over all shards: Hits/Misses/... are the sums of the
  /// per-shard counters (shardStats(i).Hits summed == stats().Hits — the
  /// sharding invariant tests pin).
  Stats stats() const;

  size_t numShards() const { return ShardsV.size(); }
  /// One shard's counters (Capacity = that shard's share).
  Stats shardStats(size_t Shard) const;

  /// The shard \p Key lands in — exposed so tests can place keys.
  size_t shardOf(uint64_t Key) const;

private:
  struct EntryT {
    uint64_t Key;
    SectionSummary Value;
    size_t TextHash = 0; ///< the pool bucket of Value.LocksText
  };

  /// One mutex domain: its own LRU, index, text pool, and counters.
  struct ShardT {
    mutable std::mutex Mu;
    size_t Capacity = 0;
    std::list<EntryT> Lru; // front = most recent
    std::unordered_map<uint64_t, std::list<EntryT>::iterator> Index;
    /// Text pool: string hash -> live texts with that hash. Weak refs so
    /// eviction actually frees the text once the last entry drops it;
    /// dropping an entry's text prunes its bucket, so dead refs (each
    /// pinning a control block) do not pile up.
    std::unordered_map<size_t,
                       std::vector<std::weak_ptr<const std::string>>>
        TextPool;
    size_t PooledTexts = 0;
    Stats Counters;

    /// Returns the pooled text equal to \p Text (pooling it if new) and
    /// sets \p Hash to its bucket.
    std::shared_ptr<const std::string>
    internText(std::shared_ptr<const std::string> Text, size_t &Hash);
    /// Drops \p E's text and prunes its bucket's expired refs, erasing
    /// the bucket once it is empty.
    void releaseText(EntryT &E);
  };

  size_t TotalCapacity;
  std::vector<std::unique_ptr<ShardT>> ShardsV;
};

} // namespace lockin

#endif // LOCKIN_INFER_SUMMARYCACHE_H
