//===--- SummaryCache.cpp - Content-hashed per-section summary cache ------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/SummaryCache.h"

#include <algorithm>

using namespace lockin;

SummaryCache::SummaryCache(size_t Capacity, size_t Shards)
    : TotalCapacity(Capacity) {
  size_t N = std::max<size_t>(1, std::min(Shards, std::max<size_t>(
                                                      1, Capacity)));
  ShardsV.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    auto S = std::make_unique<ShardT>();
    // Split capacity evenly; the first shards absorb the remainder so the
    // shares sum exactly to the configured total.
    S->Capacity = Capacity / N + (I < Capacity % N ? 1 : 0);
    ShardsV.push_back(std::move(S));
  }
}

size_t SummaryCache::shardOf(uint64_t Key) const {
  if (ShardsV.size() == 1)
    return 0;
  // Fibonacci mix: the fingerprint keys are already hashes, but the
  // multiply spreads any residual structure across the shard index bits.
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ull) >> 32) %
         ShardsV.size();
}

bool SummaryCache::lookup(uint64_t Key, SectionSummary &Out) {
  ShardT &S = *ShardsV[shardOf(Key)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Index.find(Key);
  if (It == S.Index.end()) {
    ++S.Counters.Misses;
    return false;
  }
  ++S.Counters.Hits;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Out = It->second->Value;
  return true;
}

std::shared_ptr<const std::string>
SummaryCache::ShardT::internText(std::shared_ptr<const std::string> Text,
                                 size_t &Hash) {
  if (!Text)
    return Text;
  Hash = std::hash<std::string>{}(*Text);
  auto &Bucket = TextPool[Hash];
  for (size_t I = 0; I < Bucket.size();) {
    std::shared_ptr<const std::string> Live = Bucket[I].lock();
    if (!Live) {
      Bucket[I] = Bucket.back();
      Bucket.pop_back();
      --PooledTexts;
      continue;
    }
    if (*Live == *Text) {
      ++Counters.TextPoolHits;
      return Live;
    }
    ++I;
  }
  Bucket.push_back(Text);
  ++PooledTexts;
  return Text;
}

void SummaryCache::ShardT::releaseText(EntryT &E) {
  if (!E.Value.LocksText)
    return;
  E.Value.LocksText.reset();
  auto It = TextPool.find(E.TextHash);
  if (It == TextPool.end())
    return;
  auto &Bucket = It->second;
  for (size_t I = 0; I < Bucket.size();) {
    if (Bucket[I].expired()) {
      Bucket[I] = Bucket.back();
      Bucket.pop_back();
      --PooledTexts;
      continue;
    }
    ++I;
  }
  if (Bucket.empty())
    TextPool.erase(It);
}

void SummaryCache::insert(uint64_t Key, SectionSummary Value) {
  if (TotalCapacity == 0)
    return;
  ShardT &S = *ShardsV[shardOf(Key)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Capacity == 0)
    return;
  size_t TextHash = 0;
  Value.LocksText = S.internText(std::move(Value.LocksText), TextHash);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    EntryT &E = *It->second;
    S.releaseText(E);
    E.Value = std::move(Value);
    E.TextHash = TextHash;
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  S.Lru.push_front(EntryT{Key, std::move(Value), TextHash});
  S.Index[Key] = S.Lru.begin();
  ++S.Counters.Insertions;
  while (S.Index.size() > S.Capacity) {
    S.releaseText(S.Lru.back());
    S.Index.erase(S.Lru.back().Key);
    S.Lru.pop_back();
    ++S.Counters.Evictions;
  }
}

void SummaryCache::erase(uint64_t Key) {
  ShardT &S = *ShardsV[shardOf(Key)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Index.find(Key);
  if (It == S.Index.end())
    return;
  S.releaseText(*It->second);
  S.Lru.erase(It->second);
  S.Index.erase(It);
  ++S.Counters.Invalidations;
}

void SummaryCache::clear() {
  for (auto &SP : ShardsV) {
    ShardT &S = *SP;
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Counters.Invalidations += S.Index.size();
    S.Index.clear();
    S.Lru.clear();
    S.TextPool.clear();
    S.PooledTexts = 0;
  }
}

SummaryCache::Stats SummaryCache::stats() const {
  Stats Out;
  for (size_t I = 0; I < ShardsV.size(); ++I) {
    Stats S = shardStats(I);
    Out.Hits += S.Hits;
    Out.Misses += S.Misses;
    Out.Insertions += S.Insertions;
    Out.Evictions += S.Evictions;
    Out.Invalidations += S.Invalidations;
    Out.TextPoolHits += S.TextPoolHits;
    Out.Entries += S.Entries;
    Out.PooledTexts += S.PooledTexts;
  }
  Out.Capacity = TotalCapacity;
  return Out;
}

SummaryCache::Stats SummaryCache::shardStats(size_t Shard) const {
  const ShardT &S = *ShardsV[Shard];
  std::lock_guard<std::mutex> Lock(S.Mu);
  Stats Out = S.Counters;
  Out.Entries = S.Index.size();
  Out.PooledTexts = S.PooledTexts;
  Out.Capacity = S.Capacity;
  return Out;
}
