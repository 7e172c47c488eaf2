//===--- Hash.h - Stable content hashing for cache keys ---------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming 64-bit hash behind the incremental summary cache keys.
/// It takes 8 bytes per step (an unaligned load and the MurmurHash64A
/// word mix) and finishes a call's last 0-7 bytes one at a time. The
/// hashes are stable across processes and runs on hosts of one byte
/// order (they depend only on the bytes fed in and the order of the
/// calls), which is what makes content-addressed cache keys meaningful
/// for a long-lived daemon.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_HASH_H
#define LOCKIN_SERVICE_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace lockin {
namespace service {

/// Incremental word-at-a-time content hasher.
class ContentHasher {
public:
  static constexpr uint64_t Seed = 0x9e3779b97f4a7c15ull;
  static constexpr uint64_t M = 0xc6a4a7935bd1e995ull;
  static constexpr int R = 47;

  void bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    uint64_t Hash = H;
    for (; Len >= 8; P += 8, Len -= 8) {
      uint64_t K;
      std::memcpy(&K, P, 8);
      Hash = mixWord(Hash, K);
    }
    for (; Len; --Len, ++P) {
      Hash ^= *P;
      Hash *= M;
    }
    H = Hash;
  }
  void str(std::string_view S) {
    // Length-prefix so ("ab","c") and ("a","bc") hash differently.
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void u64(uint64_t V) { H = mixWord(H, V); }
  void u32(uint32_t V) { H = mixWord(H, V); }

  /// The finalized hash of everything fed so far.
  uint64_t get() const {
    uint64_t Hash = H;
    Hash ^= Hash >> R;
    Hash *= M;
    Hash ^= Hash >> R;
    return Hash;
  }

private:
  static uint64_t mixWord(uint64_t Hash, uint64_t K) {
    K *= M;
    K ^= K >> R;
    K *= M;
    Hash ^= K;
    return Hash * M;
  }

  uint64_t H = Seed;
};

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_HASH_H
