// Hash helpers.
//
// The wall-of-clocks agent maps sync-variable addresses onto a fixed pool of
// logical clocks using a cheap hash (paper §4.5: "Because we want to use a
// cheap hash function, hash collisions are quite likely"). We provide both
// the cheap address hash used on the agent hot path and FNV-1a for general
// hashing (syscall argument digests, VFS paths).

#ifndef MVEE_UTIL_HASH_H_
#define MVEE_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mvee {

// FNV-1a 64-bit over a byte range.
constexpr uint64_t FnvHashBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline uint64_t FnvHash(std::string_view s) { return FnvHashBytes(s.data(), s.size()); }

// Incremental FNV combiner for streaming digests.
class FnvDigest {
 public:
  void Update(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  template <typename T>
  void UpdateValue(const T& value) {
    Update(&value, sizeof(value));
  }

  uint64_t Finish() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// One multiply-xor step of the word-wise digests below. For a fixed `word`
// it is a bijection of `state`, and for a fixed `state` a bijection of
// `word`, so a chain of steps that differs in exactly one word always ends in
// a different state.
constexpr uint64_t MixWord(uint64_t state, uint64_t word) {
  return std::rotl((state ^ word) * 0x9e3779b97f4a7c15ULL, 31);
}

// Word-wise hash of a byte range: 8 bytes per step over four independent
// MixWord lanes (so the multiplies pipeline), then the leftover words and
// the last 0-7 bytes zero-padded into one word. The size is mixed in first,
// so the padding is unambiguous. Equal bytes give equal hashes; a difference
// confined to one 8-byte word always changes the hash. Host byte order:
// every variant runs on the same host.
inline uint64_t WordHashBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto load = [](const unsigned char* at) {
    uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    return word;
  };
  uint64_t lanes[4] = {size, 0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                       0xa4093822299f31d0ULL};
  size_t at = 0;
  for (; at + 32 <= size; at += 32) {
    lanes[0] = MixWord(lanes[0], load(bytes + at));
    lanes[1] = MixWord(lanes[1], load(bytes + at + 8));
    lanes[2] = MixWord(lanes[2], load(bytes + at + 16));
    lanes[3] = MixWord(lanes[3], load(bytes + at + 24));
  }
  uint64_t hash = MixWord(MixWord(MixWord(lanes[0], lanes[1]), lanes[2]), lanes[3]);
  for (; at + 8 <= size; at += 8) {
    hash = MixWord(hash, load(bytes + at));
  }
  if (at < size) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes + at, size - at);
    hash = MixWord(hash, tail);
  }
  return hash;
}

// Cheap address hash used by the wall-of-clocks agent. Discards the low
// 3 bits before mixing: the paper deliberately assigns adjacent 32-bit sync
// variables within the same 64-bit line to one clock (a CMPXCHG8B could
// modify both at once), so addresses are bucketed at 8-byte granularity.
constexpr uint64_t ClockAddressHash(uint64_t address) {
  uint64_t x = address >> 3;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace mvee

#endif  // MVEE_UTIL_HASH_H_
