// Platform-stable byte hashing.

#ifndef AUTOFEAT_UTIL_HASH_H_
#define AUTOFEAT_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace autofeat {

/// 64-bit FNV-1a over `bytes`: unlike std::hash, fixed across platforms, so
/// it feeds `.afc` checksums, obs digests, LSH value hashes and join-index
/// representative streams. Each per-byte step is a bijection of the state,
/// so equal-length inputs differing in one byte always hash differently.
constexpr uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace autofeat

#endif  // AUTOFEAT_UTIL_HASH_H_
